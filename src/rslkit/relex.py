"""The re-lex of an edited text: `fix` lexes a file again only around its edits.

`fix` checks, applies its fixes, and checks the fixed text again. The
second lex need not scan all of a file whose edits change a few bytes:
the first lex is kept in a `Lex`, and `relex` scans a window around each
edit and copies every other token from it. `lexer.tokenize` calls it, so
the scan loop is the lexer's own, and only `fix` loads this module.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import repeat
from operator import add

from .lexer import Tokens, _scan


class Lex:
    """A file's lex kept from one parse to the next, so that lexing its edited text scans only around the edits.

    `tokenize(source, file, lex)` with no `lex.edits` lexes all of `source`
    and keeps the result in `lex.tokens`, its offsets packed in
    `array("q")`s: an int object per offset would take about four times
    the memory, and the kept lex lives through a whole check. The owner
    then sets `lex.edits` to the non-overlapping `TextEdit`s, in
    `model.edit_order`, that turn that text into a new one.
    `tokenize(new, file, lex)` re-lexes only around them (see `relex`)
    and takes the kept tokens out of `lex`, so they are freed before the
    new ones are parsed; it keeps nothing of its own.
    """

    __slots__ = ("tokens", "edits")

    def __init__(self):
        self.tokens: Tokens | None = None
        self.edits = None


def relex(source: str, pos: int, previous: Tokens, edits, kinds: list, texts: list, starts: list, ends: list) -> None:
    """Append the tokens of `source` from `pos`, scanning only around the `edits` that made it from `previous`'s text.

    A match of `lexer._TOKEN_RE` starts where the last token ended and
    reads at most one character past its own end. So an old token that
    ends before the next edit read nothing that changed: it is copied, its
    offsets shifted by `delta`, the length the edits before it added. A
    window starts at the end of the last token copied and is scanned until
    a token ends, past every edit the window reached, at the shifted end of
    an old token. From there the new text reads as the old one did, up to
    the next edit. This is the resynchronising lexer of Wagner and Graham,
    "Efficient and Flexible Incremental Parsing" (TOPLAS 1998).
    """
    old_ends = previous.ends
    last = len(old_ends) - 1  # the old "end" token, which is never copied
    n, count = len(source), len(edits)
    done = delta = edge = i = 0  # the old tokens before `done` are copied or skipped, the edits before `i` taken in
    while i < count:
        k = bisect_left(old_ends, edits[i].span.offset, done, last)
        if k > done:
            _copy(previous, done, k, delta, kinds, texts, starts, ends)
            pos = old_ends[k - 1] + delta
            done = k
        stop = edits[i].span.offset + delta
        while True:
            pos = _scan(source, pos, stop, kinds, texts, starts, ends)
            if pos is None:
                return  # the window ran to the end of the text
            while i < count and edits[i].span.offset + delta <= pos:  # every edit the window reached
                span = edits[i].span
                delta += len(edits[i].new_text) - span.length
                edge = span.end_offset + delta
                i += 1
            if pos < edge:
                stop = edge
            else:
                done = bisect_left(old_ends, pos - delta, done, last)
                if done < last and old_ends[done] + delta == pos:
                    done += 1
                    break  # resynchronised
                stop = old_ends[done] + delta if done < last else n + 1
            if i < count:
                stop = min(stop, edits[i].span.offset + delta)
    _copy(previous, done, last, delta, kinds, texts, starts, ends)


def _copy(previous: Tokens, lo: int, hi: int, delta: int, kinds: list, texts: list, starts: list, ends: list) -> None:
    """Append old tokens lo..hi-1, their offsets shifted by `delta`."""
    kinds += previous.kinds[lo:hi]
    texts += previous.texts[lo:hi]
    starts += map(add, previous.starts[lo:hi], repeat(delta))
    ends += map(add, previous.ends[lo:hi], repeat(delta))
