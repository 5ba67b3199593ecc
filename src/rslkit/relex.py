"""The re-lex and re-parse of an edited text: `fix` reads again only what its edits touched.

`fix` checks, applies its fixes, and checks the fixed text again. The
second lex need not scan all of a file whose edits change a few bytes:
the first lex is kept in a `Lex`, and `relex` scans a window around each
edit and copies every other token from it. `lexer.tokenize` calls it, so
the scan loop is the lexer's own. Nor need the second parse read every
declaration again: the first parse's declarations are kept with the lex,
and `Kept` hands the parser each one whose tokens were all copied.
Only `fix` loads this module.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import islice, repeat
from operator import add, attrgetter, itemgetter

from .lexer import Tokens, _scan
from .model import KIND_TABLE, DataEntity, Diagnostic, IncludeDecl, LinguisticLanguageDecl


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

    A parse whose lex is kept keeps its declarations too, in `decls`: one
    (first token, next token, result, diagnostics) per pass of
    `parser._Parser.parse_document`'s loop. The next token is the one
    that ended the declaration, after any recovery skip; the result is
    the element, the include or None. A re-lex records in `runs` each
    run of old tokens it copied at one offset delta: (new index of its
    first token, old index of it, old index past its last, delta). The
    parse of the re-lexed text takes both out of `lex` (see `Kept`).
    """

    __slots__ = ("tokens", "edits", "decls", "runs")

    def __init__(self):
        self.tokens: Tokens | None = None
        self.edits = None
        self.decls: list | None = None
        self.runs: list | None = None


def relex(source: str, pos: int, previous: Tokens, edits, kinds: list, texts: list, starts, ends) -> list:
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

    Returns the runs of copied tokens, as `Lex.runs` keeps them.
    """
    runs = []
    old_ends = previous.ends
    last = len(old_ends) - 1  # the old "end" token, which is never copied
    n, count = len(source), len(edits)
    done = delta = edge = i = 0  # the old tokens before `done` are copied or skipped, the edits before `i` taken in
    while i < count:
        k = bisect_left(old_ends, edits[i].span.offset, done, last)
        if k > done:
            runs.append((len(kinds), done, k, delta))
            _copy(previous, done, k, delta, kinds, texts, starts, ends)
            pos = old_ends[k - 1] + delta
            done = k
        stop = edits[i].span.offset + delta
        while True:
            pos = _scan(source, pos, stop, kinds, texts, starts, ends)
            if pos is None:
                return runs  # the window ran to the end of the text
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
    # Every edit is taken in, so the new "end" token, which `tokenize` appends, is the old one shifted by `delta`.
    runs.append((len(kinds), done, last + 1, delta))
    _copy(previous, done, last, delta, kinds, texts, starts, ends)
    return runs


def _copy(previous: Tokens, lo: int, hi: int, delta: int, kinds: list, texts: list, starts, ends) -> None:
    """Append old tokens lo..hi-1, their offsets shifted by `delta`; `starts` and `ends` are `array("q")`s.

    The shifted offsets go through a list: `array.fromlist` takes one
    faster than `array.extend` takes the `map`.
    """
    kinds += previous.kinds[lo:hi]
    texts += previous.texts[lo:hi]
    starts.fromlist(list(map(add, previous.starts[lo:hi], repeat(delta))))
    ends.fromlist(list(map(add, previous.ends[lo:hi], repeat(delta))))


class Kept:
    """The first parse's declarations that the parse of the edited text keeps.

    `parser._Parser` keeps no state from one declaration to the next but
    `pos`, its diagnostics and the model's `language_decl`, and it reads
    no token past the one at `pos`. So a declaration's result and
    diagnostics are a function of the tokens from its first one through
    the one that ended it, and a declaration whose tokens were all copied
    in one run of the re-lex parses as it did before, at offsets shifted
    by that run's delta. Such a declaration is kept, but for a
    LinguisticLanguage element: whether it is a duplicate (RSL-S005, after
    which recovery skips on) depends on the declarations before it.
    """

    __slots__ = ("decls", "runs", "lines")

    def __init__(self, lex: Lex, lines):
        self.decls, self.runs, self.lines = lex.decls, lex.runs, lines
        lex.decls = lex.runs = None

    def take(self, pos: int):
        """(elements, includes, diagnostics, next token) of the declarations kept from token `pos` on, or None.

        They are the old declaration that starts at `pos`, if it is kept,
        and each one after it that is kept too. Their diagnostics are
        made anew, and the spans of their elements, attributes and
        includes are shifted in place and moved to the new text's
        `LineTable`. A span whose line and column were read holds no
        table (see `model.SourceSpan`), and it forgets them.
        """
        runs, decls = self.runs, self.decls
        r = bisect_right(runs, pos, key=_FIRST) - 1
        if r < 0:
            return None
        new_lo, lo, hi, delta = runs[r]
        first = at = pos - new_lo + lo  # the old index of token `pos`
        i = bisect_left(decls, at, key=_FIRST)
        if i == len(decls) or decls[i][0] != at:
            return None
        elements, includes, diagnostics = [], [], []
        lines = self.lines
        span = lines.span
        for _, end, decl, diags in islice(decls, i, None):
            if end >= hi or type(decl) is LinguisticLanguageDecl:
                break
            at = end
            if diags:  # before the element's spans move: a diagnostic may hold one of them
                diagnostics += [
                    Diagnostic(d.severity, d.code, d.message, span(d.span.offset + delta, d.span.end_offset + delta))
                    for d in diags
                ]
            if decl is None:
                continue
            spans = _SPANS[type(decl)](decl)
            if type(decl) is IncludeDecl:
                includes.append(decl)
            else:
                elements.append(decl)
                if type(decl) is DataEntity:
                    spans += tuple(map(_SPAN, decl.attributes))
            for old in spans:
                if old is not None:
                    if old._lines is None:  # the old text's line and column
                        del old.start_line, old.start_col, old.end_line, old.end_col
                    old.offset += delta
                    old._lines = lines
        if at == first:
            return None
        return elements, includes, diagnostics, at - lo + new_lo


_FIRST = itemgetter(0)
_SPAN = attrgetter("span")
# Each parsed record class -> a getter of the tuple of its span fields.
_SPANS = {
    row["class"]: attrgetter(*(f for f in row["class"]._fields if f.endswith("span"))) for row in KIND_TABLE.values()
}
_SPANS[IncludeDecl] = lambda include: (include.span,)
