"""Tokenizer for the requirements language.

`tokenize` returns one `Tokens` value: four parallel sequences (`kinds`,
`texts`, `starts`, `ends`) plus the source's `LineTable`. A punctuation
mark's kind is the mark itself (`":"`, `"["`, ...), so a parser tests it
with one comparison. There are no token objects: the parser reads the
sequences by index.

No token holds a "\\r" or a "\\n", as a string or a `//` comment stops at
either; so lexing is line-local. `_lex` cuts a text into blocks of about
64 K characters, each ending just after a "\\n" (U+2028 and the other
`str.splitlines` breaks end no line here), and splits each block with one
compiled pattern whose one group captures a token or a comment: the
pieces between are whitespace. C-level calls build the rest: the offsets
are the running sums of the pieces' lengths, packed into `array("q")`s
(an int object per offset would take about four times the memory), and a
token's kind is one dict lookup on its first character. Python code
visits only the strings (quotes stripped, escapes decoded, an unclosed
one made an error token), the comments, which are dropped, and in a
block that is not ASCII, the words that `_exact` cuts again.

Identifiers start with a character for which `str.isalpha()` holds (or
`_`) and go on over `str.isalnum()` characters (or `_`); digit runs are
`str.isdigit()` characters.

A span from `LineTable.span` looks its line and column up when one of
them is first read, and the table finds the line starts on its first
lookup. "\\r\\n", a lone "\\r" and "\\n" each end a line, so a spec with
CRLF or CR line endings reads as its LF twin.

`fix` lexes a text again after editing it: given the first lex, kept in
a `relex.Lex`, and the edits, `tokenize` lexes only the lines around each
edit and copies the other tokens (see `relex`).

A UTF-8 byte-order mark (U+FEFF) at offset 0 is skipped, not tokenized.
Offsets still index the text as read, so the mark keeps offset 0 and a
column on line 1 counts it; anywhere else U+FEFF is an error token.

Never raises on malformed input; lexical problems become error tokens
that the parser turns into diagnostics.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_right
from itertools import accumulate, compress, repeat
from operator import itemgetter, not_

from .model import SourceSpan

# A `//` comment, a string (closed or not), an ASCII digit run, a run of
# word characters, or any other character but whitespace.
_SPLIT = re.compile(r'(//[^\r\n]*|"(?:[^"\\\r\n]+|\\["\\]?)*"?|[0-9]+|\w+|[^ \t\r\n])').split
_BLOCK = 1 << 16  # characters in a block, up to the "\n" that ends it


class _Kinds(dict):
    """A token's kind by its first character; a string's is settled when its end is read."""

    def __missing__(self, first: str) -> str:  # a non-ASCII character
        return "identifier" if first.isalpha() or first.isdigit() else "error"


_KINDS = _Kinds.fromkeys(map(chr, range(128)), "error")
_KINDS.update(dict.fromkeys("0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ_abcdefghijklmnopqrstuvwxyz", "identifier"))
_KINDS.update(zip(":[](),+|.", ":[](),+|."))
_KINDS['"'] = "string"
_FIRST = itemgetter(0)

_new_span = object.__new__  # a span with its line and column slots unset


class LineTable:
    """Turns offsets into spans of one source; line starts are found on the first lookup."""

    __slots__ = ("file", "source", "starts")

    def __init__(self, source: str, file: str):
        self.file = file
        self.source = source
        self.starts: list[int] | None = None

    def span(self, start: int, end: int) -> SourceSpan:
        """Span of source[start:end]; its lines and columns are looked up when first read."""
        span = _new_span(SourceSpan)
        span.file = self.file
        span.offset = start
        span.length = end - start
        span._lines = self
        return span

    def line_cols(self, start: int, end: int) -> tuple[int, int, int, int]:
        """(start line, start column, end line, end column) of source[start:end], 1-based."""
        starts = self.starts
        if starts is None:
            starts = self.starts = line_starts(self.source)
        start_line = bisect_right(starts, start)
        end_line = bisect_right(starts, end, start_line - 1)
        return start_line, start - starts[start_line - 1] + 1, end_line, end - starts[end_line - 1] + 1


def line_starts(source: str) -> list[int]:
    """Offset of the first character of each line of source; "\\r\\n", a lone "\\r" and "\\n" each end a line."""
    if "\r" in source:  # the same length, so every offset stands
        source = source.replace("\r\n", " \n").replace("\r", "\n")
    starts = [0]
    i = source.find("\n")
    while i != -1:
        starts.append(i + 1)
        i = source.find("\n", i + 1)
    return starts


class Tokens:
    """The tokens of one source as parallel sequences; the last token has kind "end".

    `kinds[i]` is "identifier", "string", "error", "end" or, for a
    punctuation mark, the mark itself; `texts[i]` is the surface text (for
    a string, its decoded value); `starts[i]`/`ends[i]` are offsets into
    the source, in `array("q")`s. `len()` stays because the benchmark's
    trace of `tokenize` counts tokens with it.
    """

    __slots__ = ("kinds", "texts", "starts", "ends", "lines")

    def __init__(self, kinds: list, texts: list, starts, ends, lines: LineTable):
        self.kinds = kinds
        self.texts = texts
        self.starts = starts
        self.ends = ends
        self.lines = lines

    def __len__(self) -> int:  # perfbench's trace of `tokenize` counts tokens with len()
        return len(self.kinds)


def tokenize(source: str, file: str = "<memory>", lex=None) -> Tokens:
    """The tokens of `source`; `lex` is a `relex.Lex`, see there."""
    previous = edits = None
    if lex is not None:
        previous, edits = lex.tokens, lex.edits
        lex.tokens = lex.edits = lex.runs = None
    kinds, texts, starts, ends = [], [], array("q"), array("q")
    n = len(source)
    pos = 1 if source.startswith("\ufeff") else 0  # a byte-order mark is skipped; offsets still count it
    if previous is None or edits is None:
        _lex(source, pos, n, kinds, texts, starts, ends)
    else:
        from .relex import relex

        lex.runs = relex(source, pos, previous, edits, kinds, texts, starts, ends)
    kinds.append("end")
    texts.append("")
    starts.append(n)
    ends.append(n)
    tokens = Tokens(kinds, texts, starts, ends, LineTable(source, file))
    if lex is not None and edits is None:
        lex.tokens = tokens
    return tokens


def _lex(source: str, pos: int, stop: int, kinds: list, texts: list, starts: array, ends: array) -> None:
    """Append the tokens of source[pos:stop], where `stop` is a "\\n" or the end; a byte-order mark is the caller's."""
    while pos < stop:
        end = source.find("\n", pos + _BLOCK, stop) + 1 or stop
        block = source[pos:end]
        pieces = _SPLIT(block)  # whitespace, token, whitespace, ..., token, whitespace
        if not block.isascii():
            pieces = _exact(pieces)
        words = pieces[1::2]
        offsets = list(accumulate(map(len, pieces), initial=pos))
        block_starts, block_ends = offsets[1:-1:2], offsets[2::2]
        block_kinds = list(map(_KINDS.__getitem__, map(_FIRST, words)))
        if "//" in block:
            keep = list(map(not_, map(str.startswith, words, repeat("//"))))
            columns = map(compress, (words, block_kinds, block_starts, block_ends), repeat(keep))
            words, block_kinds, block_starts, block_ends = map(list, columns)
        if '"' in block:
            _strings(words, block_kinds)
        kinds += block_kinds
        texts += words
        starts.fromlist(block_starts)
        ends.fromlist(block_ends)
        pos = end


def _strings(words: list, kinds: list) -> None:
    """Turn each string token among `words` into its value; an unclosed one becomes an error token."""
    i = -1
    for _ in range(kinds.count("string")):
        i = kinds.index("string", i + 1)
        word = words[i]
        if "\\" not in word and word[-1] == '"' != word:
            words[i] = word[1:-1]
            continue
        value = word[1:-1]
        if word[-1] != '"' or word == '"' or (len(value) - len(value.rstrip("\\"))) % 2:
            kinds[i] = "error"  # no closing quote: the line ended, or the last one is escaped
            value = word[1:]
        words[i] = re.sub(r'\\(["\\])', r"\1", value)


def _exact(pieces: list) -> list:
    """The `pieces` of a block that is not ASCII, each word cut as `str.isalpha` and `str.isdigit` cut it.

    A word that starts with a letter or `_` is whole, and a character that
    is not a word character is an error token whoever cuts it. A word that
    starts with another non-ASCII word character (`²`, `٣`, `½`) is cut
    again, with the ASCII digit run just before it, if any: `12²` is one
    digit run.
    """
    words = pieces[1::2]
    ascii_firsts = list(map(str.isascii, map(_FIRST, words)))
    out, done, i = [], 0, -1
    for _ in range(ascii_firsts.count(False)):
        i = ascii_firsts.index(False, i + 1)
        word = words[i]
        if word[0].isalpha() or not word[0].isalnum():
            continue
        at = 2 * i + 1
        if i and not pieces[at - 1] and words[i - 1][0] in "0123456789":
            at -= 2
            word = words[i - 1] + word
        out += pieces[done:at]
        k, n = 0, len(word)
        while k < n:
            j = k + 1
            if word[k].isalpha() or word[k] == "_":
                j = n
            elif word[k].isdigit():
                while j < n and word[j].isdigit():
                    j += 1
            out += (word[k:j], "")
            k = j
        out.pop()
        done = 2 * i + 2
    return out + pieces[done:] if done else pieces
