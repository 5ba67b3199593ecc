"""Tokenizer for the requirements language.

One compiled regular expression scans the source: each match skips the
whitespace and `//` comments before a token, then matches an identifier,
a digit run, a string, a punctuation mark or a single other character.
`tokenize` returns one `Tokens` value: four parallel lists (`kinds`,
`texts`, `starts`, `ends`) plus the source's `LineTable`. A punctuation
mark's kind is the mark itself (`":"`, `"["`, ...), so a parser tests it
with one comparison. There are no token objects: the parser reads these
lists by index, and `len(tokens)` is kept only so that the benchmark's
trace of `tokenize` can count tokens.

A span from `LineTable.span` holds the file, offset and length and the
table. Its line and column are looked up with `bisect` the first time
one of them is read, and the table finds the source's line starts on its
first lookup. A run that reads no line, such as a clean `gen`, never
scans for them.

Identifiers start with a character for which `str.isalpha()` holds (or
`_`) and go on over `str.isalnum()` characters (or `_`); digit runs are
`str.isdigit()` characters. Python's `\\d` (decimal digits only) and a
`\\w` start (which admits `½` and `²`) differ from these predicates
outside ASCII, so the pattern matches ASCII-started words and digit runs
directly and any other character takes a per-character path that applies
the exact predicates.

Text is lexed as read, with its line endings: "\\r\\n", a lone "\\r" and
"\\n" each end a line, as universal newlines would read them. A string or
a `//` comment stops at any of them, and `LineTable` counts each as one
line break, so a spec with CRLF or CR line endings reads as its LF twin.

`fix` lexes a text again after editing it. Given the first lex, kept in a
`relex.Lex`, and the edits, `tokenize` scans only around each edit and
copies the other tokens (see `relex`).

A UTF-8 byte-order mark (U+FEFF) at offset 0 is skipped, not tokenized.
Offsets still index the text as read, so the mark keeps offset 0 and a
column on line 1 counts it; anywhere else U+FEFF is an error token.

Never raises on malformed input; lexical problems become error tokens
that the parser turns into diagnostics.
"""

from __future__ import annotations

import re
from bisect import bisect_right

from .model import SourceSpan

_TOKEN_RE = re.compile(
    r"""[ \t\r\n]*(?://[^\r\n]*[ \t\r\n]*)*
    (?:
        (?P<identifier>[A-Za-z_]\w*)
      | (?P<punct>[:\[\](),+|.])
      | (?P<string>"(?P<body>(?:[^"\\\r\n]+|\\["\\]?)*)(?P<close>"?))
      | (?P<digits>[0-9]+)(?![0-9]|[^\x00-\x7f])
      | (?P<other>.)
    )?""",
    re.VERBOSE | re.DOTALL,
)
_WORD_TAIL_RE = re.compile(r"\w*")  # \w is exactly str.isalnum() or "_"
_ESCAPE_RE = re.compile(r'\\(["\\])')


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

    def content_span(self, start: int, end: int) -> SourceSpan:
        """Span inside the quotes of the string literal at source[start:end]."""
        return self.span(start + 1, max(end - 1, start + 1))

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
    """The tokens of one source as parallel lists; the last token has kind "end".

    `kinds[i]` is "identifier", "string", "error", "end" or, for a
    punctuation mark, the mark itself; `texts[i]` is the surface text (for
    a string, its decoded value); `starts[i]`/`ends[i]` are offsets into
    the source. There is no per-token object to index or iterate over;
    `len()` stays because the benchmark's trace of `tokenize` counts
    tokens with it.
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
        lex.tokens = lex.edits = None
    kinds: list[str] = []
    texts: list[str] = []
    starts: list[int] = []
    ends: list[int] = []
    n = len(source)
    pos = 1 if source.startswith("\ufeff") else 0  # a byte-order mark is skipped; offsets still count it
    if previous is None or edits is None:
        _scan(source, pos, n + 1, kinds, texts, starts, ends)
    else:
        from .relex import relex

        relex(source, pos, previous, edits, kinds, texts, starts, ends)
    kinds.append("end")
    texts.append("")
    starts.append(n)
    ends.append(n)
    lines = LineTable(source, file)
    if lex is not None and edits is None:
        from array import array

        lex.tokens = Tokens(kinds, texts, array("q", starts), array("q", ends), lines)
    return Tokens(kinds, texts, starts, ends, lines)


def _scan(source: str, pos: int, stop: int, kinds: list, texts: list, starts: list, ends: list) -> int | None:
    """Append the tokens from `pos` on, up to the first that ends at or past `stop`.

    Returns that token's end, or None when the text ran out first. Skipping
    a byte-order mark at offset 0 is the caller's job.
    """
    kind_append, text_append, start_append, end_append = kinds.append, texts.append, starts.append, ends.append
    scan = _TOKEN_RE.finditer
    n = len(source)
    while True:
        for m in scan(source, pos):
            group = m.lastgroup
            if group == "identifier":
                kind_append("identifier")
                text_append(m.group(group))
            elif group == "punct":
                text = m.group(group)
                kind_append(text)
                text_append(text)
            elif group == "string":
                body = m.group("body")
                if "\\" in body:
                    body = _ESCAPE_RE.sub(r"\1", body)
                kind_append("string" if m.group("close") else "error")
                text_append(body)
            elif group is None:  # only whitespace and comments were left
                continue
            else:
                start, pos = m.span(group)
                kind = "identifier"
                if group == "other":
                    ch = source[start]
                    if ch.isalpha():
                        pos = _WORD_TAIL_RE.match(source, pos).end()
                    elif ch.isdigit():
                        while pos < n and source[pos].isdigit():
                            pos += 1
                    else:
                        kind = "error"
                kind_append(kind)
                text_append(source[start:pos])
                start_append(start)
                end_append(pos)
                if pos >= stop:
                    return pos
                if pos != m.end():
                    break  # a non-ASCII word or digit run: scan again after it
                continue
            start, end = m.span(group)
            start_append(start)
            end_append(end)
            if end >= stop:
                return end
        else:
            return None
