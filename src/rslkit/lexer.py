"""Tokenizer for the requirements language.

One compiled regular expression scans the source: each match skips the
whitespace and `//` comments before a token, then matches an identifier,
a digit run, a string, a punctuation mark or a single other character.
Tokens carry only their kind, text and start/end offsets plus a shared
line-start table of the source; a token's `span` (line and column) is
computed from that table with `bisect` only when someone asks for it, so
the many tokens nobody reports on cost no span.

Identifiers start with a character for which `str.isalpha()` holds (or
`_`) and go on over `str.isalnum()` characters (or `_`); digit runs are
`str.isdigit()` characters. Python's `\\d` (decimal digits only) and a
`\\w` start (which admits `½` and `²`) differ from these predicates
outside ASCII, so the pattern matches ASCII-started words and digit runs
directly and any other character takes a per-character path that applies
the exact predicates.

Never raises on malformed input; lexical problems become error tokens
that the parser turns into diagnostics.
"""

from __future__ import annotations

import re
from bisect import bisect_right

from .model import SourceSpan

_TOKEN_RE = re.compile(
    r"""(?:[ \t\r\n]+|//[^\n]*)*
    (?:
        (?P<identifier>[A-Za-z_]\w*)
      | (?P<digits>[0-9]+)(?![0-9]|[^\x00-\x7f])
      | (?P<string>"(?P<body>(?:[^"\\\n]+|\\["\\]?)*)(?P<close>"?))
      | (?P<punct>[:\[\](),+|.])
      | (?P<other>.)
    )?""",
    re.VERBOSE | re.DOTALL,
)
_WORD_TAIL_RE = re.compile(r"\w*")  # \w is exactly str.isalnum() or "_"
_ESCAPE_RE = re.compile(r'\\(["\\])')


class LineTable:
    """Line-start offsets of one source, for turning offsets into spans."""

    __slots__ = ("source", "file", "starts")

    def __init__(self, source: str, file: str):
        self.source = source
        self.file = file
        starts = [0]
        i = source.find("\n")
        while i != -1:
            starts.append(i + 1)
            i = source.find("\n", i + 1)
        self.starts = starts

    def span(self, start: int, end: int) -> SourceSpan:
        """Span of source[start:end]; lines and columns are 1-based."""
        starts = self.starts
        start_line = bisect_right(starts, start)
        end_line = bisect_right(starts, end, start_line - 1)
        return SourceSpan(
            self.file,
            start_line,
            start - starts[start_line - 1] + 1,
            end_line,
            end - starts[end_line - 1] + 1,
            start,
            end - start,
        )


class RslToken:
    __slots__ = ("kind", "text", "start", "end", "lines")

    def __init__(self, kind: str, text: str, start: int, end: int, lines: LineTable):
        self.kind = kind  # identifier | string | punct | error | end
        self.text = text  # surface text; for strings, the decoded value
        self.start = start
        self.end = end
        self.lines = lines

    @property
    def span(self) -> SourceSpan:
        return self.lines.span(self.start, self.end)

    @property
    def raw(self) -> str:
        """Original source text (differs from `text` for strings)."""
        return self.lines.source[self.start : self.end]

    def __repr__(self) -> str:
        return f"RslToken({self.kind!r}, {self.text!r}, {self.start}, {self.end})"


def tokenize(source: str, file: str = "<memory>") -> list[RslToken]:
    lines = LineTable(source, file)
    tokens: list[RslToken] = []
    append = tokens.append
    match = _TOKEN_RE.match
    pos, n = 0, len(source)
    while True:
        m = match(source, pos)
        group = m.lastgroup
        if group is None:  # only whitespace and comments were left
            break
        start, pos = m.start(group), m.end()
        if group == "identifier" or group == "digits":
            append(RslToken("identifier", m.group(group), start, pos, lines))
        elif group == "punct":
            append(RslToken("punct", m.group(group), start, pos, lines))
        elif group == "string":
            body = m.group("body")
            if "\\" in body:
                body = _ESCAPE_RE.sub(r"\1", body)
            append(RslToken("string" if m.group("close") else "error", body, start, pos, lines))
        else:
            ch = source[start]
            if ch.isalpha():
                pos = _WORD_TAIL_RE.match(source, pos).end()
                kind = "identifier"
            elif ch.isdigit():
                while pos < n and source[pos].isdigit():
                    pos += 1
                kind = "identifier"
            else:
                kind = "error"
            append(RslToken(kind, source[start:pos], start, pos, lines))
    append(RslToken("end", "", n, n, lines))
    return tokens


def content_span(token: RslToken) -> SourceSpan:
    """Span of a string token's contents (inside the quotes).

    Only exact when the literal carries no escapes; callers needing edit
    precision should check that first.
    """
    return token.lines.span(token.start + 1, max(token.end - 1, token.start + 1))
