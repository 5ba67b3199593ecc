"""Lazy spans: a parse's spans hold offsets and look their lines up when first read.

`LineTable.span` leaves a span's line and column slots unset; the first
read fills them from the table, which finds its line starts only then.
Every lazy span must read the lines and columns that a naive count of
newlines gives, and equal and hash like the seven-argument span with the
same values.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import rslkit.lexer
from conftest import fixture_path
from rslkit.cli import main
from rslkit.lexer import LineTable
from rslkit.model import SourceSpan

# Blank lines, "\r\n" endings, non-ASCII text and sources without a trailing newline.
PIECES = ["\n", "\n\n", "\r\n", "\r", "a", "bc", " ", "é", "Actor a_1", '"x"']


def line_col(source: str, offset: int) -> tuple[int, int]:
    """1-based line and column of offset, by counting line ends: "\\r\\n", a lone "\\r" or "\\n"."""
    line, start = 1, 0
    for i, ch in enumerate(source[:offset]):
        if ch == "\n" or (ch == "\r" and source[i + 1 : i + 2] != "\n"):
            line, start = line + 1, i + 1
    return line, offset - start + 1


@st.composite
def source_and_ranges(draw):
    source = "".join(draw(st.lists(st.sampled_from(PIECES), max_size=30)))
    offset = st.integers(0, len(source))
    pairs = draw(st.lists(st.tuples(offset, offset), max_size=8))
    # Zero-length spans, the whole source and the empty span at the end of input, every time.
    ranges = [tuple(sorted(p)) for p in pairs] + [(0, 0), (0, len(source)), (len(source), len(source))]
    return source, ranges


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(source_and_ranges())
def test_lazy_spans_read_the_naive_line_and_column(case):
    source, ranges = case
    table = LineTable(source, "f.rsl")
    for start, end in ranges:
        span = table.span(start, end)
        assert (span.start_line, span.start_col) == line_col(source, start)
        assert (span.end_line, span.end_col) == line_col(source, end)
        assert (span.file, span.offset, span.length) == ("f.rsl", start, end - start)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(source_and_ranges())
def test_a_lazy_span_equals_and_hashes_like_the_eager_one(case):
    source, ranges = case
    table = LineTable(source, "f.rsl")
    for start, end in ranges:
        eager = SourceSpan("f.rsl", *line_col(source, start), *line_col(source, end), start, end - start)
        lazy = table.span(start, end)  # compared before any field is read
        assert lazy == eager and eager == lazy
        assert hash(table.span(start, end)) == hash(eager)
        assert repr(table.span(start, end)) == repr(eager)
        assert lazy != SourceSpan("g.rsl", *line_col(source, start), *line_col(source, end), start, end - start)


def test_a_lazy_slice_equals_the_eager_slice():
    source = "Actor a_1\r\n\nUseCase uc_1 \"Pay Invoice\""
    table = LineTable(source, "f.rsl")
    start = source.index("Pay")
    lazy = table.span(start, start + len("Pay Invoice"))
    eager = SourceSpan("f.rsl", lazy.start_line, lazy.start_col, lazy.end_line, lazy.end_col, lazy.offset, lazy.length)
    assert table.span(start, start + 11).slice(4, 11) == eager.slice(4, 11)
    assert table.span(start, start + 11).slice(0, 0) == eager.slice(0, 0)


def test_line_starts_are_found_only_when_a_line_is_read(tmp_path, monkeypatch, capsys):
    calls = []
    line_starts = rslkit.lexer.line_starts
    monkeypatch.setattr(rslkit.lexer, "line_starts", lambda source: calls.append(1) or line_starts(source))
    assert main(["gen", "json", fixture_path("billing_clean.rsl"), "-o", str(tmp_path / "out.json")]) == 0
    assert calls == []
    # The spy sees a diagnostic's span being read.
    assert main(["check", fixture_path("billing_defects.rsl")]) == 1
    assert calls == [1]
