"""The block lexer against the character-loop oracle, plus totality on any text and line-locality."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import oracle_tokenize
from rslkit.lexer import _BLOCK, tokenize
from rslkit.model import SourceSpan, TextEdit
from rslkit.parser import parse
from rslkit.relex import Lex

# Every character class the lexer distinguishes, with non-ASCII letters
# and digits where str.isalpha/isalnum/isdigit and re's \w/\d disagree.
PIECES = (
    [" ", "\t", "\r", "\n", "\r\n", '"', "\\", '\\"', "\\\\", "/", "//"]
    + list(":[](),+|.")
    + list("aZq_09")
    + ["Actor", "12", "é", "½", "²", "٣", "ǅ"]
)
# The lexer's character classes, plus a byte-order mark, comments and
# strings whole, so that an edit can open, close or split each of them.
RELEX_PIECES = PIECES + ["\ufeff", "// note", "//", '"a b"', '"un', '\\"', "\r"]


def as_tuples(tokens, source, first=0):
    """(kind, text, span, raw) of each lexer token from `first` on, a mark's kind spelled "punct" as the oracle does."""
    return [
        (kind if len(kind) > 1 else "punct", text, tokens.lines.span(start, end), source[start:end])
        for kind, text, start, end in zip(
            tokens.kinds[first:], tokens.texts[first:], tokens.starts[first:], tokens.ends[first:]
        )
    ]


def oracle_tuples(tokens):
    return [(t.kind, t.text, t.span, t.raw) for t in tokens]


@settings(max_examples=1500, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from(PIECES), max_size=40).map("".join))
@example("12abc")
@example("½x")
@example("x½")
@example("00²")
@example('Actor a "unterminated\nActor b')
@example('"abc\\"')
@example('Actor a_1 "x" : User\r\nActor a_2\r\n// note\r\n"y"\r\n')
def test_tokens_match_oracle(source):
    assert as_tuples(tokenize(source, "f.rsl"), source) == oracle_tuples(oracle_tokenize(source, "f.rsl"))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.text())
def test_lexer_and_parser_never_raise(source):
    tokens = tokenize(source)
    assert tokens.kinds[-1] == "end"
    parse(source)


def test_byte_order_mark_is_skipped_only_at_the_start():
    source = '\ufeffActor a_1 "x"\n\ufeff'
    tokens = tokenize(source, "f.rsl")
    assert tokens.kinds == ["identifier", "identifier", "string", "error", "end"]
    assert tokens.starts[0] == 1  # offsets index the text as read
    assert as_tuples(tokens, source) == oracle_tuples(oracle_tokenize(source, "f.rsl"))
    assert tokens.lines.span(tokens.starts[0], tokens.ends[0]).start_col == 2  # the mark is column 1


def test_extreme_line_lengths_and_counts():
    one_line = ('Actor a_1 "x" : User ' * 10_000)[:200_000]
    many_lines = 'a "x"\n' * 50_000
    for source in (one_line, many_lines):
        ours, oracle = tokenize(source, "f"), oracle_tokenize(source, "f")
        assert len(ours) == len(oracle)
        assert as_tuples(ours, source, len(ours) - 2) == oracle_tuples(oracle[-2:])


def columns(tokens, shift=0):
    """(kind, text, start, end) of each token but the last, "end", its offsets shifted by `shift`."""
    return [
        (kind, text, start + shift, end + shift)
        for kind, text, start, end in zip(tokens.kinds[:-1], tokens.texts[:-1], tokens.starts, tokens.ends)
    ]


@settings(max_examples=800, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from(RELEX_PIECES), max_size=40).map("".join), st.data())
@example("a\r\nb // c\n\"d", None)
def test_lexing_is_line_local(source, data):
    """The tokens of a text are those of its slices, cut at line starts, each lexed on its own and shifted."""
    # Just after any "\r" or "\n": a line starts there, also inside a "\r\n" pair. A
    # byte-order mark is skipped only at offset 0 of a text, so no slice starts with one.
    cuts = [i for i in range(1, len(source)) if source[i - 1] in "\r\n" and source[i] != "\ufeff"]
    if data is not None:
        cuts = [i for i in cuts if data.draw(st.booleans())]
    sliced = []
    for start, end in zip([0, *cuts], [*cuts, len(source)]):
        sliced += columns(tokenize(source[start:end], "f.rsl"), start)
    whole = tokenize(source, "f.rsl")
    assert sliced == columns(whole)
    assert as_tuples(whole, source) == oracle_tuples(oracle_tokenize(source, "f.rsl"))


# A line of every kind of token, with the line breaks that are not the lexer's
# (U+2028, "\x0b", "\x0c", "\x85") inside a string and a comment, and a CRLF pair.
EDGE_LINE = 'Actor é½ 12²٣ "a\u2028b\x0bc\x0cd\x85e" : x // f\u2028g\x85h\r\n'


def test_blocks_end_only_after_a_line_feed():
    """A text longer than a block, whose first block's nominal end falls at each character of the line at the edge."""
    for shift in range(len(EDGE_LINE) + 1):
        source = " " * (_BLOCK - shift) + EDGE_LINE * 2
        assert as_tuples(tokenize(source, "f.rsl"), source) == oracle_tuples(oracle_tokenize(source, "f.rsl")), shift


def test_relex_windows_end_only_at_a_line_feed():
    """An edit beside a U+2028, "\x0b", "\x0c" or "\x85" re-lexes the whole line around it, string and comment included."""
    old = "Actor a\n" + EDGE_LINE + "Actor b\n"
    for at in [i for i, ch in enumerate(old) if ch in "\u2028\x0b\x0c\x85"]:
        for where in (at, at + 1):
            lex = Lex()
            tokenize(old, "f.rsl", lex)
            lex.edits = [TextEdit(SourceSpan("f.rsl", 1, 1, 1, 1, where, 0), "z")]
            new = old[:where] + "z" + old[where:]
            assert columns(tokenize(new, "f.rsl", lex)) == columns(tokenize(new, "f.rsl")), where
