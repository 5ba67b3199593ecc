"""The regex lexer against the character-loop oracle, plus totality on any text."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import oracle_tokenize
from rslkit.lexer import tokenize
from rslkit.parser import parse

# Every character class the lexer distinguishes, with non-ASCII letters
# and digits where str.isalpha/isalnum/isdigit and re's \w/\d disagree.
PIECES = (
    [" ", "\t", "\r", "\n", "\r\n", '"', "\\", '\\"', "\\\\", "/", "//"]
    + list(":[](),+|.")
    + list("aZq_09")
    + ["Actor", "12", "é", "½", "²", "٣", "ǅ"]
)


def as_tuples(tokens):
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
    assert as_tuples(tokenize(source, "f.rsl")) == as_tuples(oracle_tokenize(source, "f.rsl"))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.text())
def test_lexer_and_parser_never_raise(source):
    tokens = tokenize(source)
    assert tokens[-1].kind == "end"
    parse(source)


def test_extreme_line_lengths_and_counts():
    one_line = ('Actor a_1 "x" : User ' * 10_000)[:200_000]
    many_lines = 'a "x"\n' * 50_000
    for source in (one_line, many_lines):
        ours, oracle = tokenize(source, "f"), oracle_tokenize(source, "f")
        assert len(ours) == len(oracle)
        assert as_tuples(ours[-2:]) == as_tuples(oracle[-2:])
