"""The index-based parser against the token-object parser it replaced.

`oracles.TokenObjectParser` is the table-driven parser as it was when it
walked a list of token objects; it now walks `oracles.oracle_tokenize`,
so it shares no lexer with `parse`. On every input here `parse` must give
an equal model, the same span in every `*_span` field, include and end of
input, and the same diagnostics with their spans.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from modelgen import random_model
from oracles import oracle_token_object_parse, oracle_tokenize
from rslkit.lexer import tokenize
from rslkit.parser import BODY_KEYWORDS, TOP_KEYWORDS, parse
from rslkit.printer import print_model
from test_kind_table import GOOD, HEADS, KINDS, TAILS, spans
from test_lexer import PIECES

FIXTURE_TEXTS = {path.name: path.read_text(encoding="utf-8") for path in sorted(FIXTURES.glob("*.rsl"))}
KEYWORDS = sorted(TOP_KEYWORDS | BODY_KEYWORDS)


def all_spans(model):
    return spans(model) + [inc.span for inc in model.includes] + [model.end_span]


def assert_same_parse(source: str, file: str = "f.rsl"):
    new, new_diags = parse(source, file)
    old, old_diags = oracle_token_object_parse(source, file)
    assert new_diags == old_diags, source
    assert new == old, source
    assert all_spans(new) == all_spans(old), source
    return new_diags


def mutate(source: str, rng: random.Random, pool: list) -> str:
    """One to three token edits: insert a token, delete one, or copy a run of tokens elsewhere."""
    for _ in range(rng.randint(1, 3)):
        tokens = tokenize(source)  # the last token is "end", at len(source)
        starts, ends = tokens.starts, tokens.ends
        at = rng.choice(starts)  # where an insert or a copy goes
        op = rng.choice(("insert", "delete", "copy")) if len(tokens) > 1 else "insert"
        if op == "insert":
            source = source[:at] + " " + rng.choice(pool) + " " + source[at:]
        elif op == "delete":
            k = rng.randrange(len(tokens) - 1)
            source = source[: starts[k]] + source[ends[k] :]
        else:
            i = rng.randrange(len(tokens) - 1)
            j = min(len(tokens) - 2, i + rng.randrange(12))
            segment = source[starts[i] : ends[j]]
            source = source[:at] + " " + segment + " " + source[at:]
    return source


def test_generated_models():
    for seed in range(500):
        assert assert_same_parse(print_model(random_model(seed))) == []


def test_malformed_heads_and_clauses():
    for head in HEADS:
        for kind in KINDS:
            for keyword, good in GOOD.items():
                for tail in TAILS:
                    source = head.format(kind=kind) + " [ " + keyword + tail.format(good=good)
                    assert_same_parse(source)
                    assert_same_parse(source + "\nActor a_9 : User [isA a_9]\n")


# Inputs for the error sites the loops above miss: a subtype missing after
# `.`, `onExtensionPoint` with no point, and the body checks of `finish_body`.
ERROR_SITE_INPUTS = [
    "Stakeholder s_1 : Person. [ ]",
    "Stakeholder s_1 : Person.",
    "UseCase uc_1 [ extends uc_0 onExtensionPoint ]",
    "UseCase uc_1 [ extends uc_0 onExtensionPoint",
    'DataEntity e_1 [ attribute at_1 "A" : Integer attribute at_1 "B" : Integer ]',
    'DataEntity e_1 [ attribute at_1 "A" : Integer [constraints (PrimaryKey)]'
    ' attribute at_2 "B" : Integer [constraints (PrimaryKey)] ]',
    'DataEntity e_1 [ attribute at_1 "A" : Integer attribute at_1 "B" : Integer',
    'Term t_1 "Client" [ synonyms "Buyer", "client" ]',
    'Term t_1 "Client" [ synonyms "CLIENT"',
]


def test_error_sites_the_loops_miss():
    for source in ERROR_SITE_INPUTS:
        assert assert_same_parse(source), source
        assert_same_parse(source + "\nActor a_9 : User [isA a_9]\n")


def test_fixtures():
    for name, text in FIXTURE_TEXTS.items():
        assert_same_parse(text, name)
        assert len(tokenize(text, name)) == len(oracle_tokenize(text, name))


def test_seeded_fixture_mutants():
    pool = sorted({t.raw for text in FIXTURE_TEXTS.values() for t in oracle_tokenize(text)} - {""})
    pool += ["[", "]", '"unterminated', "@", "Include"]
    diagnosed = 0
    count = 0
    for seed in range(400):
        rng = random.Random(seed)
        for name, text in FIXTURE_TEXTS.items():
            diagnosed += bool(assert_same_parse(mutate(text, rng, pool), name))
            count += 1
    assert count >= 2000
    assert diagnosed > count // 2  # most mutants are malformed, so recovery runs


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from(PIECES + [k + " " for k in KEYWORDS]), max_size=60).map("".join))
def test_rsl_like_text(source):
    assert_same_parse(source)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.text())
def test_any_text(source):
    assert_same_parse(source)
