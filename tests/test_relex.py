"""The re-lex and re-parse of an edited text against a full lex and parse, and the fix loop that uses them.

`fix` keeps each file's first lex and declarations; the re-check lexes a
fixed file again only around its edits (`relex.relex`) and keeps each
declaration whose tokens were all copied (`relex.Kept`). Whatever the
text and the edits, that lex must equal `tokenize` of the new text in all
four lists, and that parse must equal `parse` of the new text: the same
model, the same diagnostics, and every span the same in all seven
fields, line and column included (spans are outside a model's `==`).
These tests check it on random texts with random edits, on every fixture
with its own fix edits and on the benchmark workloads with theirs, and
they run `fix --apply` on malformed fixture mutants: its exit code and
its re-check must agree with a fresh `check` of the file it wrote.
"""

import contextlib
import io
import random
import shutil
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rslkit.parser
from conftest import FIXTURES
from make_workload_digests import gen
from rslkit import cli
from rslkit.cli import check_all, collect_fix_edits, main
from rslkit.lexer import tokenize
from rslkit.model import SourceSpan, TextEdit, apply_edits
from rslkit.parser import parse
from rslkit.relex import Lex
from rslkit.workspace import Workspace, add_system, load_workspace
from test_lexer import RELEX_PIECES
from test_parser_oracle import FIXTURE_TEXTS, all_spans, mutate


def lists(tokens):
    return tokens.kinds, tokens.texts, list(tokens.starts), list(tokens.ends)


def relexed(old: str, edits: list, new: str):
    """The tokens of `new` from a lex of `old` kept in a `Lex`, after `edits`."""
    lex = Lex()
    tokenize(old, "f.rsl", lex)
    lex.edits = edits
    tokens = tokenize(new, "f.rsl", lex)
    assert lex.tokens is None and lex.edits is None  # the old lex is not kept past its use
    return tokens


def assert_relex_equals_tokenize(old: str, edits: list, new: str):
    assert lists(relexed(old, edits, new)) == lists(tokenize(new, "f.rsl")), (old, new)


def reparsed(old: str, edits: list, new: str, read_lines: bool = False):
    """The parse of `new` from a parse of `old` kept in a `Lex`, after `edits`.

    With `read_lines`, every span of the first parse has its line and
    column read before the re-parse, as a check's report would.
    """
    lex = Lex()
    first = parse(old, "f.rsl", lex)
    if read_lines:
        repr((all_spans(first[0]), first[1]))  # a span's repr() reads its line and column
    lex.edits = edits
    result = parse(new, "f.rsl", lex)
    assert lex.decls is None and lex.runs is None  # the first parse is not kept past its use
    return result


def assert_same_parse(got, want, context=None):
    """The same model and diagnostics, every span equal in all seven fields."""
    (model, diags), (full, full_diags) = got, want
    assert diags == full_diags, context
    assert model == full, context
    assert all_spans(model) == all_spans(full), context
    assert [e is model.language_decl for e in model.elements] == [e is full.language_decl for e in full.elements]


def assert_reparse_equals_parse(old: str, edits: list, new: str, read_lines: bool = False):
    assert_same_parse(reparsed(old, edits, new, read_lines), parse(new, "f.rsl"), (old, new))


def edit(start: int, end: int, text: str) -> TextEdit:
    return TextEdit(SourceSpan("f.rsl", 1, 1, 1, 1, start, end - start), text)


def edited(old: str, edits: list) -> str:
    """`old` with sorted, non-overlapping `edits` applied, insertions at one point in list order."""
    out, at = [], 0
    for e in edits:
        out += [old[at : e.span.offset], e.new_text]
        at = e.span.end_offset
    return "".join(out) + old[at:]


@st.composite
def text_and_edits(draw):
    text = draw(st.lists(st.sampled_from(RELEX_PIECES), max_size=40).map("".join))
    n = len(text)
    # Offset 0 and the end of the text come up often: an edit there moves the
    # byte-order mark or the end of input.
    offset = st.one_of(st.just(0), st.just(n), st.integers(0, n))
    points = sorted(draw(st.lists(offset, max_size=8)))
    replacement = st.lists(st.sampled_from(RELEX_PIECES), max_size=3).map("".join)
    edits = [edit(a, b, draw(replacement)) for a, b in zip(points[::2], points[1::2])]
    return text, edits


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(text_and_edits())
@example(("Actor a // tail", [edit(15, 15, "x")]))  # a comment at the end of the file, extended
@example(('"a\\" b" c', [edit(2, 3, "")]))  # an escape removed: the string now ends early
@example(('x "open\r\ny', [edit(7, 8, "")]))  # the "\r" that ended an unclosed string removed
@example(("\ufeffActor a", [edit(0, 1, "")]))  # the byte-order mark deleted
@example(("Actor a", [edit(0, 0, "\ufeff")]))  # a byte-order mark inserted
@example(("é² ٣x 12²", [edit(1, 2, ""), edit(4, 4, "a")]))  # non-ASCII words and digit runs joined and split
@example(("a b c d e", [edit(2, 3, "bb"), edit(6, 7, "")]))  # two edits whose shifts cancel out
def test_relex_equals_tokenize(case):
    old, edits = case
    assert_relex_equals_tokenize(old, edits, edited(old, edits))


def test_a_resync_must_shift_old_offsets():
    """After the insertion, "x" ends at 4, where "yy" ended before: not a resync point, since "x" ended at 1."""
    old = "x yy z"
    edits = [edit(0, 0, "ww ")]
    assert_relex_equals_tokenize(old, edits, edited(old, edits))


# Whole declarations, each ending in a newline, and the pieces that break
# them: stray brackets, unclosed strings, a second LinguisticLanguage.
DECL_PIECES = [
    'Actor a_1 "A" : User [ description "d" ]\n',
    "Actor a_2 : System [ isA a_1 ]\n",
    "LinguisticLanguage l_1 : English\n",
    'LinguisticLanguage l_2 : Portuguese [ description "x" ]\n',
    'DataEntity e_1 : Master [ attribute id "Id" : Integer [ constraints (PrimaryKey) ] attribute id "X" : String ]\n',
    "UseCase uc_1 : Create [ primaryActor a_1 dataEntity e_1 extends uc_2 onExtensionPoint p ]\n",
    'Term t_1 "Word" : Noun [ synonyms "word", "term" ]\n',
    'LinguisticRule r_1 : Syntax [ property UseCase.name pattern Verb + (Noun | "x") ]\n',
    "LinguisticRule r_2 : Syntax [ severity Warning ]\n",
    "Include Actor fromSystem S element a_1\n",
    "IncludeAll fromSystem T\n",
    "[",
    "]",
    '"open ',
    "\n",
    " ",
    "// note\n",
    "Actor",
    "x_1",
    ":",
    "@",
]


@st.composite
def spec_and_edits(draw):
    text = draw(st.lists(st.sampled_from(DECL_PIECES), max_size=12).map("".join))
    # Most edit ends fall on token boundaries: on a declaration's first
    # token, on the token that ended it, or between two of its tokens.
    tokens = tokenize(text)
    boundary = st.sampled_from(sorted({*tokens.starts, *tokens.ends}))
    points = sorted(draw(st.lists(st.one_of(boundary, st.integers(0, len(text))), max_size=6)))
    replacement = st.lists(st.sampled_from(DECL_PIECES), max_size=2).map("".join)
    edits = [edit(a, b, draw(replacement)) for a, b in zip(points[::2], points[1::2])]
    return text, edits, draw(st.booleans())


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(spec_and_edits())
@example(("Actor a\nActor b\n", [edit(8, 13, "[")], False))  # the token that ended `Actor a` now opens its body
@example(("Actor a [ ]\nActor b\n", [edit(12, 17, "Term")], False))  # a declaration's first token replaced
@example(("Actor a\nActor b\n", [edit(0, 0, "\n\n")], False))  # the kept `Actor b` moves down two lines
@example(("Actor a\nActor b\n", [edit(0, 0, "\n\n")], True))  # ... with its old line and column read first
@example(('Actor a "x\nActor b\nActor c\n', [edit(10, 10, '"')], False))  # an unclosed string closed
@example(
    # The second LinguisticLanguage is no longer a duplicate, so recovery no longer skips the stray bracket after it.
    ("LinguisticLanguage l : English\nLinguisticLanguage m : English\n[ Actor x ]\nActor b\n", [edit(0, 31, "")], False)
)
@example(
    # A LinguisticLanguage inserted before one that was not a duplicate.
    ("Actor a\nLinguisticLanguage m : English\n[ Actor x ]\nActor b\n", [edit(0, 0, "LinguisticLanguage l\n")], False)
)
def test_reparse_equals_parse(case):
    old, edits, read_lines = case
    assert_reparse_equals_parse(old, edits, edited(old, edits), read_lines)


def fix_edits(files: dict, targets: list[str]) -> dict:
    """File -> its fix edits, created elements included, in the order `fix` passes them to the re-lex."""
    ws = Workspace()
    for name, (text, file) in files.items():
        add_system(ws, name, text, file)
    per_file, _ = collect_fix_edits(check_all(ws, targets, {}), create_missing=True)
    return per_file


def test_fixtures_with_their_own_fix_edits():
    files = {Path(name).stem: (text, name) for name, text in FIXTURE_TEXTS.items()}
    files["SystemRules"] = files.pop("system_rules")
    relexed_files = 0
    for file, edits in fix_edits(files, list(files)).items():
        old = FIXTURE_TEXTS[file]
        assert_relex_equals_tokenize(old, edits, apply_edits(old, edits))
        assert_reparse_equals_parse(old, edits, apply_edits(old, edits))
        relexed_files += 1
    assert relexed_files >= 2


@contextlib.contextmanager
def checked_relexes():
    """Compare every re-lex and re-parse the program runs with a full lex and parse of the same text.

    Yields the count of re-lexes; each was part of a re-parse that was compared too.
    """
    count = [0]
    real_tokenize, real_parse = rslkit.parser.tokenize, rslkit.parser.parse

    def tokenize(source, file="<memory>", lex=None):
        again = lex is not None and lex.tokens is not None and lex.edits is not None
        tokens = real_tokenize(source, file, lex)
        if again:
            assert lists(tokens) == lists(real_tokenize(source, file)), file
            count[0] += 1
        return tokens

    def parse(source, file="<memory>", lex=None):
        again = lex is not None and lex.tokens is not None and lex.edits is not None
        result = real_parse(source, file, lex)
        if again:
            assert_same_parse(result, real_parse(source, file), file)
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rslkit.parser, "tokenize", tokenize)
        mp.setattr(rslkit.parser, "parse", parse)
        yield count


@pytest.mark.parametrize("scale", ["0.5", "1", "2"])
@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_workloads_with_their_own_fix_edits(workload, scale, tmp_path, monkeypatch):
    wl = gen.make(workload, 901, scale=float(scale))
    for rel, text in wl.files.items():
        (tmp_path / rel).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    with checked_relexes() as relexes, contextlib.redirect_stdout(io.StringIO()):
        main(["fix", "--apply", *wl.inputs])
    assert relexes[0] >= 1


# --- fix --apply on malformed input ------------------------------------------------

SYSTEM_RULES = ["--system", "SystemRules=system_rules.rsl"]
POOL = sorted({t for text in FIXTURE_TEXTS.values() for t in tokenize(text).texts} - {""}) + [
    "[",
    "]",
    '"unterminated',
    "@",
]


def inject(text: str, kind: str, rng: random.Random) -> str:
    """One malformed piece at a random token boundary (a byte-order mark goes first)."""
    if kind == "byte-order mark":
        return "\ufeff" + text
    if kind == "comment at end":
        return text.rstrip("\n") + " // " + rng.choice(POOL)
    at = rng.choice(tokenize(text).starts)
    piece = {"unclosed string": '"open ', "comment": "// note\n", "stray bracket": rng.choice([" [ ", " ] "])}[kind]
    return text[:at] + piece + text[at:]


KINDS = ["unclosed string", "comment", "comment at end", "byte-order mark", "stray bracket", "token edits"]


def run_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def test_fix_apply_on_malformed_mutants_agrees_with_a_fresh_check(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    shutil.copy(FIXTURES / "system_rules.rsl", tmp_path)
    rechecks = []

    def recorded_check_all(*args):
        diags = check_all(*args)
        rechecks.append(diags)
        return diags

    monkeypatch.setattr(cli, "check_all", recorded_check_all)
    reached = dict.fromkeys(KINDS, 0)
    names = [name for name in FIXTURE_TEXTS if name != "system_rules.rsl"]
    for seed in range(150):
        rng = random.Random(seed)
        name, kind = names[seed % len(names)], KINDS[seed // len(names) % len(KINDS)]  # every pairing
        text = FIXTURE_TEXTS[name]
        text = mutate(text, rng, POOL) if kind == "token edits" else inject(text, kind, rng)
        path = tmp_path / name
        path.write_bytes(text.encode("utf-8"))
        extra = SYSTEM_RULES if name == "billing_include.rsl" else []
        rechecks.clear()
        with checked_relexes() as relexes:
            code = run_quietly(["fix", "--apply", "--create-missing", name, *extra])
        reached[kind] += relexes[0] > 0
        # The exit code is that of a fresh check of the file written, and the
        # re-check found what a fresh parse of that text finds.
        assert code == run_quietly(["check", name, *extra]), (seed, kind)
        files = [(path.stem, name)] + ([("SystemRules", "system_rules.rsl")] if extra else [])
        assert rechecks[1] == check_all(load_workspace(files), [path.stem], {}), (seed, kind)
    assert all(reached.values()), reached
