"""Malformed input files other than specs: a manifest, the shipped lexicon and suffix rules, and a template.

A seeded corpus mutates each of these inputs with the pieces its format
gives meaning to (tabs, `:`, `=`, `#`, UPOS names, template braces),
with line breaks of every kind, NUL, a byte-order mark, deletions and a
byte that is not UTF-8. Every run must end in a documented exit code
(README: 0, 1 or 2) with no traceback, and a usage error (2) must be
reported on stderr as `error: ...`. Each input must also be both
accepted and rejected at least five times, so that the corpus keeps
reaching the code behind the first format check.
"""

import contextlib
import io
import random
import shutil
from importlib.resources import files

import pytest

from conftest import FIXTURES
from rslkit.cli import main

SHIPPED = files("rslkit.data")
MANIFEST = "# systems\nSystemRules = system_rules.rsl\nClean=billing_clean.rsl\n"
INPUTS = {
    # input -> (file name, original text, argv)
    "manifest": ("systems.txt", MANIFEST, ["check", "--manifest", "systems.txt", "billing_include.rsl"]),
    "lexicon": (
        "en.tsv",
        SHIPPED.joinpath("en.tsv").read_text(encoding="utf-8"),
        ["check", "billing_clean.rsl", "--lexicon", "English=en.tsv"],
    ),
    "suffix rules": (
        "en.tsv.rules",
        SHIPPED.joinpath("en.rules").read_text(encoding="utf-8"),
        ["fix", "--dry-run", "billing_defects.rsl", "--lexicon", "English=en.tsv"],
    ),
    "template": (
        "usecases.tpl",
        (FIXTURES / "usecases.tpl").read_text(encoding="utf-8"),
        ["gen", "template", "billing_clean.rsl", "--template", "usecases.tpl", "-o", "out.txt"],
    ),
}
PIECES = (
    ["\t", " ", "-", ":", "=", "#", ",", ".", '"', "\\", "/", "é", "٣", "9" * 30]
    + ["\r", "\n", "\r\n", "\x00", "\ufeff", "\x85", "\u2028"]
    + ["NOUN", "VERB", "PROPN", "X", "-ing\tVERB\t:", "ing", "-"]
    + ["{", "}", "{#", "{/", "{^", "{{", "}}", "(", ")", "[", "]", "?", "!", "+", "==", "length(", "name"]
)


def mutate(text: str, rng: random.Random) -> bytes:
    """One to three edits: insert a piece, delete a run, or copy a line elsewhere; now and then a byte that is not UTF-8."""
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(text) + 1)
        op = rng.choice(("insert", "insert", "delete", "copy"))
        if op == "insert":
            text = text[:at] + rng.choice(PIECES) + text[at:]
        elif op == "delete":
            text = text[:at] + text[at + rng.randint(1, 12) :]
        else:
            lines = text.splitlines(keepends=True) or [""]
            text = text[:at] + rng.choice(lines) + text[at:]
    data = text.encode("utf-8")
    if rng.random() < 0.05:
        at = rng.randrange(len(data) + 1)
        data = data[:at] + b"\xff" + data[at:]
    return data


@pytest.mark.parametrize("kind", list(INPUTS))
def test_mutated_inputs_end_in_a_documented_exit_code(kind, tmp_path, monkeypatch):
    for name in ("billing_clean.rsl", "billing_defects.rsl", "billing_include.rsl", "system_rules.rsl"):
        shutil.copy(FIXTURES / name, tmp_path)
    (tmp_path / "en.tsv").write_text(INPUTS["lexicon"][1], encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    file, original, argv = INPUTS[kind]
    codes = []
    for seed in range(150):
        (tmp_path / file).write_bytes(mutate(original, random.Random(f"{kind} {seed}")))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), (seed, code)
        if code == 2:
            assert err.getvalue().startswith("error: "), (seed, err.getvalue())
        codes.append(code)
    assert codes.count(2) >= 5 and len(codes) - codes.count(2) >= 5, codes
