"""Demand-driven workspace loading: parse counts and equivalence with the eager loader."""

import contextlib
import io
import json
import random
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import rslkit.parser
from oracles import oracle_build_workspace
from rslkit import cli
from rslkit.workspace import MAX_INCLUDE_DEPTH

GHOST = "Ghost"  # a system id no manifest entry names


def build_plan(pick) -> dict:
    """Random multi-system workspace; `pick(lo, hi)` draws an int in [lo, hi].

    Systems S0..Sn-1 link to each other (or to an unknown system) by
    Import, Include and IncludeAll, which also yields include cycles; an
    optional chain of systems runs deeper than MAX_INCLUDE_DEPTH; some
    systems carry defects, and some an unreferenced parse error.
    """
    n = pick(1, 5)

    def other():
        j = pick(0, n)
        return GHOST if j == n else f"S{j}"

    systems = {}
    for i in range(n):
        lines = []
        for _ in range(pick(0, 3)):
            mode = pick(0, 2)
            target = other()
            if mode == 0:
                lines.append(f"Import fromSystem {target}")
            elif mode == 1:
                element = f"e_{target[1:]}" if pick(0, 3) else "e_missing"
                lines.append(f"Include DataEntity fromSystem {target} element {element}")
            else:
                lines.append(f"IncludeAll fromSystem {target}")
        if i == 0 and pick(0, 1):
            lines.append("IncludeAll fromSystem D0")
        lines += [
            f'Actor a_{i} "Clerk" : User',
            f'DataEntity e_{i} "Invoice" : Document',
            f'UseCase uc_{i} "Create Invoice" : EntityCreate [\n  primaryActor a_{i}\n  dataEntity e_{i}\n]',
        ]
        if pick(0, 2) == 0:
            lines.append(f'DataEntity e_{i} "Receipt" : Document')
        if pick(0, 2) == 0:
            lines.append(f'Actor c_{i} "Customer" : User [isA d_{i}]\n\nActor d_{i} "Buyer" : User [isA c_{i}]')
        if pick(0, 2) == 0:
            actor = f"a_{pick(0, n - 1)}"
            lines.append(f'UseCase uc_{i}_x "Print Invoice" : EntityPrint [\n  primaryActor {actor}\n]')
        if pick(0, 2) == 0:
            lines.append(
                f'LinguisticRule lr_{i} "Use case name" : Syntax [\n  property UseCase.name\n'
                "  pattern Verb + (DataEntity.name)\n  severity Error\n]"
            )
            lines.append(f'UseCase uc_{i}_y "Archive Ledger" : EntityOther [\n  primaryActor a_{i}\n]')
        if pick(0, 3) == 0:
            lines.append("Actor @@ broken [")
        systems[f"S{i}"] = "\n\n".join(lines) + "\n"
    for k in range(MAX_INCLUDE_DEPTH + 2):
        systems[f"D{k}"] = f"IncludeAll fromSystem D{k + 1}\n\nActor a_d{k} \"Clerk\" : User\n"
    targets = sorted({f"S{pick(0, n - 1)}" for _ in range(pick(1, n))})
    return {"systems": systems, "targets": targets}


def write_plan(plan: dict, root: Path) -> list[str]:
    """Writes one file per system plus a manifest; returns the shared CLI arguments."""
    for name, text in plan["systems"].items():
        (root / f"{name.lower()}.rsl").write_text(text, encoding="utf-8")
    manifest = root / "manifest.txt"
    manifest.write_text("".join(f"{name}={name.lower()}.rsl\n" for name in plan["systems"]))
    return ["--manifest", str(manifest), *(str(root / f"{t.lower()}.rsl") for t in plan["targets"])]


def run_cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def outcomes(plan: dict, root: Path) -> list:
    """Exit code, stdout, stderr (and generated file) of check, fix and gen on the plan."""
    args = write_plan(plan, root)
    out = root / "out.json"
    out.unlink(missing_ok=True)
    results = [
        run_cli(["check", "--format", "json", *args]),
        run_cli(["fix", "--dry-run", "--create-missing", *args]),
    ]
    results.append((run_cli(["gen", "json", *args, "-o", str(out)]), out.exists() and out.read_text()))
    return results


def assert_same_as_eager(plan: dict) -> list:
    with tempfile.TemporaryDirectory() as tmp:
        lazy = outcomes(plan, Path(tmp))
        with mock.patch.object(cli, "build_workspace", oracle_build_workspace):
            eager = outcomes(plan, Path(tmp))
    assert lazy == eager
    return lazy


def test_seeded_workspaces_match_eager_loader():
    codes = Counter()
    for seed in range(40):
        (_code, report, _), _fix, _gen = assert_same_as_eager(build_plan(random.Random(seed).randint))
        for entry in json.loads(report)["files"]:
            codes.update(d["code"] for d in entry["diagnostics"])
    # The plans reach every resolution outcome, parse errors and fixable defects.
    for code in ("RSL-R001", "RSL-R002", "RSL-R003", "RSL-R004", "RSL-S002", "RSL-I001", "RSL-V001", "RSL-L001"):
        assert codes[code], code


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_generated_workspaces_match_eager_loader(data):
    assert_same_as_eager(build_plan(lambda lo, hi: data.draw(st.integers(lo, hi))))


def test_fix_apply_exit_matches_a_fresh_check():
    for seed in range(15):
        plan = build_plan(random.Random(seed).randint)
        with tempfile.TemporaryDirectory() as tmp:
            args = write_plan(plan, Path(tmp))
            fixed, _, _ = run_cli(["fix", "--apply", "--create-missing", *args])
            fresh, _, _ = run_cli(["check", *args])
        assert fixed == fresh, seed


# --- parse counts ------------------------------------------------------------------

@contextlib.contextmanager
def counted_parses():
    """Counts `rslkit.parser.parse` calls per file name."""
    calls = Counter()
    real = rslkit.parser.parse

    def parse(source, file="<memory>", lex=None):
        calls[Path(file).name] += 1
        return real(source, file, lex)

    with mock.patch.object(rslkit.parser, "parse", parse):
        yield calls


LIBRARY = {
    "main.rsl": "Import fromSystem Lib\n\nInclude Actor fromSystem Core element a_core\n\nActor a_1 \"Clerk\" : User\n",
    "core.rsl": "IncludeAll fromSystem Base\n\nActor a_core \"Clerk\" : User\n",
    "base.rsl": "DataEntity e_base \"Invoice\" : Document\n",
    "lib.rsl": "Actor a_lib \"Manager\" : User\n",
    "other.rsl": "Import fromSystem Lib\n\nActor a_2 \"Clerk\" : User\n",
    "broken.rsl": "Actor @@ [\n",
}


def library(tmp_path) -> Path:
    for name, text in LIBRARY.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("".join(f"{Path(n).stem.title()}={n}\n" for n in LIBRARY))
    return manifest


def test_gen_parses_only_the_target_closure(tmp_path):
    manifest = library(tmp_path)
    with counted_parses() as calls:
        code, _, _ = run_cli(["gen", "json", str(tmp_path / "main.rsl"), "--manifest", str(manifest),
                              "-o", str(tmp_path / "out.json")])
    assert code == 0
    assert calls == Counter({"main.rsl": 1, "lib.rsl": 1, "core.rsl": 1, "base.rsl": 1})


def test_fix_recheck_parses_only_changed_systems(tmp_path):
    manifest = library(tmp_path)
    targets = [str(tmp_path / "main.rsl"), str(tmp_path / "other.rsl")]
    with counted_parses() as calls:
        code, out, _ = run_cli(["fix", "--dry-run", *targets, "--manifest", str(manifest)])
    assert code == 0 and "+++" in out
    # main.rsl loses its Include (RSL-I001 fix); other.rsl has nothing to fix.
    assert calls == Counter({"main.rsl": 2, "other.rsl": 1, "lib.rsl": 1, "core.rsl": 1, "base.rsl": 1})


def test_undecodable_entry_outside_the_closure_is_still_a_usage_error(tmp_path):
    manifest = library(tmp_path)
    (tmp_path / "broken.rsl").write_bytes(b'Actor a_x "Caf\xe9" : User\n')
    with counted_parses() as calls:
        code, _, err = run_cli(["gen", "json", str(tmp_path / "main.rsl"), "--manifest", str(manifest),
                                "-o", str(tmp_path / "out.json")])
    assert code == 2
    assert f"error: cannot read '{tmp_path / 'broken.rsl'}'" in err
    assert not calls
    assert not (tmp_path / "out.json").exists()

