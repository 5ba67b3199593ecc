"""The README against the source: its diagnostic-code table, and its module table and count."""

import os
import re
import subprocess
import sys
from pathlib import Path

from test_startup import PLAIN_CHECK_MODULES, SRC

ROOT = Path(__file__).resolve().parent.parent


def test_diagnostic_table_lists_every_emitted_code():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = re.findall(r"^\| `(RSL-[A-Z]\d{3})` \|", readme, re.MULTILINE)
    emitted = {
        code
        for path in sorted((ROOT / "src" / "rslkit").glob("*.py"))
        for code in re.findall(r'"(RSL-[A-Z]\d{3})"', path.read_text(encoding="utf-8"))
    }
    assert len(table) == len(set(table)), "a code is listed twice"
    assert set(table) == emitted
    assert len(emitted) == 19


def test_module_count_names_what_a_plain_check_loads():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (counts,) = re.findall(r"compiles\s+(\d+)\s+of\s+the\s+package's\s+(\d+)\s+modules", readme)
    modules = {f"rslkit.{p.stem}".removesuffix(".__init__") for p in (ROOT / "src" / "rslkit").glob("*.py")}
    assert set(PLAIN_CHECK_MODULES) <= modules
    assert counts == (str(len(PLAIN_CHECK_MODULES)), str(len(modules)))


def test_module_table_rows_for_every_command_and_a_plain_check():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("| modules | loaded by |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    rows = {}
    for line in table.splitlines():
        names, loaded_by = line.strip("| ").split(" | ")
        rows[loaded_by] = re.findall(r"`(\w+)`", names)
    package = {p.stem for p in (ROOT / "src" / "rslkit").glob("*.py")}
    every = rows.pop("every command")
    plain = {f"rslkit.{name}" for name in every + rows["`check --format json`"] if name in package}
    assert sorted(plain | {"rslkit"}) == PLAIN_CHECK_MODULES
    # A standard-library module the table names loads with every command exactly when its row says so.
    stdlib = {name for names in [every, *rows.values()] for name in names if name not in package}
    code = f"import sys, rslkit.cli; print(' '.join(m for m in {sorted(stdlib)!r} if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == sorted(name for name in every if name not in package)
