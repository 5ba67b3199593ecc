"""Start-up budget: what `import rslkit.cli` loads, and the names the trace hooks wrap."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import rslkit
from conftest import FIXTURES
from rslkit.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(rslkit.__file__).resolve().parents[1])
# Loaded only by the commands that use them: records replace dataclasses,
# only `gen template` needs the template engine, only `fix --dry-run` a diff.
NOT_AT_STARTUP = ("dataclasses", "rslkit.template", "difflib")


def test_cli_import_leaves_out_what_only_some_commands_use():
    code = f"import sys, rslkit.cli; print(' '.join(m for m in {NOT_AT_STARTUP!r} if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == []


def test_every_trace_hook_names_a_callable():
    spec = importlib.util.spec_from_file_location("tracehooks", ROOT / "perfbench" / "tracehooks.py")
    tracehooks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracehooks)
    for _layer, module, name, _count in tracehooks.HOOKS:
        assert callable(getattr(importlib.import_module(module), name, None)), f"{module}.{name}"


def test_gen_template_output_is_unchanged(tmp_path, capsys):
    out = tmp_path / "usecases.txt"
    argv = ["gen", "template", str(FIXTURES / "billing_clean.rsl"), "--template", str(FIXTURES / "usecases.tpl")]
    assert main(argv + ["-o", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == (
        "Use cases (many):\n"
        "- Manage Invoices [EntitiesManage] actor=Manager actions=aClose, aSearch, aFilter\n"
        "- Browse Invoices To Approve [EntitiesBrowse] actor=Manager actions=aClose, aSearch, aFilter\n"
        "- Print Invoice [EntityPrint] actor=Operator actions=aPrint, aClose\n"
        "- Create Customer [EntityCreate] actor=Operator actions=aSave, aCancel\n"
        "- Pay Invoice [EntityUpdate] actor=Customer actions=aPay\n"
    )
