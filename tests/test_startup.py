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
# Loaded by no command: the shipped lexicons are read by path, because on
# Python 3.12+ `importlib.resources` imports `inspect` (and `ast`, `dis`, ...).
NEVER_LOADED = ("importlib.resources", "inspect")


def test_cli_import_leaves_out_what_only_some_commands_use():
    code = f"import sys, rslkit.cli; print(' '.join(m for m in {NOT_AT_STARTUP!r} if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == []


def test_cli_import_leaves_out_importlib_resources_and_inspect():
    # -S as well as -I: `site` can load importlib.resources itself, through a .pth file.
    code = (
        f"import sys; sys.path.insert(0, {SRC!r}); import rslkit.cli; "
        f"print(' '.join(m for m in {NEVER_LOADED!r} if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True)
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


def test_checking_an_empty_spec_loads_no_lexicon(tmp_path):
    empty = tmp_path / "empty.rsl"
    empty.write_text("", encoding="utf-8")
    code = (
        "from rslkit.cli import main; from rslkit.lexicon import builtin_lexicon; "
        f"code = main(['check', {str(empty)!r}]); print(code, builtin_lexicon.cache_info().currsize)"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split()[-2:] == ["0", "0"]
