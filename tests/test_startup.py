"""Start-up budget: what `import rslkit` and each command load, and the names the trace hooks wrap.

A command compiles every module it imports when there is no bytecode
cache, so each module a command does not run is start-up time wasted.
These tests run each command in a fresh interpreter and read
`sys.modules` there.
"""

import ast
import contextlib
import importlib
import importlib.util
import io
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import rslkit
from conftest import FIXTURES
from make_golden import OUTPUTS
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


def load_trace_hooks():
    spec = importlib.util.spec_from_file_location("tracehooks", ROOT / "perfbench" / "tracehooks.py")
    tracehooks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracehooks)
    return tracehooks.HOOKS


def test_every_trace_hook_names_a_callable():
    for _layer, module, name, _count in load_trace_hooks():
        assert callable(getattr(importlib.import_module(module), name, None)), f"{module}.{name}"


def test_every_trace_hook_is_called_where_the_trace_wraps_it(tmp_path, monkeypatch):
    # A module that loads lazily must still call each hooked name through the
    # module the trace wraps it in; a local `from .x import f` would go round
    # the wrapper, and the trace would read that layer as 0.
    calls = Counter()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    hooks = {(module, name) for _layer, module, name, _count in load_trace_hooks()}
    for module, name in hooks:
        target = importlib.import_module(module)
        monkeypatch.setattr(target, name, counted((module, name), getattr(target, name)))
    shutil.copytree(FIXTURES, tmp_path, dirs_exist_ok=True)
    monkeypatch.chdir(tmp_path)
    include = ["billing_include.rsl", "--system", "SystemRules=system_rules.rsl"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["check", "--format", "json", "billing_defects.rsl"]) == 1
        assert main(["check", *include]) == 0
        assert main(["fix", "--dry-run", "billing_defects.rsl"]) == 1
        for kind in ("json", "text"):
            assert main(["gen", kind, "billing_clean.rsl", "-o", f"out.{kind}"]) == 0
        assert main(["gen", "template", "billing_clean.rsl", "--template", "usecases.tpl", "-o", "out.txt"]) == 0
    assert sorted(hook for hook in hooks if calls[hook] == 0) == []


CHILD = """
import contextlib, io, json, sys
from rslkit.cli import main
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = main(sys.argv[1:])
modules = sorted(m for m in sys.modules if m == "rslkit" or m.startswith("rslkit."))
print(json.dumps({"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "modules": modules}))
"""


def run_in_fresh_interpreter(argv: list[str], cwd: Path) -> dict:
    """`main(argv)` in a new process: its exit code, stdout, stderr and the rslkit modules it loaded (`rslkit` too)."""
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run(
        [sys.executable, "-c", CHILD, *argv], cwd=cwd, env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


# Every rslkit module that `check --format json` of a spec without rules, synonyms or includes loads;
# README's "compiles N of the package's M modules" counts these (tests/test_readme.py).
PLAIN_CHECK_MODULES = [
    "rslkit",
    "rslkit.checks",
    "rslkit.cli",
    "rslkit.jsonwriter",
    "rslkit.lexer",
    "rslkit.model",
    "rslkit.parser",
    "rslkit.workspace",
]


def test_check_of_an_empty_spec_loads_only_the_modules_it_runs(tmp_path):
    (tmp_path / "empty.rsl").write_text("", encoding="utf-8")
    run = run_in_fresh_interpreter(["check", "--format", "json", "empty.rsl"], tmp_path)
    assert run["exit"] == 0
    assert json.loads(run["stdout"]) == {"version": 1, "files": [{"path": "empty.rsl", "diagnostics": []}]}
    assert run["modules"] == PLAIN_CHECK_MODULES


@pytest.mark.parametrize(
    "name", ["check --format json billing_defects.rsl", "check --format json billing_include.rsl"]
)
def test_a_spec_with_rules_loads_them_and_reports_as_before(name, tmp_path):
    golden = json.loads(OUTPUTS.read_text(encoding="utf-8"))[name]
    shutil.copytree(FIXTURES, tmp_path, dirs_exist_ok=True)
    run = run_in_fresh_interpreter(golden["argv"], tmp_path)
    assert (run["exit"], run["stdout"], run["stderr"]) == (golden["exit"], golden["stdout"], golden["stderr"])
    assert {"rslkit.lexicon", "rslkit.rules"} <= set(run["modules"])


def test_import_rslkit_loads_no_submodule_and_every_public_name_resolves():
    code = (
        "import sys, rslkit; loaded = [m for m in sys.modules if m.startswith('rslkit.')]; "
        "names = [n for n in rslkit.__all__ if getattr(rslkit, n, None) is None]; "
        "space = {}; exec('from rslkit import *', space); "
        "print(loaded, names, sorted(set(rslkit.__all__) - set(space)))"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["[]", "[]", "[]"]
    assert rslkit.parse is importlib.import_module("rslkit.parser").parse
    assert rslkit.print_model is importlib.import_module("rslkit.printer").print_model
    with pytest.raises(AttributeError):
        rslkit.no_such_name


def test_no_module_imports_typing():
    # Every module that annotates has `from __future__ import annotations`,
    # so no annotation is evaluated and `X | None` needs no `typing`.
    for path in sorted((ROOT / "src" / "rslkit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not [m for m in modules if m.partition(".")[0] == "typing"], (path.name, node.lineno)


AUDIT = """
import sys
seen = []
def hook(event, args):
    # Module source compiles and runs under its file name; only generated source is `<string>`.
    if event == "compile":
        name = args[1]
    elif event == "exec":
        name = getattr(args[0], "co_filename", "")
    else:
        return
    if name == "<string>":
        seen.append(event)
sys.addaudithook(hook)
import rslkit.cli
print(len(seen))
"""


def test_cli_import_compiles_and_runs_no_generated_source():
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", AUDIT], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0"]


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


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="from 3.13 `jsonwriter` writes with `json.dumps`")
def test_gen_template_loads_no_json_package(tmp_path):
    argv = ["gen", "template", "billing_clean.rsl", "--template", "usecases.tpl", "-o", str(tmp_path / "out.txt")]
    code = f"import sys; from rslkit.cli import main; code = main({argv!r}); print(code, 'json' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", code], cwd=FIXTURES, env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split()[-2:] == ["0", "False"]


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
