"""The garbage-collector policy of one CLI run, and the premises that make it safe.

`cli.main` collects the youngest generation rarely while a command runs,
then gives its caller back the GC thresholds it found. At that
threshold, no collection starts while a command runs on a benchmark
workload at half size. Collecting rarely costs no memory only because
a run leaves a constant amount of cyclic garbage, whatever the size of
the spec; two tests pin that, and one that rendering a template leaves
none.

A command run as a process, by `python -m rslkit.cli` or by the `rslkit`
console script, exits with its heap frozen, so the collections the
interpreter runs at exit have next to nothing to scan.
"""

import ast
import contextlib
import gc
import importlib.util
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rslkit.cli
from conftest import fixture_path
from rslkit.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _load_gen():
    """perfbench/gen.py, loaded read-only as tests/make_workload_digests.py does."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up by name
    spec.loader.exec_module(module)
    return module


def gc_state():
    return gc.get_threshold(), gc.isenabled(), gc.get_freeze_count()


@pytest.fixture
def restore_gc():
    before = gc.get_threshold(), gc.isenabled()
    yield
    gc.set_threshold(*before[0])
    gc.enable() if before[1] else gc.disable()
    gc.unfreeze()


@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_gc_state_as_it_found_it(frozen, enabled, restore_gc, capsys):
    gc.set_threshold(1234, 7, 9)
    gc.enable() if enabled else gc.disable()
    if frozen:
        gc.freeze()
    before = gc_state()
    assert main(["check", fixture_path("billing_defects.rsl")]) == 1
    assert gc_state() == before
    assert main(["no-such-command"]) == 2
    assert gc_state() == before


@pytest.mark.parametrize("name", ["lint_single", "workspace_fanout", "fix_and_emit"])
def test_no_collection_starts_while_a_command_runs(name, tmp_path, monkeypatch, restore_gc):
    workload = _load_gen().make(name, 901, 0.5)
    for rel, text in workload.files.items():
        (tmp_path / rel).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    for argv, expected in [
        (["check", "--format", "json", *workload.inputs], workload.check_exit),
        (["gen", "json", *workload.gen_inputs, "-o", "out.json"], 0),
        (["fix", "--apply", *workload.inputs], workload.fix_exit),  # last: it rewrites the inputs
    ]:
        gc.collect()  # a process reaches `main` with fewer than 700 objects in its young generation
        gc.callbacks.append(count)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == expected
        finally:
            gc.callbacks.remove(count)
        assert starts == [], (argv[0], starts)


def cyclic_garbage(workload, workdir, monkeypatch, gen_json=False) -> int:
    """Objects in reference cycles that `check --format json`, or `gen json`, leaves unreachable, with GC disabled."""
    if gen_json:
        argv, expected = ["gen", "json", *workload.gen_inputs, "-o", "out.json"], 0
    else:
        argv, expected = ["check", "--format", "json", *workload.inputs], workload.check_exit
    workdir.mkdir()
    for rel, text in workload.files.items():
        (workdir / rel).write_text(text, encoding="utf-8")
    monkeypatch.chdir(workdir)
    gc.collect()
    gc.disable()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == expected
    finally:
        garbage = gc.collect()
        gc.enable()
    return garbage


def test_a_run_leaves_the_same_cyclic_garbage_at_any_size(tmp_path, monkeypatch, restore_gc):
    gen = _load_gen()
    small, large = (gen.make("lint_single", 901, scale) for scale in (0.25, 0.5))
    cyclic_garbage(small, tmp_path / "warm", monkeypatch)  # first use of the lexicons and regexes
    assert cyclic_garbage(small, tmp_path / "small", monkeypatch) == cyclic_garbage(
        large, tmp_path / "large", monkeypatch
    )


def test_gen_json_leaves_the_same_cyclic_garbage_at_any_size(tmp_path, monkeypatch, restore_gc):
    gen = _load_gen()
    small, large = (gen.make("lint_single", 901, scale) for scale in (0.25, 0.5))
    cyclic_garbage(small, tmp_path / "warm", monkeypatch, gen_json=True)
    assert cyclic_garbage(small, tmp_path / "small", monkeypatch, gen_json=True) == cyclic_garbage(
        large, tmp_path / "large", monkeypatch, gen_json=True
    )


def test_render_leaves_no_cyclic_garbage(restore_gc):
    from rslkit.template import parse_template, render

    tpl = parse_template("{#items}{@index}: {upper(name)}{^tags}-{/tags}{#tags}{this} {/tags}\n{/items}{missing}")
    root = {"items": [{"name": "a", "tags": ["x", "y"]}, {"name": "b", "tags": []}]}
    expected = "0: Ax y \n1: B-\n"
    gc.collect()
    gc.disable()
    try:
        assert render(tpl, root, strict=False) == expected
    finally:
        garbage = gc.collect()
        gc.enable()
    assert garbage == 0


SRC = str(Path(rslkit.__file__).resolve().parents[1])
# The two ways a command runs as a process: `python -m rslkit.cli`, and the
# console-script wrapper that pip writes for `[project.scripts]`, which
# imports the function the script names and exits with what it returns.
PROCESS_ENTRIES = {
    "python -m": "runpy.run_module('rslkit.cli', run_name='__main__', alter_sys=True)",
    "console script": "from rslkit import cli; sys.exit(getattr(cli, {script!r})())",
}


def console_script() -> str:
    """The function of `rslkit.cli` that pyproject.toml's `rslkit` script names."""
    return re.search(r'^rslkit = "rslkit\.cli:(\w+)"$', (ROOT / "pyproject.toml").read_text(), re.M).group(1)


@pytest.mark.parametrize("entry", PROCESS_ENTRIES)
def test_a_command_run_as_a_process_exits_with_its_heap_frozen(entry, tmp_path):
    """The interpreter's exit-time collections find next to nothing left to scan."""
    probe = tmp_path / "probe.txt"
    code = (
        "import atexit, gc, pathlib, runpy, sys\n"
        f"atexit.register(lambda: pathlib.Path({str(probe)!r}).write_text(f'{{gc.get_freeze_count()}} {{len(gc.get_objects())}}'))\n"
        f"sys.argv = ['rslkit', 'check', '--format', 'json', {fixture_path('billing_defects.rsl')!r}]\n"
        + PROCESS_ENTRIES[entry].format(script=console_script())
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 1, out.stderr
    frozen, tracked = map(int, probe.read_text().split())
    assert frozen > 0
    assert tracked < 1000


def test_the_console_script_runs_what_python_m_runs():
    tree = ast.parse(Path(rslkit.cli.__file__).read_text(encoding="utf-8"))
    (block,) = (node for node in tree.body if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'")
    assert [ast.unparse(node) for node in block.body] == [f"sys.exit({console_script()}())"]
