"""The garbage-collector policy of one CLI run, and the premise that makes it safe.

`cli.main` freezes the heap it starts with and collects the youngest
generation rarely while a command runs, then gives its caller back the
GC state it found. Collecting rarely costs no memory only because a run
leaves a constant amount of cyclic garbage, whatever the size of the
spec; the second test pins that, and the last that rendering a template
leaves none.
"""

import contextlib
import gc
import importlib.util
import io
import sys
from pathlib import Path

import pytest

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
