"""Self-tests of the benchmark: run from the root of a checkout with

    python3 perfbench/selftest.py

They check that a seed fixes the inputs byte for byte, that the oracle
agrees with the CLI on a small size of every workload (and rejects a
wrong answer), that every hooked name resolves in rslkit, and that
BENCHMARK.json lists exactly the metrics run.py reports.
"""

from __future__ import annotations

import importlib
import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path
from time import perf_counter

import gen
import oracle
import run
import tracehooks

SMALL = 0.1


class Determinism(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for name in gen.WORKLOADS:
            a, b = gen.make(name, 7), gen.make(name, 7)
            self.assertEqual(a.files, b.files, name)
            self.assertEqual(a.codes, b.codes, name)

    def test_seed_changes_inputs(self):
        for name in gen.WORKLOADS:
            self.assertNotEqual(gen.make(name, 1).files, gen.make(name, 2).files, name)

    def test_half_scale_is_smaller(self):
        for name in gen.WORKLOADS:
            full, half = gen.make(name, 3), gen.make(name, 3, scale=0.5)
            self.assertLess(sum(map(len, half.files.values())), 0.7 * sum(map(len, full.files.values())), name)


class OracleAgreesWithCli(unittest.TestCase):
    """Each command on a small input passes the oracle, untraced and traced."""

    def setUp(self):
        run.WORK.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def test_every_command(self):
        for name in gen.WORKLOADS:
            with self.subTest(workload=name):
                work = self.work / name
                work.mkdir()
                runner = run.Runner(gen.make(name, 5, scale=SMALL), work, perf_counter() + 120)
                runner.prepare_half(5)
                kinds = (*run.ROUND, "check_half", "reference")
                ops = [runner.run(kind) for kind in kinds] + [runner.run(kind, trace=True) for kind in kinds]
                self.assertEqual(runner.failed, 0, "see FAILED lines above")
                self.assertEqual(runner.attempted, 2 * (len(kinds) - 1))
                self.assertEqual(runner.absent, set())
                check = next(op for op in ops if op.kind == "check" and op.trace)
                self.assertGreater(check.trace["checks.run_all_checks"]["calls"], 0)

    def test_wrong_answers_fail(self):
        wl = gen.make("fix_and_emit", 5, scale=SMALL)
        report = {"version": 1, "files": [{"path": "spec.rsl", "diagnostics": [{"code": "RSL-V001"}]}]}
        self.assertTrue(oracle.check_report(wl, wl.check_exit, json.dumps(report)))
        self.assertTrue(oracle.check_report(wl, 0, ""))
        defect = wl.files["spec.rsl"]
        n = wl.fix_elements["spec.rsl"]
        self.assertTrue(oracle._fixed_file_problems(defect, n, wl.fix_absent))
        self.assertTrue(oracle._fixed_file_problems(defect, n - 1, ()))


class Hooks(unittest.TestCase):
    def test_every_hook_resolves(self):
        sys.path.insert(0, str(run.SRC))
        try:
            for layer, module, attr, _count in tracehooks.HOOKS:
                self.assertTrue(callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}")
                self.assertIn(layer, run.LAYERS)
        finally:
            sys.path.remove(str(run.SRC))

    def test_self_time_subtracts_children(self):
        spans = [
            ["a", 0.0, 10.0, -1, None],
            ["b", 1.0, 4.0, 0, 5],
            ["c", 2.0, 3.0, 1, None],
            ["b", 5.0, 6.0, 0, 2],
        ]
        totals = tracehooks.layer_totals(spans)
        self.assertAlmostEqual(totals["a"]["self_s"], 6.0)
        self.assertAlmostEqual(totals["b"]["self_s"], 3.0)
        self.assertAlmostEqual(totals["b"]["total_s"], 4.0)
        self.assertEqual((totals["b"]["calls"], totals["b"]["count"]), (2, 7))


class BenchmarkFile(unittest.TestCase):
    def test_metrics_match(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.per_layer_metrics())
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), gen.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
