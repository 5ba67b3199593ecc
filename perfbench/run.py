"""rslkit benchmark: time to verdict of the real CLI, in a closed loop.

    python3 perfbench/run.py --workload lint_single --seed 1 --seconds 44 --trace 0

Run from the root of a checkout. It generates the workload from the seed
into a scratch directory under perfbench/, then, one subprocess at a
time, runs rounds of `python -m rslkit.cli` commands until --seconds is
spent. Every operation is checked against the expectation built into its
inputs (see gen.py and oracle.py); a wrong exit code or output counts as
a failed operation. The last line of standard output is one JSON object
with the metrics.

--trace 0 reports the end-to-end metrics, measured untraced from spawn
to exit of each subprocess. --trace 1 runs each command untraced and
then under tracehooks.py, and reports per-layer self times and counts.
See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import gen
import oracle
import tracehooks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
TRACER = HERE / "tracehooks.py"
RUN_LIMIT_S = 150  # every child is killed past this point of the run

# A fixed pure-Python program that does not touch rslkit. It runs before
# the first command and after every command. On a machine whose cores
# are shared, speed drifts by a third within seconds, and commands run
# close together drift together. Scaling each command's wall time by
# REFERENCE_S / (mean of the reference times just before and after it)
# cancels that drift.
REFERENCE = """\
import re
words = re.compile(r"\\w+")
counts = {}
for i in range(30000):
    for w in words.findall(f"alpha beta gamma delta {i}"):
        counts[w] = counts.get(w, 0) + 1
print(len(counts))
"""
REFERENCE_OUTPUT = "30004"
REFERENCE_S = 0.15  # timings are reported for a machine that runs REFERENCE in this time

# name -> unit, in report order
END_TO_END = {
    "check_s": "s",
    "fix_s": "s",
    "gen_json_s": "s",
    "gen_text_s": "s",
    "gen_template_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ops": "ratio",
}
TIMED_OPS = ("check", "fix", "gen_json", "gen_text", "gen_template")
# One round: every command once, so every workload reports every metric.
ROUND = ("setup", *TIMED_OPS)

# layer -> its metrics besides `calls` and `self_s`; a count names the
# unit of work the layer's hook counts
LAYERS = {
    "matching.match_pattern": ("matched_ratio",),
    "rules.check_linguistic_rules": (),
    "checks.run_all_checks": ("growth_2x",),
    "lexer.tokenize": ("tokens",),
    "parser.parse": ("elements",),
    "lexicon.builtin_lexicon": (),
    "lexicon.analyze": ("tokens",),
    "checks.check_glossary": (),
    "checks.check_unique_ids": (),
    "checks.check_hierarchy_cycles": (),
    "workspace.resolve": ("effective_elements",),
    "workspace.inline_include_fix": (),
    "model.apply_edits": ("edits",),
    "cli.collect_fix_edits": (),
    "cli.check_all": ("passes_per_fix",),
    "docgen.generate_json": ("output_bytes",),
    "docgen.generate_text": ("output_bytes",),
    "docgen.build_json_doc": (),
    "template.parse_template": (),
    "template.render": ("output_bytes",),
    tracehooks.ROOT_LAYER: (),
}
RUN_METRICS = {"proc.startup_s": "s", "trace.op_wall_s": "s", "trace.overhead_s": "s"}
UNITS = {"calls": "count", "self_s": "s", "matched_ratio": "ratio", "growth_2x": "ratio", "output_bytes": "bytes"}


def per_layer_metrics() -> dict:
    """Every per-layer metric name -> unit."""
    out = {}
    for layer, extra in LAYERS.items():
        for field in ("calls", "self_s", *extra):
            out[f"{layer}.{field}"] = UNITS.get(field, "count")
    out.update(RUN_METRICS)
    return out


@dataclass
class Op:
    kind: str
    wall_s: float
    maxrss_kb: int
    trace: dict | None = None  # layer totals of a traced op


class Runner:
    """Runs the workload's commands against one work directory."""

    def __init__(self, wl: gen.Workload, work: Path, deadline: float):
        self.wl = wl
        self.work = work
        self.fix_dir = work / gen.FIX_DIR
        self.spans = work / ".spans.json"
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        self.attempted = 0
        self.failed = 0
        self.absent: set = set()
        self.half: gen.Workload | None = None
        for rel, text in wl.files.items():
            (work / rel).write_text(text, encoding="utf-8")
        self.fix_dir.mkdir()

    def spawn(self, cmd: list, cwd: Path) -> tuple:
        """Run one child to its exit; returns (wall s, exit code, stdout, rusage)."""
        with open(self.work / ".stdout", "w+", encoding="utf-8") as out, open(self.work / ".stderr", "w+", encoding="utf-8") as err:
            start = perf_counter()
            proc = subprocess.Popen(cmd, cwd=cwd, env=self.env, stdout=out, stderr=err)
            watchdog = threading.Timer(max(1.0, self.deadline - start), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read(), err.read()
        if proc.returncode not in (0, 1) and stderr:
            print(f"[{' '.join(cmd[-4:])}] {stderr.strip()[-300:]}", file=sys.stderr)
        return wall, proc.returncode, stdout, usage

    def reference(self) -> Op:
        wall, code, stdout, usage = self.spawn([sys.executable, "-c", REFERENCE], self.work)
        if code != 0 or stdout.strip() != REFERENCE_OUTPUT:
            raise RuntimeError(f"reference program failed: exit {code}, output {stdout.strip()[:40]!r}")
        return Op("reference", wall, usage.ru_maxrss)

    def run(self, kind: str, trace: bool = False) -> Op:
        """One rslkit command, checked by the oracle; counts as an attempted op."""
        if kind == "reference":
            return self.reference()
        wl, cwd = self.wl, self.work
        if kind == "setup":
            args = ["check", "--format", "json", gen.EMPTY_FILE]
        elif kind == "check":
            args = ["check", "--format", "json", *wl.inputs]
        elif kind == "check_half":
            wl, cwd = self.half, self.work / "half"
            args = ["check", "--format", "json", *wl.inputs]
        elif kind == "fix":
            for rel in wl.fix_files:  # a fresh copy of the defect inputs
                shutil.copyfile(self.work / rel, self.fix_dir / rel)
            args = ["fix", "--apply", *wl.inputs]
            cwd = self.fix_dir
        else:
            gen_kind = kind.removeprefix("gen_")
            out = self.work / f"out.{gen_kind}"
            out.unlink(missing_ok=True)
            args = ["gen", gen_kind, *wl.gen_inputs, "-o", out.name]
            if gen_kind == "template":
                args += ["--template", gen.TEMPLATE_FILE]
        if trace:
            self.spans.unlink(missing_ok=True)
            cmd = [sys.executable, str(TRACER), str(self.spans), str(self.attempted), *args]
        else:
            cmd = [sys.executable, "-m", "rslkit.cli", *args]
        wall, code, stdout, usage = self.spawn(cmd, cwd)

        if kind == "setup":
            problems = oracle.check_empty(code, stdout)
        elif kind in ("check", "check_half"):
            problems = oracle.check_report(wl, code, stdout)
        elif kind == "fix":
            problems = oracle.check_fix(wl, code, self.fix_dir)
        else:
            checker = {"json": oracle.check_gen_json, "text": oracle.check_gen_text, "template": oracle.check_gen_template}
            problems = checker[gen_kind](wl, code, out)
        op = Op(kind, wall, usage.ru_maxrss)
        if trace:
            try:
                data = json.loads(self.spans.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                problems.append(f"no spans from the traced run: {exc}")
            else:
                self.absent.update(data["absent"])
                op.trace = tracehooks.layer_totals(data["spans"])
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {kind}: {'; '.join(problems)[:400]}", file=sys.stderr)
        return op

    def prepare_half(self, seed: int):
        """The same workload at half size, for the growth ratio of the checks."""
        self.half = gen.make(self.wl.name, seed, scale=0.5)
        (self.work / "half").mkdir()
        for rel, text in self.half.files.items():
            (self.work / "half" / rel).write_text(text, encoding="utf-8")


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def measure(runner: Runner, seconds: float) -> list:
    """Untraced rounds until the time is spent; returns every op, in order.

    The reference program runs first and after every command, so each
    command has a reference run on either side.
    """
    ops = [runner.run("reference")]
    rounds = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        for kind in ROUND:
            ops += [runner.run(kind), runner.run("reference")]
        rounds.append(perf_counter() - t0)
        if perf_counter() - start + median(rounds) > seconds:
            return ops


def end_to_end(runner: Runner, ops: list) -> dict:
    raw, scaled = defaultdict(list), defaultdict(list)
    for before, op, after in zip(ops[::2], ops[1::2], ops[2::2]):
        raw[op.kind].append(op.wall_s)
        scaled[op.kind].append(op.wall_s * 2 * REFERENCE_S / (before.wall_s + after.wall_s))
    refs = [op.wall_s for op in ops[::2]]
    values = {f"{kind}_s": median(scaled[kind]) for kind in ROUND}
    values["peak_rss_mb"] = max(op.maxrss_kb for op in ops[1::2]) / 1024
    values["ok_ops"] = (runner.attempted - runner.failed) / runner.attempted
    print(f"reference program: median {median(refs):.4f} s over {len(refs)} runs; "
          f"each timing is scaled to a {REFERENCE_S} s reference")
    print(f"{'metric':<16}{'n':>4}{'value':>11}{'raw median':>12}{'raw p25':>10}{'raw p75':>10}  unit")
    for name, unit in END_TO_END.items():
        vals = raw.get(name.removesuffix("_s"), [])
        if len(vals) >= 2:
            q = statistics.quantiles(vals, n=4)
            print(f"{name:<16}{len(vals):>4}{values[name]:>11.4f}{median(vals):>12.4f}{q[0]:>10.4f}{q[2]:>10.4f}  {unit}")
        else:
            print(f"{name:<16}{runner.attempted:>4}{values[name]:>11.4f}{'':>32}  {unit}")
    return values


def merge(ops: list) -> dict:
    """Layer totals summed over traced ops."""
    merged = defaultdict(lambda: defaultdict(float))
    for op in ops:
        for layer, totals in (op.trace or {}).items():
            for key, value in totals.items():
                merged[layer][key] += value
    return merged


def traced(runner: Runner, seconds: float) -> dict:
    """Rounds of each command run untraced, then traced; plus a traced half-size check.

    Each traced command runs right after its untraced twin, so the two
    see the same machine speed and their difference is the overhead.
    """
    plain_walls, rounds, growth, startups = [], [], [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        pairs = [(runner.run(kind), runner.run(kind, trace=True)) for kind in TIMED_OPS]
        plain_walls.append(sum(plain.wall_s for plain, _ in pairs))
        ops = [op for _, op in pairs]
        half = runner.run("check_half", trace=True)
        rounds.append((merge(ops), sum(op.wall_s for op in ops), merge([op for op in ops if op.kind == "fix"])))
        startups += [op.wall_s - merge([op])[tracehooks.ROOT_LAYER]["total_s"] for op in ops]
        half_checks = merge([half])["checks.run_all_checks"]["total_s"]
        if half_checks > 0:
            growth.append(merge(ops[:1])["checks.run_all_checks"]["total_s"] / half_checks)
        if perf_counter() - start + (perf_counter() - t0) > seconds:
            break

    def per_round(layer: str, field: str) -> float:
        if field == "growth_2x":
            return median(growth)
        if field == "passes_per_fix":
            return median([fix[layer]["calls"] for _, _, fix in rounds])
        if field == "matched_ratio":
            return median([m[layer]["count"] / m[layer]["calls"] if m[layer]["calls"] else 0.0 for m, _, _ in rounds])
        key = field if field in ("calls", "self_s") else "count"
        return median([m[layer][key] for m, _, _ in rounds])

    values = {f"{layer}.{field}": per_round(layer, field) for layer, extra in LAYERS.items() for field in ("calls", "self_s", *extra)}
    traced_wall = median([wall for _, wall, _ in rounds])
    values["proc.startup_s"] = median(startups)
    values["trace.op_wall_s"] = traced_wall
    values["trace.overhead_s"] = median([wall - plain for (_, wall, _), plain in zip(rounds, plain_walls)])

    print(f"traced rounds: {len(rounds)}; untraced rounds: {len(plain_walls)}; half-size checks: {len(growth)}")
    print(f"{'layer':<32}{'calls':>9}{'self_s':>10}{'share':>8}   (medians per round of check, fix, 3 x gen)")
    rows = [(layer, values[f"{layer}.calls"], values[f"{layer}.self_s"]) for layer in LAYERS]
    rows.append(("proc.startup (x ops)", len(TIMED_OPS), values["proc.startup_s"] * len(TIMED_OPS)))
    for layer, calls, self_s in sorted(rows, key=lambda r: -r[2]):
        print(f"{layer:<32}{calls:>9.0f}{self_s:>10.4f}{self_s / traced_wall:>8.1%}")
    print(f"{'sum of the above':<32}{'':>9}{sum(r[2] for r in rows):>10.4f}   traced round wall {traced_wall:.4f} s, "
          f"untraced {median(plain_walls):.4f} s, overhead {values['trace.overhead_s']:.4f} s")
    if runner.absent:
        print(f"absent hooks (reported as 0): {', '.join(sorted(runner.absent))}")
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "rslkit" / "cli.py").is_file():
        print(f"error: no rslkit sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    deadline = perf_counter() + RUN_LIMIT_S
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        runner = Runner(gen.make(args.workload, args.seed), work, deadline)
        runner.run("setup")  # fills the bytecode cache before anything is timed
        if args.trace:
            runner.prepare_half(args.seed)
            metrics = traced(runner, args.seconds)
            units = per_layer_metrics()
        else:
            metrics = end_to_end(runner, measure(runner, args.seconds))
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
