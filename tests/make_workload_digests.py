"""Workload byte identity: the benchmark's inputs, the commands run on them, and their digests.

The inputs are the three benchmark workloads of `perfbench/gen.py`
(seed 901) at 0.5x, 1x and 2x, written to a fresh directory for each
case. Each case runs `rslkit.cli.main` in-process there, with paths
relative to that directory, and records the SHA-256 of its stdout, its
stderr and every file it wrote or changed, with its exit code.

Regenerate by hand, only when an output is meant to change:

    PYTHONPATH=src python tests/make_workload_digests.py

Compare the current code against the recorded digests at some scales
(exit status 1 names each case that differs):

    PYTHONPATH=src python tests/make_workload_digests.py --check 1 2
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).parent / "golden" / "workload_digests.json"
SEED = 901
SCALES = ("0.5", "1", "2")


def _load_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up by name
    spec.loader.exec_module(module)
    return module


gen = _load_gen()


def cases(wl) -> dict[str, list[str]]:
    """Case name -> argv for one workload, in a stable order."""
    out = {
        "check": ["check", *wl.inputs],
        "check --format json": ["check", "--format", "json", *wl.inputs],
        "fix --dry-run --create-missing": ["fix", "--dry-run", "--create-missing", *wl.inputs],
        "fix --apply": ["fix", "--apply", *wl.inputs],
    }
    for kind in ("json", "text", "template"):
        argv = ["gen", kind, *wl.gen_inputs, "-o", f"out.{kind}"]
        out[f"gen {kind}"] = argv + ["--template", gen.TEMPLATE_FILE] if kind == "template" else argv
    return out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_case(files: dict, argv: list[str], workdir: Path) -> dict:
    """Write `files` into `workdir`, run argv there, and digest what it printed and wrote."""
    from rslkit.cli import main

    for rel, text in files.items():
        (workdir / rel).write_text(text, encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    finally:
        os.chdir(cwd)
    written = {}
    for path in sorted(workdir.iterdir()):
        text = path.read_text(encoding="utf-8")
        if files.get(path.name) != text:
            written[path.name] = _sha(text)
    return {"exit": code, "stdout": _sha(stdout.getvalue()), "stderr": _sha(stderr.getvalue()), "files": written}


def digests(workload: str, scale: str) -> dict:
    """Case name -> digest record, for one workload at one scale."""
    wl = gen.make(workload, SEED, scale=float(scale))
    out = {}
    for name, argv in cases(wl).items():
        with tempfile.TemporaryDirectory() as tmp:
            out[name] = run_case(wl.files, argv, Path(tmp))
    return out


def key(workload: str, scale: str) -> str:
    return f"{workload} x{scale}"


def main(argv: list[str]) -> int:
    if argv[:1] == ["--check"]:
        recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
        differ = []
        for scale in argv[1:] or SCALES:
            for workload in gen.WORKLOADS:
                got = digests(workload, scale)
                want = recorded[key(workload, scale)]
                differ += [f"{key(workload, scale)}: {name}" for name in want if got.get(name) != want[name]]
        for line in differ:
            print(f"differs: {line}", file=sys.stderr)
        return 1 if differ else 0
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    results = {key(w, s): digests(w, s) for s in SCALES for w in gen.WORKLOADS}
    DIGESTS.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(results)} workloads to {DIGESTS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
