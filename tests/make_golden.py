"""Golden CLI outputs: the cases, how one case runs, and the writer of `golden/outputs.json`.

Each case runs `rslkit.cli.main` in-process, in a fresh copy of the
fixtures, with paths relative to that copy, so the recorded texts hold
no machine-specific path. A case records its exit code, stdout, stderr
and every file that the command wrote or changed in the copy.

Regenerate by hand, only when an output is meant to change:

    PYTHONPATH=src python tests/make_golden.py
"""

import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

FIXTURES = Path(__file__).parent / "fixtures"
OUTPUTS = Path(__file__).parent / "golden" / "outputs.json"

# Extra arguments a fixture needs to resolve its workspace.
SYSTEMS = {"billing_include.rsl": ["--system", "SystemRules=system_rules.rsl"]}


def cases() -> dict[str, list[str]]:
    """Case name -> argv, in a stable order."""
    specs = sorted(p.name for p in FIXTURES.glob("*.rsl"))
    templates = sorted(p.name for p in FIXTURES.glob("*.tpl"))
    out = {}
    for spec in specs:
        extra = SYSTEMS.get(spec, [])
        out[f"check {spec}"] = ["check", spec, *extra]
        out[f"check --format json {spec}"] = ["check", "--format", "json", spec, *extra]
        out[f"fix --dry-run --create-missing {spec}"] = ["fix", "--dry-run", "--create-missing", spec, *extra]
    for spec in ("billing_clean.rsl", "figure9_pt.rsl"):
        for kind in ("json", "text"):
            out[f"gen {kind} {spec}"] = ["gen", kind, spec, "-o", f"out.{kind}"]
    for tpl in templates:
        out[f"gen template {tpl}"] = ["gen", "template", "billing_clean.rsl", "--template", tpl, "-o", "out.txt"]
    out["gen template --lenient unknown_tag.tpl"] = [
        "gen", "template", "billing_clean.rsl", "--template", "unknown_tag.tpl", "--lenient", "-o", "out.txt",
    ]
    return out


def run_case(argv: list[str], workdir: Path) -> dict:
    """Run one case in `workdir`, a directory the fixtures are copied into."""
    from rslkit.cli import main

    shutil.copytree(FIXTURES, workdir, dirs_exist_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    finally:
        os.chdir(cwd)
    files = {}
    for path in sorted(workdir.iterdir()):
        text = path.read_text(encoding="utf-8")
        original = FIXTURES / path.name
        if not original.exists() or original.read_text(encoding="utf-8") != text:
            files[path.name] = text
    return {"argv": argv, "exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "files": files}


def main() -> None:
    import tempfile

    results = {}
    for name, argv in cases().items():
        with tempfile.TemporaryDirectory() as tmp:
            results[name] = run_case(argv, Path(tmp))
    OUTPUTS.parent.mkdir(exist_ok=True)
    OUTPUTS.write_text(json.dumps(results, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(results)} cases to {OUTPUTS}", file=sys.stderr)


if __name__ == "__main__":
    main()
