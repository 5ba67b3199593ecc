"""Batch command line: check, fix, gen.

Exit codes: 0 no errors, 1 error diagnostics present (or generation
refused), 2 usage or I/O failure.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path

from .checks import run_all_checks
from .docgen import ensure_valid, generate_json, generate_text, render_template
from .lexicon import LexiconFormatError, load_lexicon
from .model import Diagnostic, OverlappingEdits, TextEdit, apply_edits
from .workspace import Workspace, load_workspace, resolve

AUTO_FIX_CODES = {"RSL-V001", "RSL-V002", "RSL-V003", "RSL-I001"}


class UsageError(Exception):
    pass


def parse_mapping(pairs: list[str], what: str) -> dict:
    out = {}
    for pair in pairs or ():
        name, sep, value = pair.partition("=")
        if not sep or not name or not value:
            raise UsageError(f"bad {what} mapping '{pair}' (expected name=value)")
        out[name] = value
    return out


def read_source(path: str, what: str = "") -> str:
    """UTF-8 text of a file; unreadable or undecodable files are usage errors."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        what = what or f"'{path}'"
        raise UsageError(f"cannot read {what}: {exc}")


def read_manifest(path: str) -> dict:
    mapping = {}
    base = Path(path).parent
    for line in read_source(path, "manifest").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, rel = line.partition("=")
        name, rel = name.strip(), rel.strip()
        if not sep or not name or not rel:
            raise UsageError(f"bad manifest line '{line}'")
        mapping[name] = str(base / rel)
    return mapping


def build_workspace(paths: list[str], args):
    """Returns (workspace, [systemId] of the target documents).

    Every file is read up front, so an unreadable one is a usage error; a
    system is parsed only when resolution first reaches it.
    """
    mapping = {}
    if getattr(args, "manifest", None):
        mapping.update(read_manifest(args.manifest))
    mapping.update(parse_mapping(getattr(args, "system", None), "--system"))
    name_of_file = {os.path.abspath(p): name for name, p in mapping.items()}

    targets = []
    chosen: dict[str, str] = {}  # system id -> the path registered under it, as given
    files = []  # (system id, file name its diagnostics carry), in reading order
    clash = None
    for path in paths:
        where = os.path.abspath(path)
        name = name_of_file.get(where, Path(path).stem)
        other = chosen.get(name, mapping.get(name))
        if other is not None and os.path.abspath(other) != where:
            clash = UsageError(
                f"system id '{name}' names two files, '{other}' and '{path}'; "
                "give one of them its own id with --system NAME=PATH"
            )
            break
        if name in chosen:
            continue
        chosen[name] = path
        files.append((name, str(path)))
        targets.append(name)
    else:
        for name, path in mapping.items():
            if name not in chosen:
                chosen[name] = path
                files.append((name, str(Path(path))))
    # The files before a clashing target are read first, so one of them
    # that cannot be read is the error reported.
    ws = load_workspace(files)
    if ws.io_errors:
        name, _file, message = ws.io_errors[0]
        raise UsageError(f"cannot read '{chosen[name]}': {message}")
    if clash is not None:
        raise clash
    return ws, targets


def load_lexicon_overrides(args) -> dict:
    overrides = {}
    for lang, path in parse_mapping(getattr(args, "lexicon", None), "--lexicon").items():
        suffix_path = path + ".rules" if Path(path + ".rules").exists() else None
        try:
            overrides[lang] = load_lexicon(path, suffix_path, language=lang)
        except (OSError, UnicodeDecodeError, LexiconFormatError) as exc:
            raise UsageError(f"cannot read lexicon '{path}': {exc}")
    return overrides


def check_all(ws: Workspace, targets: list[str], lexicons) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    for name in targets:
        rm = resolve(ws.system(name), ws)
        diags.extend(run_all_checks(rm, ws, lexicons))
    return diags


# --- reporting -------------------------------------------------------------------

def span_range(span) -> dict:
    return {
        "start": {"line": span.start_line, "col": span.start_col},
        "end": {"line": span.end_line, "col": span.end_col},
    }


def report_json(diags: list[Diagnostic], ws: Workspace, targets: list[str]) -> str:
    """Every target is listed under the file it was registered under, the name its diagnostics carry."""
    by_file: dict[str, list] = {ws.sources[name][1]: [] for name in targets}
    for d in diags:
        by_file.setdefault(d.span.file, []).append(d)
    files = []
    for path in sorted(by_file):
        files.append(
            {
                "path": path,
                "diagnostics": [
                    {
                        "code": d.code,
                        "severity": d.severity,
                        "message": d.message,
                        "range": span_range(d.span),
                        "fixes": [
                            {
                                "title": f.title,
                                "edits": [
                                    {"range": span_range(e.span), "newText": e.new_text}
                                    for e in f.edits
                                ],
                            }
                            for f in d.fixes
                        ],
                    }
                    for d in by_file[path]
                ],
            }
        )
    return json.dumps({"version": 1, "files": files}, indent=2) + "\n"


def report_human(diags: list[Diagnostic]) -> str:
    lines = []
    for d in diags:
        s = d.span
        first, *rest = d.message.splitlines()
        lines.append(f"{s.file}:{s.start_line}:{s.start_col}: {d.severity.lower()} {d.code}: {first}")
        lines += ["    " + r for r in rest]
        for f in d.fixes:
            lines.append(f"    fix: {f.title}")
    errors = sum(1 for d in diags if d.severity == "Error")
    warnings = sum(1 for d in diags if d.severity == "Warning")
    lines.append(f"{len(diags)} diagnostic(s): {errors} error(s), {warnings} warning(s)")
    return "\n".join(lines) + "\n"


def exit_code(diags: list[Diagnostic]) -> int:
    return 1 if any(d.severity == "Error" for d in diags) else 0


def parse_template(text: str):
    # The template engine loads with the first template: only `gen template` uses it.
    from .template import parse_template

    return parse_template(text)


# --- commands ---------------------------------------------------------------------

def cmd_check(args) -> int:
    ws, targets = build_workspace(args.paths, args)
    lexicons = load_lexicon_overrides(args)
    diags = check_all(ws, targets, lexicons)
    if args.format == "json":
        sys.stdout.write(report_json(diags, ws, targets))
    else:
        sys.stdout.write(report_human(diags))
    return exit_code(diags)


def collect_fix_edits(diags: list[Diagnostic], create_missing: bool):
    """Per-file edit lists; identical edits collapse, overlaps are skipped."""
    wanted = set(AUTO_FIX_CODES) | ({"RSL-L001"} if create_missing else set())
    per_file: dict[str, list] = {}
    notices: list[str] = []
    seen = set()
    for d in diags:
        if d.code not in wanted or not d.fixes:
            continue
        fix = d.fixes[0]
        for edit in fix.edits:
            key = (edit.span.file, edit.span.offset, edit.span.length, edit.new_text)
            if key in seen:
                continue
            chosen = per_file.setdefault(edit.span.file, [])
            clash = next((e for e in chosen if e.span.overlaps(edit.span)), None)
            if clash is not None:
                notices.append(
                    f"skipped conflicting fix '{fix.title}' at {edit.span.file}:{edit.span.start_line} (re-run fix)"
                )
                continue
            seen.add(key)
            chosen.append(edit)
    # Distinct insertions at one offset (e.g. several created elements
    # appended at end of file) merge into a single edit, in order.
    for path, edits in per_file.items():
        inserts: dict[int, list] = {}
        rest = []
        for e in edits:
            if e.span.length == 0:
                inserts.setdefault(e.span.offset, []).append(e)
            else:
                rest.append(e)
        for offset, group in inserts.items():
            if len(group) == 1:
                rest.append(group[0])
            else:
                rest.append(TextEdit(group[0].span, "".join(e.new_text for e in group)))
        per_file[path] = rest
    return per_file, notices


def write_atomically(path: str, text: str) -> None:
    """Write through a temporary file in the same directory, then rename it over `path`."""
    import shutil
    import tempfile

    target = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.", suffix=".tmp")
    except OSError as exc:
        raise UsageError(f"cannot write '{path}': {exc}")
    try:
        with open(fd, "w", encoding="utf-8") as f:
            f.write(text)
        shutil.copymode(target, tmp)
        os.replace(tmp, target)
    except OSError as exc:
        os.unlink(tmp)
        raise UsageError(f"cannot write '{path}': {exc}")


def unchanged_on_disk(path: str, text: str) -> bool:
    """Whether `path` still reads as `text`; an unreadable file counts as changed."""
    try:
        return Path(path).read_text(encoding="utf-8") == text
    except (OSError, UnicodeDecodeError):
        return False


def cmd_fix(args) -> int:
    ws, targets = build_workspace(args.paths, args)
    lexicons = load_lexicon_overrides(args)
    diags = check_all(ws, targets, lexicons)
    per_file, notices = collect_fix_edits(diags, args.create_missing)
    del diags  # the first pass is not needed past this point
    for notice in notices:
        print(notice)

    systems_of_file: dict[str, list] = {}
    for name, (_text, file) in ws.sources.items():
        systems_of_file.setdefault(file, []).append(name)
    fixed: dict[str, tuple] = {}  # file -> (the text that was checked, that text fixed)
    for path, edits in sorted(per_file.items()):
        if path not in systems_of_file:
            print(f"skipped fixes for non-workspace file {path}")
            continue
        old = ws.sources[systems_of_file[path][0]][0]
        try:
            new = apply_edits(old, edits)
        except OverlappingEdits as exc:
            print(f"skipped fixes for {path}: {exc}")
            continue
        if new != old:
            fixed[path] = (old, new)

    any_fixes = bool(fixed)  # before --apply drops the files that changed on disk
    if args.apply:
        for path, (old, new) in list(fixed.items()):
            if not unchanged_on_disk(path, old):
                print(f"skipped fixes for {path}: file changed on disk since it was checked")
                del fixed[path]
                continue
            write_atomically(path, new)
    else:
        import difflib

        for path, (old, new) in sorted(fixed.items(), key=lambda item: str(Path(item[0]))):
            diff = difflib.unified_diff(
                old.splitlines(keepends=True),
                new.splitlines(keepends=True),
                fromfile=str(Path(path)),
                tofile=str(Path(path)) + " (fixed)",
            )
            sys.stdout.write("".join(diff))

    # Exit status reflects the post-fix state for both modes. The re-check
    # reuses the workspace: only the systems whose text changed parse again.
    for path, (_old, new) in fixed.items():
        for name in systems_of_file[path]:
            ws.register(name, new, path)
    post = check_all(ws, targets, lexicons)
    if not any_fixes and not notices:
        print("no applicable fixes")
    elif args.apply:
        print(f"applied fixes to {len(fixed)} file(s)")
    return exit_code(post)


def cmd_gen(args) -> int:
    ws, targets = build_workspace(args.paths, args)
    lexicons = load_lexicon_overrides(args)
    if not targets:
        raise UsageError("gen needs an input document")
    rm = resolve(ws.system(targets[0]), ws)
    diags = run_all_checks(rm, ws, lexicons)
    refusal = ensure_valid(rm, diags)
    if refusal is not None:
        sys.stdout.write(report_human([d for d in diags if d.severity == "Error"]))
        print(str(refusal))
        return 1
    del ws, diags  # generation reads only `rm`; free the other systems' texts and models first

    if args.kind == "json":
        output = generate_json(rm)
    elif args.kind == "text":
        output = generate_text(rm)
    else:
        if not args.template:
            raise UsageError("gen template needs --template")
        tpl_text = read_source(args.template, "template")
        from .template import ExpressionTypeError, TemplateSyntaxError, UnresolvedTags

        try:
            output = render_template(parse_template(tpl_text), rm, strict=not args.lenient)
        except (TemplateSyntaxError, UnresolvedTags, ExpressionTypeError) as exc:
            print(f"template error: {exc}", file=sys.stderr)
            return 1

    try:
        Path(args.output).write_text(output, encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write output: {exc}")
    print(f"wrote {args.output}")
    return 0


# --- entry point -------------------------------------------------------------------

def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rslkit", description="Requirements-language toolchain")
    sub = ap.add_subparsers(dest="command", required=True)

    def shared(p):
        p.add_argument("paths", nargs="+", help="input documents (.rsl)")
        p.add_argument("--system", action="append", metavar="NAME=PATH", help="map a system id to a file")
        p.add_argument("--manifest", help="workspace manifest (systemId=path lines)")
        p.add_argument("--lexicon", action="append", metavar="LANG=PATH", help="lexicon override")

    p = sub.add_parser("check", help="validate documents")
    shared(p)
    p.add_argument("--format", choices=["human", "json"], default="human")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("fix", help="apply or preview quick fixes")
    shared(p)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--apply", action="store_true", help="rewrite files")
    mode.add_argument("--dry-run", action="store_true", help="preview diffs only")
    p.add_argument("--create-missing", action="store_true", help="also apply create-element fixes")
    p.set_defaults(func=cmd_fix)

    p = sub.add_parser("gen", help="generate documents from a valid specification")
    p.add_argument("kind", choices=["json", "text", "template"])
    shared(p)
    p.add_argument("--template", help="template file (for kind=template)")
    p.add_argument("-o", "--output", required=True, help="output file")
    p.add_argument("--lenient", action="store_true", help="render unresolved tags as empty")
    p.set_defaults(func=cmd_gen)
    return ap


# While a command runs, the youngest generation is collected after this many
# net allocations, not CPython's 700, so the collector does not re-scan parse
# trees that live until exit. A run leaves a constant amount of cyclic
# garbage (tests/test_gc.py), so collecting rarely costs no memory.
GEN0_THRESHOLD = 100_000


def main(argv=None) -> int:
    """Run one command under the GC policy above, then restore the caller's GC state."""
    thresholds = gc.get_threshold()
    freeze = gc.get_freeze_count() == 0  # objects someone else froze stay theirs to unfreeze
    if freeze:
        gc.freeze()  # the import-time heap: nothing in it is freed before exit
    gc.set_threshold(GEN0_THRESHOLD, *thresholds[1:])
    try:
        return run_command(argv)
    finally:
        gc.set_threshold(*thresholds)
        if freeze:
            gc.unfreeze()


def run_command(argv=None) -> int:
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
