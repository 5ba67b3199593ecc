"""Batch command line: check, fix, gen.

Exit codes: 0 no errors, 1 error diagnostics present (or generation
refused), 2 usage or I/O failure.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from bisect import bisect_left
from collections import defaultdict
from pathlib import Path

from .checks import run_all_checks
from .model import LANGUAGES, Diagnostic, OverlappingEdits, TextEdit, apply_edits, edit_order
from .workspace import Workspace, load_workspace, read_spec, resolve

AUTO_FIX_CODES = {"RSL-V001", "RSL-V002", "RSL-V003", "RSL-I001"}


class UsageError(Exception):
    pass


def write_stdout(text: str) -> None:
    """Write to standard output; a write that fails, such as to a full disk, is a usage error (exit 2)."""
    if sys.stdout is None:  # the process started with its stdout closed
        raise UsageError("cannot write to standard output: it is closed")
    try:
        sys.stdout.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write to standard output: {exc}")


def parse_mapping(pairs: list[str], what: str) -> dict:
    out = {}
    for pair in pairs or ():
        name, sep, value = pair.partition("=")
        if not sep or not name or not value:
            raise UsageError(f"bad {what} mapping '{pair}' (expected name=value)")
        out[name] = value
    return out


def read_source(path: str, what: str) -> str:
    """UTF-8 text of a file; unreadable or undecodable files are usage errors."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {what}: {exc}")


def read_manifest(path: str) -> dict:
    mapping = {}
    base = Path(path).parent
    for line in read_source(path, "manifest").removeprefix("\ufeff").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, rel = line.partition("=")
        name, rel = name.strip(), rel.strip()
        if not sep or not name or not rel:
            raise UsageError(f"bad manifest line '{line}'")
        if "\0" in rel:  # no file name holds one: opening it would raise ValueError
            raise UsageError(f"bad manifest line {line!r}: a path cannot hold a NUL byte")
        mapping[name] = str(base / rel)
    return mapping


def build_workspace(paths: list[str], args):
    """Returns (workspace, [systemId] of the target documents).

    Every file is read up front, so an unreadable one is a usage error; a
    system is parsed only when resolution first reaches it.
    """
    mapping = {}
    if args.manifest:
        mapping.update(read_manifest(args.manifest))
    mapping.update(parse_mapping(args.system, "--system"))
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
    for lang, path in parse_mapping(args.lexicon, "--lexicon").items():
        if lang not in LANGUAGES:  # a spec can declare no other language, so its lexicon could never be read
            raise UsageError(f"unknown --lexicon language '{lang}' (expected one of {', '.join(LANGUAGES)})")
        from .lexicon import LexiconFormatError, load_lexicon

        suffix_path = path + ".rules" if Path(path + ".rules").exists() else None
        try:
            overrides[lang] = load_lexicon(path, suffix_path)
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
    from .jsonwriter import dump_json

    return dump_json({"version": 1, "files": files}, ascii=True)


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


# The generators load with `gen`, and the template engine with the first
# template. Each of these is called through this module, where the
# perfbench trace wraps it.

def generate_json(rm) -> str:
    from .docgen import generate_json

    return generate_json(rm)


def generate_text(rm) -> str:
    from .docgen import generate_text

    return generate_text(rm)


def parse_template(text: str):
    from .template import parse_template

    return parse_template(text)


# --- commands ---------------------------------------------------------------------

def cmd_check(args) -> int:
    ws, targets = build_workspace(args.paths, args)
    lexicons = load_lexicon_overrides(args)
    diags = check_all(ws, targets, lexicons)
    if args.format == "json":
        write_stdout(report_json(diags, ws, targets))
    else:
        write_stdout(report_human(diags))
    return exit_code(diags)


def collect_fix_edits(diags: list[Diagnostic], create_missing: bool):
    """Per-file edit lists in `edit_order`; identical edits collapse, overlaps are skipped.

    Distinct insertions at one offset (e.g. several created elements
    appended at end of file) merge into a single edit, in order. The edits
    chosen never overlap one another, so a new one can overlap only its
    neighbours in that order.
    """
    wanted = set(AUTO_FIX_CODES) | ({"RSL-L001"} if create_missing else set())
    per_file: dict[str, list] = {}
    notices: list[str] = []
    seen = set()
    for d in diags:
        if d.code not in wanted or not d.fixes:
            continue
        fix = d.fixes[0]
        for edit in fix.edits:
            span = edit.span
            key = (span.file, span.offset, span.length, edit.new_text)
            if key in seen:
                continue
            chosen = per_file.setdefault(span.file, [])
            at = bisect_left(chosen, (span.offset, span.end_offset), key=edit_order)
            if any(e.span.overlaps(span) for e in chosen[max(at - 1, 0) : at + 1]):
                notices.append(f"skipped conflicting fix '{fix.title}' at {span.file}:{span.start_line} (re-run fix)")
                continue
            seen.add(key)
            if span.length == 0 and at < len(chosen) and edit_order(chosen[at]) == (span.offset, span.offset):
                chosen[at] = TextEdit(chosen[at].span, chosen[at].new_text + edit.new_text)
                continue
            chosen.insert(at, edit)
    return per_file, notices


def write_atomically(path: str, text: str) -> None:
    """Write through a temporary file in the same directory, then rename it over `path`.

    A symlink is followed, so the file it points to is written and the link stays a link.
    """
    import shutil
    import tempfile

    target = Path(os.path.realpath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.", suffix=".tmp")
    except OSError as exc:
        raise UsageError(f"cannot write '{path}': {exc}")
    try:
        with open(fd, "w", encoding="utf-8", newline="") as f:  # the line endings as they were read
            f.write(text)
        shutil.copymode(target, tmp)
        os.replace(tmp, target)
    except OSError as exc:
        os.unlink(tmp)
        raise UsageError(f"cannot write '{path}': {exc}")


def unchanged_on_disk(path: str, text: str) -> bool:
    """Whether `path` still reads as `text`; an unreadable file counts as changed."""
    try:
        return read_spec(path) == text
    except (OSError, UnicodeDecodeError):
        return False


def cmd_fix(args) -> int:
    from .relex import Lex

    ws, targets = build_workspace(args.paths, args)
    ws.lexes = defaultdict(Lex)  # each parse keeps its lex, so the re-check re-lexes a fixed file only around its edits
    lexicons = load_lexicon_overrides(args)
    diags = check_all(ws, targets, lexicons)
    per_file, notices = collect_fix_edits(diags, args.create_missing)
    del diags  # the first pass is not needed past this point
    for notice in notices:
        write_stdout(notice + "\n")

    fixed: dict[str, tuple] = {}  # file -> (the text that was checked, that text fixed)
    for path, edits in sorted(per_file.items()):
        # Every edit span comes from the parse of a registered text, so its file is registered.
        old = next(text for text, file in ws.sources.values() if file == path)
        try:
            new = apply_edits(old, edits)
        except OverlappingEdits as exc:
            write_stdout(f"skipped fixes for {path}: {exc}\n")
            continue
        if new != old:
            fixed[path] = (old, new)

    any_fixes = bool(fixed)  # before --apply drops the files that changed on disk
    if args.apply:
        for path, (old, new) in list(fixed.items()):
            if not unchanged_on_disk(path, old):
                write_stdout(f"skipped fixes for {path}: file changed on disk since it was checked\n")
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
            write_stdout("".join(diff))

    # Exit status reflects the post-fix state for both modes. The re-check
    # reuses the workspace: only the systems whose text changed parse again.
    for name, (_text, path) in list(ws.sources.items()):
        if path in fixed:
            ws.register(name, fixed[path][1], path, per_file[path])
    post = check_all(ws, targets, lexicons)
    if not any_fixes and not notices:
        write_stdout("no applicable fixes\n")
    elif args.apply:
        write_stdout(f"applied fixes to {len(fixed)} file(s)\n")
    return exit_code(post)


def cmd_gen(args) -> int:
    from .docgen import ensure_valid, render_template

    ws, targets = build_workspace(args.paths, args)
    lexicons = load_lexicon_overrides(args)
    rm = resolve(ws.system(targets[0]), ws)
    diags = run_all_checks(rm, ws, lexicons)
    refusal = ensure_valid(diags)
    if refusal is not None:
        write_stdout(report_human([d for d in diags if d.severity == "Error"]))
        write_stdout(refusal + "\n")
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
    write_stdout(f"wrote {args.output}\n")
    return 0


# --- entry point -------------------------------------------------------------------

class ArgumentParser(argparse.ArgumentParser):
    """Writes its help through `write_stdout`: argparse's own `print_help` drops a failed write."""

    def print_help(self, file=None):
        write_stdout(self.format_help())


def make_parser(argv: list[str]) -> ArgumentParser:
    """The parser of the command line `argv`: only the commands it names get their arguments.

    argparse hands the rest of the line to the parser of the command
    that `argv` names, and the top-level help and errors list each
    command by name and help alone, so the others need no arguments.
    """
    ap = ArgumentParser(prog="rslkit", description="Requirements-language toolchain")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, summary, func):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        return p if name in argv else None

    def shared(p):
        p.add_argument("paths", nargs="+", help="input documents (.rsl)")
        p.add_argument("--system", action="append", metavar="NAME=PATH", help="map a system id to a file")
        p.add_argument("--manifest", help="workspace manifest (systemId=path lines)")
        p.add_argument("--lexicon", action="append", metavar="LANG=PATH", help="lexicon override")

    if p := command("check", "validate documents", cmd_check):
        shared(p)
        p.add_argument("--format", choices=["human", "json"], default="human")

    if p := command("fix", "apply or preview quick fixes", cmd_fix):
        shared(p)
        mode = p.add_mutually_exclusive_group(required=True)
        mode.add_argument("--apply", action="store_true", help="rewrite files")
        mode.add_argument("--dry-run", action="store_true", help="preview diffs only")
        p.add_argument("--create-missing", action="store_true", help="also apply create-element fixes")

    if p := command("gen", "generate documents from a valid specification", cmd_gen):
        p.add_argument("kind", choices=["json", "text", "template"])
        shared(p)
        p.add_argument("--template", help="template file (for kind=template)")
        p.add_argument("-o", "--output", required=True, help="output file")
        p.add_argument("--lenient", action="store_true", help="render unresolved tags as empty")
    return ap


# While a command runs, the youngest generation is collected after this many
# net allocations, not CPython's 700, so the collector does not re-scan parse
# trees that live until exit. A run leaves a constant amount of cyclic
# garbage (tests/test_gc.py), so collecting rarely costs no memory.
GEN0_THRESHOLD = 100_000


def main(argv=None) -> int:
    """Parse and run one command under the GC policy above, then restore the caller's thresholds."""
    argv = sys.argv[1:] if argv is None else argv
    thresholds = gc.get_threshold()
    gc.set_threshold(GEN0_THRESHOLD, *thresholds[1:])
    try:
        args = make_parser(argv).parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse exits after --help and after a usage error
        return 2 if exc.code else 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        gc.set_threshold(*thresholds)


def process_main() -> int:
    """The `rslkit` process: `main`, the last flush of stdout, then an exit with the heap frozen.

    Frozen, the heap is left out of the collections the interpreter runs
    as it exits, while `atexit` handlers and the final flushes still run.
    Data still buffered for stdout is flushed here, so a failure to write
    it is reported as one written while the command ran.
    """
    code = main()
    if sys.stdout is not None:  # None when the process started with no stdout
        try:
            sys.stdout.flush()
        except OSError as exc:
            # The exit would flush the same bytes again and print the error: they go to os.devnull instead.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            if code != 2:  # a run that exits 2 has said why on stderr, and may have lost this write already
                print(f"error: cannot write to standard output: {exc}", file=sys.stderr)
                code = 2
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(process_main())
