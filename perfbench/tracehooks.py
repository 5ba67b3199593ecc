"""Traced rslkit invocation and span post-processing.

Run as a script, it is a stand-in for `python -m rslkit.cli`:

    python perfbench/tracehooks.py SPANS.json OP_ID check --format json spec.rsl

It replaces each hooked function where its caller looks it up with a
wrapper that records a span (layer, start, end, parent span, count), runs
`rslkit.cli.main` on the remaining arguments inside a `cli.main` span,
writes the spans of this one operation to SPANS.json and exits with
main's code. A hook whose name no longer exists is listed as absent, and
the run goes on without it.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter


def _length(args, result) -> int:
    return len(result)


def _utf8_bytes(args, result) -> int:
    return len(result.encode("utf-8"))


# (layer, module where the caller looks the name up, name, count of the work done)
HOOKS = (
    ("cli.check_all", "rslkit.cli", "check_all", None),
    ("checks.run_all_checks", "rslkit.cli", "run_all_checks", None),
    ("checks.check_unique_ids", "rslkit.checks", "check_unique_ids", None),
    ("checks.check_glossary", "rslkit.checks", "check_glossary", None),
    ("checks.check_hierarchy_cycles", "rslkit.checks", "check_hierarchy_cycles", None),
    ("lexicon.builtin_lexicon", "rslkit.checks", "builtin_lexicon", None),
    ("lexicon.analyze", "rslkit.checks", "analyze", _length),
    ("lexicon.analyze", "rslkit.rules", "analyze", _length),
    ("rules.check_linguistic_rules", "rslkit.checks", "check_linguistic_rules", None),
    ("matching.match_pattern", "rslkit.rules", "match_pattern", lambda args, r: int(r.matched)),
    ("lexer.tokenize", "rslkit.parser", "tokenize", _length),
    ("parser.parse", "rslkit.parser", "parse", lambda args, r: len(r[0].elements)),
    ("workspace.resolve", "rslkit.cli", "resolve", lambda args, r: len(r.effective_elements)),
    ("workspace.inline_include_fix", "rslkit.checks", "inline_include_fix", None),
    ("model.apply_edits", "rslkit.cli", "apply_edits", lambda args, r: len(args[1])),
    ("cli.collect_fix_edits", "rslkit.cli", "collect_fix_edits", None),
    ("docgen.generate_json", "rslkit.cli", "generate_json", _utf8_bytes),
    ("docgen.generate_text", "rslkit.cli", "generate_text", _utf8_bytes),
    ("docgen.build_json_doc", "rslkit.docgen", "build_json_doc", None),
    ("template.parse_template", "rslkit.cli", "parse_template", None),
    ("template.render", "rslkit.docgen", "render", _utf8_bytes),
)
ROOT_LAYER = "cli.main"


class Recorder:
    """Spans of one operation, kept in memory until the operation ends."""

    def __init__(self):
        self.spans: list = []  # [layer, start, end, parent index or -1, count or None]
        self.stack: list[int] = []

    def wrap(self, fn, layer: str, count):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = [layer, start, perf_counter(), parent, None]
                stack.pop()
            if count is not None:
                spans[index][4] = count(args, result)
            return result

        return traced


def install(recorder: Recorder) -> list[str]:
    """Wrap every hook that resolves; returns the `module.name` of the others."""
    absent = []
    for layer, module_name, attr, count in HOOKS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            absent.append(f"{module_name}.{attr}")
            continue
        fn = getattr(module, attr, None)
        if not callable(fn):
            absent.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, recorder.wrap(fn, layer, count))
    return absent


def layer_totals(spans: list) -> dict:
    """Per layer: calls, inclusive seconds, self seconds and summed counts.

    A span's self time is its duration minus the durations of its direct
    children; spans nest, because rslkit runs on one thread.
    """
    child_time = defaultdict(float)
    for layer, start, end, parent, _count in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict = {}
    for index, (layer, start, end, _parent, count) in enumerate(spans):
        t = totals.setdefault(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0})
        t["calls"] += 1
        t["total_s"] += end - start
        t["self_s"] += end - start - child_time[index]
        t["count"] += count or 0
    return totals


def main(argv: list[str]) -> int:
    out_path, op_id, *cli_args = argv
    recorder = Recorder()
    absent = install(recorder)
    cli = importlib.import_module("rslkit.cli")
    code = recorder.wrap(cli.main, ROOT_LAYER, None)(cli_args)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump({"op": op_id, "absent": absent, "spans": recorder.spans}, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
