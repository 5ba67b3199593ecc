"""Checks each command's output against the expectation built into its inputs.

Every check returns a list of problems; an empty list means the operation
was correct. The fixed files are read back with a small line scanner that
knows only the layout the generator writes and the printer emits
(element headers at the start of a line, one clause per line), so no
rslkit code judges rslkit output.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from pathlib import Path

from gen import JSON_KEYS, SYNONYM, TEMPLATE_LINE_KINDS, Workload

HEADER_RE = re.compile(r'^(DataEntity|Actor|UseCase|Term|LinguisticRule|LinguisticLanguage|Stakeholder|FunctionalRequirement) (\w+)(?: "([^"]*)")?')
INCLUDE_RE = re.compile(r"^(Include|IncludeAll) ")
DESCRIPTION_RE = re.compile(r'^\s*description "([^"]*)"')
RELATION_RE = re.compile(r"^\s*(isA|partOf) (\w+)")
WORD_RE = re.compile(r"\w+")
SYNONYM_FORMS = {SYNONYM, SYNONYM + "s"}


def check_report(wl: Workload, code: int, stdout: str) -> list[str]:
    """`check --format json`: exit code and the count of each diagnostic code."""
    problems = _exit(code, wl.check_exit)
    try:
        report = json.loads(stdout)
        files = report["files"]
        seen = Counter(d["code"] for f in files for d in f["diagnostics"])
        paths = {f["path"] for f in files}
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"unreadable JSON report: {exc}"]
    if dict(seen) != wl.codes:
        problems.append(f"diagnostic counts {dict(sorted(seen.items()))} != expected {dict(sorted(wl.codes.items()))}")
    missing = set(wl.targets) - paths
    if missing:
        problems.append(f"report lacks targets {sorted(missing)[:3]}")
    return problems


def check_empty(code: int, stdout: str) -> list[str]:
    """`check --format json` on an empty spec: no diagnostics at all."""
    problems = _exit(code, 0)
    try:
        found = sum(len(f["diagnostics"]) for f in json.loads(stdout)["files"])
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"unreadable JSON report: {exc}"]
    if found:
        problems.append(f"{found} diagnostic(s) on the empty spec")
    return problems


def check_fix(wl: Workload, code: int, fix_dir: Path) -> list[str]:
    """`fix --apply`: exit code, element counts, and the fixed defects gone."""
    problems = _exit(code, wl.fix_exit)
    for rel, expected in wl.fix_elements.items():
        try:
            text = (fix_dir / rel).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            problems.append(f"{rel}: unreadable after the fix: {exc}")
            continue
        problems += [f"{rel}: {p}" for p in _fixed_file_problems(text, expected, wl.fix_absent)]
    return problems


def _fixed_file_problems(text: str, expected_elements: int, absent: tuple) -> list[str]:
    ids: Counter = Counter()
    edges: dict = {}  # (relation, kind, id) -> target id
    strings: list[str] = []
    includes = 0
    current = None
    for line in text.splitlines():
        head = HEADER_RE.match(line)
        if head:
            kind, ident, name = head.groups()
            ids[ident] += 1
            current = (kind, ident)
            if name:
                strings.append(name)
            continue
        if INCLUDE_RE.match(line):
            includes += 1
        desc = DESCRIPTION_RE.match(line)
        if desc:
            strings.append(desc.group(1))
        rel = RELATION_RE.match(line)
        if rel and current is not None:
            edges[(rel.group(1), current[0], current[1])] = rel.group(2)
    problems = []
    if sum(ids.values()) != expected_elements:
        problems.append(f"{sum(ids.values())} elements after the fix, expected {expected_elements}")
    if "RSL-V001" in absent:
        dups = sorted(i for i, n in ids.items() if n > 1)
        if dups:
            problems.append(f"duplicate ids remain: {dups[:3]}")
    if "RSL-V002" in absent:
        used = [s for s in strings if SYNONYM_FORMS & {w.lower() for w in WORD_RE.findall(s)}]
        if used:
            problems.append(f"synonym still used: {used[:2]}")
    if "RSL-V003" in absent and _has_cycle(edges):
        problems.append("an isA/partOf cycle remains")
    if "RSL-I001" in absent and includes:
        problems.append(f"{includes} include declaration(s) remain")
    return problems


def _has_cycle(edges: dict) -> bool:
    """Each node has at most one outgoing edge per relation: follow the chains."""
    for relation, kind, start in edges:
        seen = {start}
        node = edges.get((relation, kind, start))
        while node is not None:
            if node in seen:
                return True
            seen.add(node)
            node = edges.get((relation, kind, node))
    return False


def check_gen_json(wl: Workload, code: int, out: Path) -> list[str]:
    problems = _exit(code, 0)
    try:
        doc = json.loads(out.read_text(encoding="utf-8"))
        counts = {kind: len(doc["elements"][key]) for kind, key in JSON_KEYS.items()}
        total = doc["systems"][wl.gen_system]["elements"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return problems + [f"unreadable JSON output: {exc}"]
    return problems + _kind_problems(wl, counts, total)


def check_gen_text(wl: Workload, code: int, out: Path) -> list[str]:
    problems = _exit(code, 0)
    try:
        text = out.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return problems + [f"no text output: {exc}"]
    counts = Counter(m.group(1) for m in re.finditer(r"^== (\w+): ", text, re.M))
    return problems + _kind_problems(wl, counts, sum(counts.values()))


def check_gen_template(wl: Workload, code: int, out: Path) -> list[str]:
    problems = _exit(code, 0)
    try:
        lines = out.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        return problems + [f"no template output: {exc}"]
    counts = Counter(TEMPLATE_LINE_KINDS[l[0]] for l in lines if l[:1] in TEMPLATE_LINE_KINDS and l[1:2] == " ")
    expected = {k: wl.gen_kinds.get(k, 0) for k in TEMPLATE_LINE_KINDS.values()}
    if dict(counts) != {k: n for k, n in expected.items() if n}:
        problems.append(f"template lines per kind {dict(counts)} != expected {expected}")
    header = (
        f"Counts: entities={expected['DataEntity']} useCases={expected['UseCase']} "
        f"actors={expected['Actor']} requirements={expected['FunctionalRequirement']}"
    )
    if header not in lines:
        problems.append("template header counts are wrong")
    return problems


def _kind_problems(wl: Workload, counts, total: int) -> list[str]:
    got = {k: n for k, n in counts.items() if n}
    problems = []
    if got != wl.gen_kinds:
        problems.append(f"elements per kind {got} != expected {wl.gen_kinds}")
    if total != sum(wl.gen_kinds.values()):
        problems.append(f"{total} elements, expected {sum(wl.gen_kinds.values())}")
    return problems


def _exit(code: int, expected: int) -> list[str]:
    return [] if code == expected else [f"exit code {code}, expected {expected}"]
