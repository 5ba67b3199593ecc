"""Independent reference implementations used to cross-check the library.

The cycle oracle here deliberately avoids strongly connected components:
a node lies on a simple cycle exactly when it is reachable from one of
its own successors, which plain BFS decides.

The matcher oracle is the plain backtracking search: it rescans the
element list for fragment values on every call, tries every run length
and memoizes nothing, so it is exponential on adversarial input.

The tokenizer oracle is the character loop the lexer used to be: it
walks every character to keep line and column and builds every span
eagerly.

The workspace-loader oracle is the eager loader the CLI used to have: it
parses every input and manifest entry up front, whether or not a target
reaches it.
"""

from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from rslkit import cli
from rslkit.matching import MatchResult, normalize
from rslkit.model import AltPart, FragmentRefPart, LitPart, PosPart, POS_CATEGORIES, SourceSpan
from rslkit.workspace import Workspace, add_system


def reachable_from(graph: dict, start) -> set:
    seen = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for succ in graph.get(node, ()):
            if succ in graph and succ not in seen:
                seen.add(succ)
                queue.append(succ)
    return seen


def oracle_cycle_nodes(graph: dict) -> set:
    """Nodes on at least one directed cycle, via per-node reachability."""
    flagged = set()
    for node, succs in graph.items():
        for succ in succs:
            if succ not in graph:
                continue
            if node == succ or node in reachable_from(graph, succ):
                flagged.add(node)
                break
    return flagged


def enumerate_simple_cycles(graph: dict) -> list[tuple]:
    """All simple cycles by exhaustive DFS; only viable for tiny graphs."""
    cycles = []
    nodes = sorted(graph)
    rank = {n: i for i, n in enumerate(nodes)}

    def extend(path: list, on_path: set, start):
        for succ in graph.get(path[-1], ()):
            if succ not in graph:
                continue
            if succ == start:
                cycles.append(tuple(path))
            elif succ not in on_path and rank[succ] > rank[start]:
                # Only visit nodes ranked after the start so each cycle is
                # discovered exactly once, from its smallest node.
                path.append(succ)
                on_path.add(succ)
                extend(path, on_path, start)
                on_path.discard(succ)
                path.pop()

    for start in nodes:
        extend([start], {start}, start)
    return cycles


def nodes_on_simple_cycles(graph: dict) -> set:
    out = set()
    for cycle in enumerate_simple_cycles(graph):
        out.update(cycle)
    return out


def _fragment_values(elements, kind: str, fragment: str) -> set:
    values = set()
    for elem in elements:
        if elem.kind != kind:
            continue
        value = elem.fragment_value(fragment)
        if value:
            values.add(normalize(value))
    return values


def oracle_match_pattern(pattern, tokens, elements) -> MatchResult:
    """Match pattern parts left to right against tokens (prefix semantics)."""
    parts = pattern.parts
    frag_cache: dict = {}
    best = [0, 0]  # furthest failure: token index, part index

    def frag_values(part: FragmentRefPart) -> set:
        key = (part.element_kind, part.fragment)
        if key not in frag_cache:
            frag_cache[key] = _fragment_values(elements, part.element_kind, part.fragment)
        return frag_cache[key]

    def fail(pi: int, ti: int):
        if (ti, pi) > tuple(best):
            best[0], best[1] = ti, pi

    def consume(part, ti: int):
        if isinstance(part, AltPart):
            for option in part.options:
                yield from consume(option, ti)
            return
        if ti >= len(tokens):
            return
        tok = tokens[ti]
        if isinstance(part, PosPart):
            if POS_CATEGORIES[part.category] in tok.tags:
                yield 1
            return
        if isinstance(part, LitPart):
            if tok.surface.lower() == part.text.lower():
                yield 1
            return
        if isinstance(part, FragmentRefPart):
            targets = frag_values(part)
            for run in range(len(tokens) - ti, 0, -1):
                window = tokens[ti : ti + run]
                surfaces = " ".join(t.surface.lower() for t in window)
                lemmas = " ".join(t.lemma for t in window)
                if surfaces in targets or lemmas in targets:
                    yield run
            return
        raise TypeError(part)

    def walk(pi: int, ti: int) -> Optional[int]:
        if pi == len(parts):
            return ti
        produced = False
        for count in consume(parts[pi], ti):
            produced = True
            result = walk(pi + 1, ti + count)
            if result is not None:
                return result
        if not produced:
            fail(pi, ti)
        return None

    consumed = walk(0, 0)
    if consumed is not None:
        return MatchResult(True, prefix_len=consumed)

    fail_ti, fail_pi = best
    part = parts[fail_pi]
    candidate = None
    ref = part if isinstance(part, FragmentRefPart) else None
    if ref is None and isinstance(part, AltPart):
        refs = [o for o in part.options if isinstance(o, FragmentRefPart)]
        ref = refs[0] if refs else None
    if ref is not None:
        remaining = tokens[fail_ti : fail_ti + 3]
        if remaining:
            candidate = " ".join(t.surface[:1].upper() + t.surface[1:] for t in remaining)
    return MatchResult(
        False,
        fail_part_index=fail_pi,
        fail_token_index=fail_ti,
        expectation=part,
        candidate=candidate,
    )


@dataclass(frozen=True)
class OracleToken:
    kind: str
    text: str
    span: SourceSpan
    raw: str = ""


def oracle_tokenize(source: str, file: str = "<memory>") -> list[OracleToken]:
    tokens: list[OracleToken] = []
    line, col = 1, 1
    i, n = 0, len(source)

    def advance(text: str):
        nonlocal line, col
        for ch in text:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1

    def make(kind, text, start, start_line, start_col, raw=None):
        span = SourceSpan(file, start_line, start_col, line, col, start, i - start)
        tokens.append(OracleToken(kind, text, span, raw if raw is not None else text))

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance(ch)
            i += 1
            continue
        if ch == "/" and source.startswith("//", i):
            j = source.find("\n", i)
            j = n if j == -1 else j
            advance(source[i:j])
            i = j
            continue
        start, sl, sc = i, line, col
        if ch == '"':
            value = []
            j = i + 1
            terminated = False
            while j < n:
                c = source[j]
                if c == "\\" and j + 1 < n and source[j + 1] in ('"', "\\"):
                    value.append(source[j + 1])
                    j += 2
                    continue
                if c == '"':
                    terminated = True
                    j += 1
                    break
                if c == "\n":
                    break
                value.append(c)
                j += 1
            raw = source[i:j]
            advance(raw)
            i = j
            make("string" if terminated else "error", "".join(value), start, sl, sc, raw)
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            advance(word)
            i = j
            make("identifier", word, start, sl, sc)
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            word = source[i:j]
            advance(word)
            i = j
            make("identifier", word, start, sl, sc)
            continue
        if ch in ":[](),+|.":
            advance(ch)
            i += 1
            make("punct", ch, start, sl, sc)
            continue
        advance(ch)
        i += 1
        make("error", ch, start, sl, sc)

    end_span = SourceSpan(file, line, col, line, col, n, 0)
    tokens.append(OracleToken("end", "", end_span))
    return tokens


def oracle_build_workspace(paths: list[str], args):
    """Drop-in for `cli.build_workspace` that parses every system before any check runs."""
    mapping = {}
    if getattr(args, "manifest", None):
        mapping.update(cli.read_manifest(args.manifest))
    mapping.update(cli.parse_mapping(getattr(args, "system", None), "--system"))
    path_to_name = {str(Path(p)): name for name, p in mapping.items()}

    ws = Workspace()
    targets = []
    seen = set()
    for path in paths:
        name = path_to_name.get(str(Path(path)), Path(path).stem)
        if name in seen:
            continue
        seen.add(name)
        add_system(ws, name, cli.read_source(path), str(path))
        targets.append((name, str(Path(path))))
    for name, path in mapping.items():
        if name in seen:
            continue
        seen.add(name)
        add_system(ws, name, cli.read_source(path), str(Path(path)))
    return ws, targets
