"""Customized semantic checks and the check scheduler.

Three checks beyond the grammar: unique element IDs, glossary-term
consistency, and acyclic is-a/part-of hierarchies. run_all_checks merges
their output with parse, resolution, linguistic and include diagnostics
into one deterministically ordered list.
"""

from __future__ import annotations

from .model import (
    BUILTIN_LEXICONS,
    KIND_TABLE,
    Diagnostic,
    LinguisticRuleDecl,
    QuickFix,
    Term,
    TextEdit,
)
from .workspace import ResolvedModel, Workspace, inline_include_fix


# The tagger loads with the first lexicon, and the rule checker and its
# matcher with the first rule: a spec with neither compiles none of them.
# Each of these is called through this module, where the perfbench trace
# wraps it.

def builtin_lexicon(language: str) -> Lexicon | None:
    from .lexicon import builtin_lexicon

    return builtin_lexicon(language)


def analyze(text: str, lex: Lexicon) -> list:
    from .lexicon import analyze

    return analyze(text, lex)


def check_linguistic_rules(rm: ResolvedModel, rules: list, lex: Lexicon) -> list[Diagnostic]:
    from .rules import check_linguistic_rules

    return check_linguistic_rules(rm, rules, lex)


# --- duplicate IDs ----------------------------------------------------------

def fresh_ids(base: str, taken: set[str]):
    """Yield `base` if free, then each free `{base}_{n}` for n = 2, 3, ...; each id joins `taken` as it is yielded.

    The scan goes on from the last id it yielded: the ids it passed were
    taken, and `taken` only grows, so each id is the one a scan from
    `base` would find then.
    """
    new_id = base
    n = 1
    while True:
        if new_id not in taken:
            taken.add(new_id)
            yield new_id
        n += 1
        new_id = f"{base}_{n}"


def check_unique_ids(rm: ResolvedModel) -> list[Diagnostic]:
    groups: dict[str, list] = {}
    for elem in rm.effective_elements:
        groups.setdefault(elem.id, []).append(elem)
    taken = set(groups)
    diags = []
    for elem_id, group in groups.items():
        if len(group) < 2:
            continue
        message = f"Duplicate element ID '{elem_id}'"
        new_ids = fresh_ids(elem_id, taken)
        for n, elem in enumerate(group, start=1):
            fixes = ()
            if n >= 2 and elem.id_span is not None:
                new_id = next(new_ids)
                fixes = (
                    QuickFix(f"Rename to '{new_id}'", (TextEdit(elem.id_span, new_id),)),
                )
            diags.append(Diagnostic("Error", "RSL-V001", message, elem.id_span or elem.span, fixes=fixes))
    return diags


# --- glossary ----------------------------------------------------------------

def build_glossary(rm: ResolvedModel) -> tuple[dict, list[Diagnostic]]:
    """(entries, diagnostics): each lowercased synonym maps to (main word, Term); clashes are diagnostics."""
    entries: dict = {}
    diags: list[Diagnostic] = []
    terms = [e for e in rm.effective_elements if isinstance(e, Term)]
    mains = {t.name.lower(): t for t in terms if t.name}
    for term in terms:
        if not term.name:
            continue
        for syn in term.synonyms:
            key = syn.lower()
            if key in mains and mains[key] is not term:
                diags.append(
                    Diagnostic(
                        "Error",
                        "RSL-C002",
                        f"Synonym '{syn}' of term '{term.id}' is the main word of term '{mains[key].id}'",
                        term.span,
                    )
                )
                continue
            existing = entries.get(key)
            if existing is not None and existing[0].lower() != term.name.lower():
                diags.append(
                    Diagnostic(
                        "Error",
                        "RSL-C001",
                        f"Synonym '{syn}' maps to both '{existing[0]}' and '{term.name}'",
                        term.span,
                    )
                )
                continue
            entries.setdefault(key, (term.name, term))
    return entries, diags


def check_glossary(rm: ResolvedModel, lex: Lexicon | None, entries: dict) -> list[Diagnostic]:
    """RSL-V002 for each word of a name or description that is a synonym, by surface or lemma.

    `entries` is what `build_glossary` returns; `lex` may be None only when it is empty.

    A screen runs first: a fragment is analyzed only when one of its
    words, lowercased or as the lemma `lex.tag` gives it, is a glossary
    key. That is the hit test below, so the screen drops only fragments
    without a hit. Each distinct word is screened once per call, and a
    model without synonyms is not scanned at all.
    """
    if not entries:
        return []
    from .lexicon import WORD_RE

    diags = []
    can_hit: dict = {}  # word -> whether it is a key, lowercased or as its lemma
    for elem in rm.effective_elements:
        for fragment in ("name", "description"):
            value = elem.fragment_value(fragment)
            if not value:
                continue
            for word in WORD_RE.findall(value):
                can = can_hit.get(word)
                if can is None:
                    can = can_hit[word] = word.lower() in entries or lex.tag(word)[1] in entries
                if can:
                    break
            else:
                continue  # no word can hit
            base = elem.exact_fragment_span(fragment)
            for token in analyze(value, lex):
                hit = entries.get(token.surface.lower()) or entries.get(token.lemma)
                if hit is None:
                    continue
                main, _term = hit
                replacement = main
                if token.capitalized and replacement:
                    replacement = replacement[0].upper() + replacement[1:]
                message = f"Replace the word '{token.surface}' by the main word '{main}'"
                if base is not None:
                    span = base.slice(token.start, token.end)
                    fixes = (QuickFix(message, (TextEdit(span, replacement),)),)
                else:
                    span = elem.fragment_span(fragment) or elem.span
                    fixes = ()
                diags.append(Diagnostic("Warning", "RSL-V002", message, span, fixes=fixes))
    return diags


# --- hierarchy cycles ---------------------------------------------------------

def strongly_connected_components(graph: dict) -> list[list]:
    """Iterative Tarjan over an adjacency dict {node: [successor, ...]}."""
    index_of: dict = {}
    lowlink: dict = {}
    on_stack: set = set()
    stack: list = []
    sccs: list[list] = []
    counter = [0]

    for root in graph:
        if root in index_of:
            continue
        work = [(root, iter(graph.get(root, ())))]
        index_of[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in graph:
                    continue
                if succ not in index_of:
                    index_of[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(graph.get(succ, ()))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == node:
                        break
                sccs.append(scc)
    return sccs


def cycle_nodes(graph: dict) -> set:
    """Nodes lying on at least one directed cycle."""
    flagged = set()
    for scc in strongly_connected_components(graph):
        if len(scc) > 1:
            flagged.update(scc)
    for node, succs in graph.items():
        if node in succs:
            flagged.add(node)
    return flagged


# (kind, *clause) of every hierarchy edge
_HIERARCHIES = [(kind, *c) for kind, row in KIND_TABLE.items() for c in row["clauses"] if c[2] == "parent"]


def check_hierarchy_cycles(rm: ResolvedModel) -> list[Diagnostic]:
    diags = []
    order = {id(e): i for i, e in enumerate(rm.effective_elements)}
    for kind, keyword, rel, _, _, span_field in _HIERARCHIES:
        nodes = [e for e in rm.effective_elements if e.kind == kind]
        graph = {id(e): [] for e in nodes}
        by_key = {id(e): e for e in nodes}
        for e in nodes:
            target = rm.binding(e, rel)
            if target is not None and id(target) in graph:
                graph[id(e)].append(id(target))
        for key in sorted(cycle_nodes(graph), key=lambda k: order[k]):
            elem = by_key[key]
            edge = getattr(elem, span_field)
            fixes = ()
            if edge is not None:
                fixes = (
                    QuickFix(
                        f"Remove '{keyword} {getattr(elem, rel)}' to break the cycle",
                        (TextEdit(edge, ""),),
                    ),
                )
            diags.append(
                Diagnostic(
                    "Error",
                    "RSL-V003",
                    f"Cycle in hierarchy of {kind} '{elem.id}'",
                    edge or elem.span,
                    fixes=fixes,
                )
            )
    return diags


# --- scheduler ----------------------------------------------------------------

def pick_lexicon(language: str, overrides: dict | None = None) -> Lexicon | None:
    if overrides and language in overrides:
        return overrides[language]
    return builtin_lexicon(language)


def run_all_checks(
    rm: ResolvedModel,
    ws: Workspace,
    lexicons: dict | None = None,
) -> list[Diagnostic]:
    """Full pipeline: parse + resolution + custom + linguistic + includes."""
    diags: list[Diagnostic] = []
    diags.extend(ws.parse_diagnostics.get(rm.system_id, ()))
    diags.extend(rm.diagnostics)
    diags.extend(check_unique_ids(rm))

    language = rm.model.language
    has_lexicon = language in (lexicons or ()) or language in BUILTIN_LEXICONS
    glossary, glossary_diags = build_glossary(rm)
    diags.extend(glossary_diags)
    if not has_lexicon:
        diags.append(
            Diagnostic(
                "Error",
                "RSL-C004",
                f"No lexicon available for language '{language}'; linguistic rules skipped",
                rm.model.language_decl.span,  # only English goes without a declaration, and it has a lexicon
            )
        )
    rules = [e for e in rm.effective_elements if isinstance(e, LinguisticRuleDecl)]
    # A shipped lexicon loads only for a check that reads it: a rule, or a synonym to look up.
    lex = None
    if rules or glossary:
        if has_lexicon:
            lex = pick_lexicon(language, lexicons)
        else:
            from .lexicon import Lexicon

            lex = Lexicon()
    diags.extend(check_glossary(rm, lex, glossary))
    diags.extend(check_hierarchy_cycles(rm))

    if has_lexicon and rules:
        diags.extend(check_linguistic_rules(rm, rules, lex))

    for inc in rm.model.includes:
        if inc.mode == "Import":
            continue
        info = inline_include_fix(inc, rm)
        if info is not None:
            diags.append(info)

    return finalize(diags)


def finalize(diags: list[Diagnostic]) -> list[Diagnostic]:
    """Deterministic order by (file, offset, code); exact duplicates collapsed.

    The key holds the span's file, offset and length, not the span: hashing
    a span reads its line and column, which a run that prints none, such
    as `fix --apply`, need never look up.
    """
    seen = set()
    out = []
    for d in sorted(diags, key=Diagnostic.sort_key):
        span = d.span
        key = (d.code, span.file, span.offset, span.length, d.message)
        if key in seen:
            continue
        seen.add(key)
        out.append(d)
    return out
