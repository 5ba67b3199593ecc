"""Multi-file workspace: reference binding and include resolution.

Include/IncludeAll copy elements into a document's effective list;
Import only makes another system's names visible for reference binding.
"""

from __future__ import annotations

from pathlib import Path

from . import parser
from .model import (
    KIND_TABLE,
    Diagnostic,
    Element,
    IncludeDecl,
    Model,
    QuickFix,
    Record,
    SourceSpan,
    TextEdit,
)

MAX_INCLUDE_DEPTH = 16
_REFERENCES = {
    kind: [c for c in row["clauses"] if c[2] in ("ref", "parent", "extends")] for kind, row in KIND_TABLE.items()
}


class Workspace(Record):
    """Systems by id; a registered text is parsed the first time resolution asks for it."""

    sources: dict = {}  # system id -> (text, file), every registered system
    systems: dict = {}  # system id -> Model, the systems parsed so far
    parse_diagnostics: dict = {}  # system id -> [Diagnostic]
    io_errors: list = []  # (system id, path, message)
    lexes: dict | None = None  # system id -> relex.Lex of its last parse; `fix` sets a defaultdict(Lex)

    def __contains__(self, system_id: str) -> bool:
        return system_id in self.sources

    def register(self, system_id: str, source: str, file: str, edits=None) -> None:
        """Record a system's text; an earlier parse of that system is dropped.

        `edits` are the non-overlapping `TextEdit`s, in `model.edit_order`,
        that made `source` from the system's last parsed text. If that parse
        kept its lex, the next parse scans only around them.
        """
        self.systems.pop(system_id, None)
        self.parse_diagnostics.pop(system_id, None)
        self.sources[system_id] = (source, file)
        if self.lexes is not None and system_id in self.lexes:
            self.lexes[system_id].edits = edits

    def system(self, system_id: str) -> Model | None:
        """Model of a registered system, parsed on the first request; None if unknown."""
        model = self.systems.get(system_id)
        if model is None and system_id in self.sources:
            source, file = self.sources[system_id]
            lex = None if self.lexes is None else self.lexes[system_id]
            model, diags = parser.parse(source, file, lex)
            self.systems[system_id] = model
            self.parse_diagnostics[system_id] = diags
        return model

    def system_of(self, model: Model) -> str | None:
        """Id of the system whose current parse is `model`; None for a model no longer registered."""
        return next((name for name, m in self.systems.items() if m is model), None)


def read_spec(path: str) -> str:
    """A spec's UTF-8 text with its line endings as they are on disk, so that `fix` writes them back unchanged."""
    return Path(path).read_bytes().decode("utf-8")


def load_workspace(files: list[tuple[str, str]]) -> Workspace:
    """Read every (systemId, path) pair and register it unparsed; read and decode failures are recorded, not raised."""
    ws = Workspace()
    for system_id, path in files:
        try:
            source = read_spec(path)
        except (OSError, UnicodeDecodeError) as exc:
            ws.io_errors.append((system_id, path, str(exc)))
            continue
        ws.register(system_id, source, str(path))
    return ws


def add_system(ws: Workspace, system_id: str, source: str, file: str) -> Model:
    """Register a system and parse it now."""
    ws.register(system_id, source, file)
    return ws.system(system_id)


class ResolvedModel(Record):
    model: Model
    system_id: str | None
    effective_elements: list
    diagnostics: list
    bindings: dict = {}  # (id(element), field) -> element
    pulled: dict = {}  # id(include) -> elements it pulled, for each Include/IncludeAll that resolved cleanly

    def binding(self, elem: Element, ref_field: str) -> Element | None:
        return self.bindings.get((id(elem), ref_field))

    def index(self) -> dict:
        idx = {}
        for e in self.effective_elements:
            idx.setdefault((e.kind, e.id), e)
        return idx


def _included_elements(
    ws: Workspace,
    system_id: str,
    depth: int,
    visiting: tuple,
    diags: list,
    at_span: SourceSpan,
) -> list:
    """Transitive effective element list of a system (excluding language decls)."""
    if system_id in visiting:
        diags.append(
            Diagnostic("Error", "RSL-R004", f"Circular include involving system '{system_id}'", at_span)
        )
        return []
    if depth > MAX_INCLUDE_DEPTH:
        diags.append(
            Diagnostic("Error", "RSL-R004", f"Include nesting deeper than {MAX_INCLUDE_DEPTH}", at_span)
        )
        return []
    model = ws.system(system_id)  # registered: every caller tests `in ws` first
    out = [e for e in model.elements if e.kind != "LinguisticLanguage"]
    for inc in model.includes:
        if inc.mode == "Import":
            continue
        pulled = _resolve_include(ws, inc, depth + 1, visiting + (system_id,), diags)
        if pulled is not None:
            out.extend(pulled)
    return out


def _resolve_include(
    ws: Workspace, inc: IncludeDecl, depth: int, visiting: tuple, diags: list
) -> list | None:
    if inc.from_system not in ws:
        diags.append(
            Diagnostic("Error", "RSL-R002", f"Unknown system '{inc.from_system}'", inc.span)
        )
        return None
    pool = _included_elements(ws, inc.from_system, depth, visiting, diags, inc.span)
    if inc.mode != "Include":  # IncludeAll pulls, and Import sees, the whole system
        return pool
    matches = [e for e in pool if e.kind == inc.element_kind and e.id == inc.element_id]
    if not matches:
        diags.append(
            Diagnostic(
                "Error",
                "RSL-R003",
                f"Unknown element '{inc.element_id}' of kind '{inc.element_kind}' in system '{inc.from_system}'",
                inc.span,
            )
        )
        return None
    return matches[:1]


def resolve(model: Model, ws: Workspace) -> ResolvedModel:
    """Realize includes and bind every internal reference."""
    system_id = ws.system_of(model)
    diags: list = []
    included: list = []
    imported_pools: list[list] = []
    pulled: dict = {}
    visiting = (system_id,) if system_id else ()

    for inc in model.includes:
        before = len(diags)
        elements = _resolve_include(ws, inc, 1, visiting, diags)
        if elements is None:
            continue
        if inc.mode == "Import":
            imported_pools.append(elements)
            continue
        included.extend(elements)
        if len(diags) == before:  # no RSL-R002..R004 on the way, so the include can be inlined
            pulled[id(inc)] = elements

    # Includes conventionally head a document, so pulled elements precede
    # the document's own; inlining an include then preserves this order.
    effective = included + list(model.elements)

    rm = ResolvedModel(model, system_id, effective, diags, pulled=pulled)
    # The document's own effective list wins, then imported pools in
    # include order, each by its first element with that (kind, id).
    index = rm.index()
    for pool in imported_pools:
        for e in pool:
            index.setdefault((e.kind, e.id), e)

    for elem in effective:
        for _, field, shape, kind, span_field in _REFERENCES[elem.kind]:
            ref_id = getattr(elem, field)
            if ref_id is None:
                continue
            span = getattr(elem, span_field) or elem.span
            target = index.get((kind, ref_id))
            if target is None:
                diags.append(
                    Diagnostic("Error", "RSL-R001", f"Unresolved reference: no {kind} with id '{ref_id}'", span)
                )
                continue
            rm.bindings[(id(elem), field)] = target
            if shape == "extends" and elem.extends_point not in target.extension_points:
                diags.append(
                    Diagnostic(
                        "Error",
                        "RSL-R001",
                        f"Use case '{ref_id}' declares no extension point '{elem.extends_point}'",
                        span,
                    )
                )
    return rm


def inline_include_fix(inc: IncludeDecl, rm: ResolvedModel) -> Diagnostic | None:
    """Info diagnostic offering to replace an include of `rm`'s model with the elements it pulled."""
    pulled = rm.pulled.get(id(inc))
    if not pulled:
        return None
    from .printer import print_element  # only an inlinable include prints elements

    if inc.mode == "Include":
        title = f"Replace this include specification by the {inc.element_kind} element specification itself."
    else:
        title = "Replace this include specification by the included element specifications themselves."
    text = "\n\n".join(print_element(e) for e in pulled)
    fix = QuickFix(title, (TextEdit(inc.span, text),))
    return Diagnostic(
        "Info",
        "RSL-I001",
        title,
        inc.span,
        fixes=(fix,),
    )
