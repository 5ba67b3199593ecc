"""Recursive-descent parser with recovery.

Syntax errors become RSL-S0xx diagnostics and the parser skips ahead to
the next top-level keyword, so every well-formed element in a broken
document still reaches the later checks.
"""

from __future__ import annotations

from typing import Optional

from .lexer import RslToken, content_span, tokenize
from .model import (
    CONSTRAINTS,
    DATA_TYPES,
    ELEMENT_KINDS,
    FRAGMENTS,
    LANGUAGES,
    POS_CATEGORIES,
    SEVERITIES,
    Actor,
    AltPart,
    Attribute,
    DataEntity,
    Diagnostic,
    Element,
    FragmentRefPart,
    FunctionalRequirement,
    IncludeDecl,
    LinguisticLanguageDecl,
    LinguisticRuleDecl,
    LitPart,
    Model,
    PatternExpr,
    PosPart,
    SourceSpan,
    Stakeholder,
    Term,
    UseCase,
)

TOP_KEYWORDS = set(ELEMENT_KINDS) | {"Include", "Import", "IncludeAll"}

BODY_KEYWORDS = {
    "attribute",
    "isA",
    "partOf",
    "primaryActor",
    "dataEntity",
    "actions",
    "extensionPoints",
    "extends",
    "precondition",
    "synonyms",
    "property",
    "pattern",
    "severity",
    "description",
}


class _Parser:
    def __init__(self, source: str, file: str):
        self.tokens = tokenize(source, file)
        self.pos = 0
        self.file = file
        self.diagnostics: list[Diagnostic] = []

    # -- token plumbing ---------------------------------------------------

    def peek(self) -> RslToken:
        return self.tokens[self.pos]

    def next(self) -> RslToken:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[RslToken]:
        if self.at(kind, text):
            return self.next()
        return None

    def error(self, code: str, message: str, span: Optional[SourceSpan] = None):
        span = span or self.peek().span
        self.diagnostics.append(Diagnostic("Error", code, message, span))

    def expect(self, kind: str, text: Optional[str] = None, what: str = "") -> Optional[RslToken]:
        tok = self.accept(kind, text)
        if tok is None:
            want = what or text or kind
            got = self.peek().text or "end of input"
            self.error("RSL-S002", f"Expected {want} but found '{got}'")
        return tok

    def skip_to_top(self):
        """Recover: skip until the next top-level keyword at bracket depth 0."""
        depth = 0
        while not self.at("end"):
            tok = self.peek()
            if tok.kind == "punct" and tok.text == "[":
                depth += 1
            elif tok.kind == "punct" and tok.text == "]":
                depth = max(depth - 1, 0)
            elif tok.kind == "identifier" and tok.text in TOP_KEYWORDS and depth == 0:
                return
            self.next()

    def span_from(self, start: RslToken) -> SourceSpan:
        last = self.tokens[max(self.pos - 1, 0)]
        if last.start < start.start:
            last = start
        return start.lines.span(start.start, last.end)

    # -- document ----------------------------------------------------------

    def parse_document(self) -> Model:
        model = Model(file=self.file)
        while not self.at("end"):
            tok = self.peek()
            if tok.kind != "identifier" or tok.text not in TOP_KEYWORDS:
                self.error("RSL-S001", f"Unknown declaration '{tok.text}'", tok.span)
                self.next()
                self.skip_to_top()
                continue
            before = len(self.diagnostics)
            if tok.text in ("Include", "Import", "IncludeAll"):
                inc = self.parse_include()
                if inc is not None:
                    model.includes.append(inc)
            else:
                elem = self.parse_element()
                if elem is not None:
                    model.elements.append(elem)
                    if isinstance(elem, LinguisticLanguageDecl):
                        if model.language_decl is None:
                            model.language_decl = elem
                        else:
                            self.diagnostics.append(
                                Diagnostic(
                                    "Error",
                                    "RSL-S005",
                                    "Duplicate LinguisticLanguage declaration",
                                    elem.span,
                                )
                            )
            if len(self.diagnostics) > before:
                self.skip_to_top()
        model.end_span = self.tokens[-1].span
        return model

    # -- includes ----------------------------------------------------------

    def parse_include(self) -> Optional[IncludeDecl]:
        start = self.next()
        mode = start.text
        element_kind = None
        element_id = None
        if mode == "Include":
            kind_tok = self.expect("identifier", what="an element kind")
            if kind_tok is None:
                return None
            if kind_tok.text not in ELEMENT_KINDS:
                self.error("RSL-S004", f"Unknown element kind '{kind_tok.text}'", kind_tok.span)
                return None
            element_kind = kind_tok.text
        if self.expect("identifier", "fromSystem") is None:
            return None
        sys_tok = self.expect("identifier", what="a system name")
        if sys_tok is None:
            return None
        if mode == "Include":
            if self.expect("identifier", "element") is None:
                return None
            id_tok = self.expect("identifier", what="an element id")
            if id_tok is None:
                return None
            element_id = id_tok.text
        return IncludeDecl(mode, sys_tok.text, element_kind, element_id, self.span_from(start))

    # -- elements ----------------------------------------------------------

    def parse_element(self) -> Optional[Element]:
        start = self.next()
        kind = start.text
        id_tok = self.expect("identifier", what="an identifier")
        if id_tok is None:
            return None

        name_tok = self.accept("string")
        type_tok = None
        subtype_tok = None
        if self.accept("punct", ":"):
            type_tok = self.expect("identifier", what="a type")
            if type_tok is None:
                return None
            if kind == "Stakeholder" and self.accept("punct", "."):
                subtype_tok = self.expect("identifier", what="a subtype")
                if subtype_tok is None:
                    return None

        elem = self.make_element(kind, id_tok, name_tok, type_tok, subtype_tok)
        if elem is None:
            return None

        ok = True
        if self.accept("punct", "["):
            ok = self.parse_body(elem)
        elem.span = self.span_from(start)
        if ok and isinstance(elem, LinguisticRuleDecl) and elem.pattern is None:
            self.diagnostics.append(
                Diagnostic("Error", "RSL-S002", f"Linguistic rule '{elem.id}' has no pattern", elem.id_span)
            )
        return elem

    def make_element(self, kind, id_tok, name_tok, type_tok, subtype_tok) -> Optional[Element]:
        type_text = type_tok.text if type_tok else None
        common = dict(
            id=id_tok.text,
            name=name_tok.text if name_tok else None,
            id_span=id_tok.span,
            name_span=content_span(name_tok) if name_tok else None,
        )
        if kind == "DataEntity":
            return DataEntity(entity_type=type_text or "Other", **common)
        if kind == "Actor":
            return Actor(actor_type=type_text or "User", **common)
        if kind == "UseCase":
            return UseCase(uc_type=type_text or "Other", **common)
        if kind == "Term":
            pos = type_text or "Noun"
            if pos not in POS_CATEGORIES:
                self.error("RSL-S004", f"Unknown POS category '{pos}'", type_tok.span if type_tok else id_tok.span)
                return None
            return Term(pos_category=pos, **common)
        if kind == "LinguisticRule":
            if type_text != "Syntax":
                self.error(
                    "RSL-S004",
                    f"Unsupported linguistic rule kind '{type_text}' (only Syntax is supported)",
                    type_tok.span if type_tok else id_tok.span,
                )
                return None
            return LinguisticRuleDecl(rule_kind="Syntax", **common)
        if kind == "LinguisticLanguage":
            if type_text not in LANGUAGES:
                self.error(
                    "RSL-S004",
                    f"Unknown language '{type_text}'",
                    type_tok.span if type_tok else id_tok.span,
                )
                return None
            return LinguisticLanguageDecl(language=type_text, **common)
        if kind == "Stakeholder":
            return Stakeholder(
                stakeholder_type=type_text or "Other",
                stakeholder_subtype=subtype_tok.text if subtype_tok else None,
                **common,
            )
        if kind == "FunctionalRequirement":
            return FunctionalRequirement(fr_type=type_text or "Functional", **common)
        raise AssertionError(kind)

    # -- bodies ------------------------------------------------------------

    def parse_body(self, elem: Element) -> bool:
        while True:
            if self.accept("punct", "]"):
                self.finish_body(elem)
                return True
            tok = self.peek()
            if tok.kind == "end":
                self.error("RSL-S002", "Expected ']' but found end of input")
                self.finish_body(elem)
                return False
            if tok.kind != "identifier" or tok.text not in BODY_KEYWORDS:
                self.error("RSL-S002", f"Unexpected token '{tok.text}' in element body", tok.span)
                return False
            if not self.parse_clause(elem, tok.text):
                return False

    def finish_body(self, elem: Element):
        if isinstance(elem, DataEntity):
            seen = set()
            pk = 0
            for attr in elem.attributes:
                if attr.id in seen:
                    self.diagnostics.append(
                        Diagnostic("Error", "RSL-S006", f"Duplicate attribute id '{attr.id}'", attr.span)
                    )
                seen.add(attr.id)
                if "PrimaryKey" in attr.constraints:
                    pk += 1
            if pk > 1:
                self.diagnostics.append(
                    Diagnostic("Error", "RSL-S006", "More than one PrimaryKey attribute", elem.attributes[-1].span)
                )
        if isinstance(elem, Term) and elem.name is not None:
            if elem.name.lower() in (s.lower() for s in elem.synonyms):
                self.diagnostics.append(
                    Diagnostic(
                        "Error",
                        "RSL-S007",
                        f"Term '{elem.id}' lists its own main word among its synonyms",
                        elem.name_span,
                    )
                )
    def parse_clause(self, elem: Element, keyword: str) -> bool:
        tok = self.next()  # the clause keyword
        if keyword == "description":
            s = self.expect("string", what="a string")
            if s is None:
                return False
            elem.description = s.text
            elem.description_span = content_span(s)
            return True

        if keyword == "attribute":
            if not isinstance(elem, DataEntity):
                return self.wrong_clause(tok, elem)
            return self.parse_attribute(elem, tok)

        if keyword in ("isA", "partOf"):
            if not isinstance(elem, (DataEntity, Actor)) or (
                keyword == "partOf" and not isinstance(elem, DataEntity)
            ):
                return self.wrong_clause(tok, elem)
            target = self.expect("identifier", what="an element id")
            if target is None:
                return False
            span = self.span_from(tok)
            if keyword == "isA":
                elem.is_a = target.text
                elem.is_a_span = span
            else:
                elem.part_of = target.text
                elem.part_of_span = span
            return True

        if keyword in ("primaryActor", "dataEntity"):
            if not isinstance(elem, UseCase):
                return self.wrong_clause(tok, elem)
            target = self.expect("identifier", what="an element id")
            if target is None:
                return False
            if keyword == "primaryActor":
                elem.primary_actor = target.text
                elem.primary_actor_span = target.span
            else:
                elem.data_entity = target.text
                elem.data_entity_span = target.span
            return True

        if keyword in ("actions", "extensionPoints"):
            if not isinstance(elem, UseCase):
                return self.wrong_clause(tok, elem)
            names = self.parse_id_list()
            if names is None:
                return False
            if keyword == "actions":
                elem.actions = tuple(names)
            else:
                elem.extension_points = tuple(names)
            return True

        if keyword == "extends":
            if not isinstance(elem, UseCase):
                return self.wrong_clause(tok, elem)
            target = self.expect("identifier", what="a use case id")
            if target is None or self.expect("identifier", "onExtensionPoint") is None:
                return False
            point = self.expect("identifier", what="an extension point")
            if point is None:
                return False
            elem.extends_target = target.text
            elem.extends_point = point.text
            elem.extends_span = self.span_from(tok)
            return True

        if keyword == "precondition":
            if not isinstance(elem, UseCase):
                return self.wrong_clause(tok, elem)
            s = self.expect("string", what="a string")
            if s is None:
                return False
            elem.precondition = s.text
            return True

        if keyword == "synonyms":
            if not isinstance(elem, Term):
                return self.wrong_clause(tok, elem)
            values = []
            while True:
                s = self.expect("string", what="a string")
                if s is None:
                    return False
                values.append(s.text)
                if not self.accept("punct", ","):
                    break
            elem.synonyms = tuple(values)
            return True

        if keyword == "property":
            if not isinstance(elem, LinguisticRuleDecl):
                return self.wrong_clause(tok, elem)
            kind_tok = self.expect("identifier", what="an element kind")
            if kind_tok is None or self.expect("punct", ".") is None:
                return False
            frag_tok = self.expect("identifier", what="a fragment (id, name or description)")
            if frag_tok is None:
                return False
            if kind_tok.text not in ELEMENT_KINDS:
                self.error("RSL-S004", f"Unknown element kind '{kind_tok.text}'", kind_tok.span)
                return False
            if frag_tok.text not in FRAGMENTS:
                self.error("RSL-S004", f"Unknown fragment '{frag_tok.text}'", frag_tok.span)
                return False
            elem.target_kind = kind_tok.text
            elem.fragment = frag_tok.text
            return True

        if keyword == "pattern":
            if not isinstance(elem, LinguisticRuleDecl):
                return self.wrong_clause(tok, elem)
            pattern = self.parse_pattern()
            if pattern is None:
                return False
            elem.pattern = pattern
            return True

        if keyword == "severity":
            if not isinstance(elem, LinguisticRuleDecl):
                return self.wrong_clause(tok, elem)
            sev = self.expect("identifier", what="Error, Warning or Info")
            if sev is None:
                return False
            if sev.text not in SEVERITIES:
                self.error("RSL-S004", f"Unknown severity '{sev.text}'", sev.span)
                return False
            elem.severity = sev.text
            return True

        return self.wrong_clause(tok, elem)

    def wrong_clause(self, tok: RslToken, elem: Element) -> bool:
        self.error(
            "RSL-S002",
            f"Clause '{tok.text}' is not allowed in a {type(elem).kind} body",
            tok.span,
        )
        return False

    def parse_id_list(self) -> Optional[list[str]]:
        names = []
        while True:
            tok = self.expect("identifier", what="an identifier")
            if tok is None:
                return None
            names.append(tok.text)
            if not self.accept("punct", ","):
                return names

    def parse_attribute(self, entity: DataEntity, start: RslToken) -> bool:
        id_tok = self.expect("identifier", what="an attribute id")
        if id_tok is None:
            return False
        name_tok = self.expect("string", what="an attribute name")
        if name_tok is None or self.expect("punct", ":") is None:
            return False
        dtype = self.expect("identifier", what="a data type")
        if dtype is None:
            return False
        if dtype.text not in DATA_TYPES:
            self.error("RSL-S004", f"Unknown data type '{dtype.text}'", dtype.span)
            return False
        constraints: list[str] = []
        default_value = None
        if self.accept("punct", "["):
            while not self.accept("punct", "]"):
                if self.accept("identifier", "constraints"):
                    if self.expect("punct", "(") is None:
                        return False
                    while True:
                        c = self.expect("identifier", what="a constraint")
                        if c is None:
                            return False
                        if c.text not in CONSTRAINTS:
                            self.error("RSL-S004", f"Unknown constraint '{c.text}'", c.span)
                            return False
                        constraints.append(c.text)
                        if not self.accept("punct", ","):
                            break
                    if self.expect("punct", ")") is None:
                        return False
                elif self.accept("identifier", "defaultValue"):
                    s = self.expect("string", what="a string")
                    if s is None:
                        return False
                    default_value = s.text
                else:
                    self.error(
                        "RSL-S002",
                        f"Unexpected token '{self.peek().text}' in attribute options",
                    )
                    return False
        entity.attributes = entity.attributes + (
            Attribute(
                id=id_tok.text,
                name=name_tok.text,
                data_type=dtype.text,
                constraints=tuple(constraints),
                default_value=default_value,
                span=self.span_from(start),
            ),
        )
        return True

    # -- linguistic patterns -------------------------------------------------

    def parse_pattern(self) -> Optional[PatternExpr]:
        parts = []
        while True:
            part = self.parse_pattern_part()
            if part is None:
                return None
            parts.append(part)
            if not self.accept("punct", "+"):
                break
        return PatternExpr(tuple(parts))

    def parse_pattern_part(self):
        if self.accept("punct", "("):
            options = []
            while True:
                atom = self.parse_pattern_atom()
                if atom is None:
                    return None
                options.append(atom)
                if not self.accept("punct", "|"):
                    break
            if self.expect("punct", ")") is None:
                return None
            if len(options) == 1:
                return options[0]
            return AltPart(tuple(options))
        return self.parse_pattern_atom()

    def parse_pattern_atom(self):
        tok = self.peek()
        if tok.kind == "string":
            self.next()
            return LitPart(tok.text)
        if tok.kind == "identifier":
            self.next()
            if self.accept("punct", "."):
                frag = self.expect("identifier", what="a fragment (id, name or description)")
                if frag is None:
                    return None
                if tok.text not in ELEMENT_KINDS:
                    self.error("RSL-S003", f"Unknown element kind '{tok.text}' in pattern", tok.span)
                    return None
                if frag.text not in FRAGMENTS:
                    self.error("RSL-S003", f"Unknown fragment '{frag.text}' in pattern", frag.span)
                    return None
                return FragmentRefPart(tok.text, frag.text)
            if tok.text in POS_CATEGORIES:
                return PosPart(tok.text)
            self.error("RSL-S003", f"Unknown POS category '{tok.text}' in pattern", tok.span)
            return None
        self.error("RSL-S003", f"Expected a pattern part but found '{tok.text or 'end of input'}'", tok.span)
        return None


def parse(source: str, file: str = "<memory>") -> tuple[Model, list[Diagnostic]]:
    """Parse a document; never raises on malformed input."""
    p = _Parser(source, file)
    model = p.parse_document()
    return model, p.diagnostics
