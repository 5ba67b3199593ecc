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
    KIND_TABLE,
    POS_CATEGORIES,
    AltPart,
    Attribute,
    DataEntity,
    Diagnostic,
    Element,
    FragmentRefPart,
    IncludeDecl,
    LitPart,
    Model,
    PatternExpr,
    PosPart,
    SourceSpan,
)

TOP_KEYWORDS = set(ELEMENT_KINDS) | {"Include", "Import", "IncludeAll"}
BODY_KEYWORDS = {c[0] for row in KIND_TABLE.values() for c in row["clauses"]}


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
                    if elem.kind == "LinguisticLanguage":
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
        row = KIND_TABLE[start.text]
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
            if row.get("subtype") and self.accept("punct", "."):
                subtype_tok = self.expect("identifier", what="a subtype")
                if subtype_tok is None:
                    return None

        _, type_field, default, allowed, unknown = row["type"]
        type_text = type_tok.text if type_tok else default
        if allowed is not None and type_text not in allowed:
            self.error("RSL-S004", unknown.format(type_text), type_tok.span if type_tok else id_tok.span)
            return None
        elem = row["class"](
            id=id_tok.text,
            name=name_tok.text if name_tok else None,
            id_span=id_tok.span,
            name_span=content_span(name_tok) if name_tok else None,
            **{type_field: type_text},
        )
        if subtype_tok is not None:
            setattr(elem, row["subtype"], subtype_tok.text)

        ok = True
        if self.accept("punct", "["):
            ok = self.parse_body(elem)
        elem.span = self.span_from(start)
        if ok and elem.kind == "LinguisticRule" and elem.pattern is None:
            self.diagnostics.append(
                Diagnostic("Error", "RSL-S002", f"Linguistic rule '{elem.id}' has no pattern", elem.id_span)
            )
        return elem

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
        if elem.kind == "DataEntity":
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
        if elem.kind == "Term" and elem.name is not None:
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
        clause = _CLAUSES[elem.kind].get(keyword)
        if clause is None:
            self.error("RSL-S002", f"Clause '{keyword}' is not allowed in a {elem.kind} body", tok.span)
            return False
        value = _CLAUSE_VALUE[clause[2]](self, elem, tok, clause)
        if value is None:
            return False
        setattr(elem, clause[1], value)
        return True

    # Each clause-value parser returns the value of the clause's field, or
    # None after reporting an error; it sets the span and any second field.

    def parse_string(self, elem: Element, tok: RslToken, clause) -> Optional[str]:
        s = self.expect("string", what="a string")
        if s is None:
            return None
        if clause[4]:
            setattr(elem, clause[4], content_span(s))
        return s.text

    def parse_reference(self, elem: Element, tok: RslToken, clause) -> Optional[str]:
        target = self.expect("identifier", what="an element id")
        if target is None:
            return None
        # A hierarchy edge's span runs from the keyword: V003's fix deletes the clause.
        setattr(elem, clause[4], self.span_from(tok) if clause[2] == "parent" else target.span)
        return target.text

    def parse_list(self, elem: Element, tok: RslToken, clause) -> Optional[tuple]:
        kind, what = ("identifier", "an identifier") if clause[2] == "ids" else ("string", "a string")
        values = []
        while True:
            value = self.expect(kind, what=what)
            if value is None:
                return None
            values.append(value.text)
            if not self.accept("punct", ","):
                return tuple(values)

    def parse_enum(self, elem: Element, tok: RslToken, clause) -> Optional[str]:
        allowed = clause[3]
        value = self.expect("identifier", what=", ".join(allowed[:-1]) + " or " + allowed[-1])
        if value is None:
            return None
        if value.text not in allowed:
            self.error("RSL-S004", f"Unknown {tok.text} '{value.text}'", value.span)
            return None
        return value.text

    def parse_extends(self, elem: Element, tok: RslToken, clause) -> Optional[str]:
        target = self.expect("identifier", what="a use case id")
        if target is None or self.expect("identifier", "onExtensionPoint") is None:
            return None
        point = self.expect("identifier", what="an extension point")
        if point is None:
            return None
        elem.extends_point = point.text
        setattr(elem, clause[4], self.span_from(tok))
        return target.text

    def parse_property(self, elem: Element, tok: RslToken, clause) -> Optional[str]:
        kind_tok = self.expect("identifier", what="an element kind")
        if kind_tok is None or self.expect("punct", ".") is None:
            return None
        frag_tok = self.expect("identifier", what="a fragment (id, name or description)")
        if frag_tok is None:
            return None
        if kind_tok.text not in ELEMENT_KINDS:
            self.error("RSL-S004", f"Unknown element kind '{kind_tok.text}'", kind_tok.span)
            return None
        if frag_tok.text not in FRAGMENTS:
            self.error("RSL-S004", f"Unknown fragment '{frag_tok.text}'", frag_tok.span)
            return None
        elem.fragment = frag_tok.text
        return kind_tok.text

    def parse_attribute(self, entity: DataEntity, start: RslToken, clause) -> Optional[tuple]:
        id_tok = self.expect("identifier", what="an attribute id")
        if id_tok is None:
            return None
        name_tok = self.expect("string", what="an attribute name")
        if name_tok is None or self.expect("punct", ":") is None:
            return None
        dtype = self.expect("identifier", what="a data type")
        if dtype is None:
            return None
        if dtype.text not in DATA_TYPES:
            self.error("RSL-S004", f"Unknown data type '{dtype.text}'", dtype.span)
            return None
        constraints: list[str] = []
        default_value = None
        if self.accept("punct", "["):
            while not self.accept("punct", "]"):
                if self.accept("identifier", "constraints"):
                    if self.expect("punct", "(") is None:
                        return None
                    while True:
                        c = self.expect("identifier", what="a constraint")
                        if c is None:
                            return None
                        if c.text not in CONSTRAINTS:
                            self.error("RSL-S004", f"Unknown constraint '{c.text}'", c.span)
                            return None
                        constraints.append(c.text)
                        if not self.accept("punct", ","):
                            break
                    if self.expect("punct", ")") is None:
                        return None
                elif self.accept("identifier", "defaultValue"):
                    s = self.expect("string", what="a string")
                    if s is None:
                        return None
                    default_value = s.text
                else:
                    self.error(
                        "RSL-S002",
                        f"Unexpected token '{self.peek().text}' in attribute options",
                    )
                    return None
        return entity.attributes + (
            Attribute(
                id=id_tok.text,
                name=name_tok.text,
                data_type=dtype.text,
                constraints=tuple(constraints),
                default_value=default_value,
                span=self.span_from(start),
            ),
        )

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


_CLAUSES = {kind: {c[0]: c for c in row["clauses"]} for kind, row in KIND_TABLE.items()}
_CLAUSE_VALUE = {
    "string": _Parser.parse_string,
    "ref": _Parser.parse_reference,
    "parent": _Parser.parse_reference,
    "ids": _Parser.parse_list,
    "strings": _Parser.parse_list,
    "enum": _Parser.parse_enum,
    "pattern": lambda parser, elem, tok, clause: parser.parse_pattern(),
    "attribute": _Parser.parse_attribute,
    "extends": _Parser.parse_extends,
    "property": _Parser.parse_property,
}


def parse(source: str, file: str = "<memory>") -> tuple[Model, list[Diagnostic]]:
    """Parse a document; never raises on malformed input."""
    p = _Parser(source, file)
    model = p.parse_document()
    return model, p.diagnostics
