"""Recursive-descent parser with recovery.

Syntax errors become RSL-S0xx diagnostics and the parser skips ahead to
the next top-level keyword, so every well-formed element in a broken
document still reaches the later checks.

The parser reads the lexer's token arrays by index and never builds a
token object. `pos` is the index of the next token; `accept` and `expect`
return the index of the token they consumed, or None. The hot paths (the
element head, the clause dispatch of `parse_body`, `parse_attribute`,
`parse_list` and `skip_to_top`) test `kinds[pos]` and `texts[pos]` from
locals, and a punctuation token's kind is the mark itself, so each test
is one comparison. A span is built from the offsets only where the model
or a diagnostic keeps it (`span`, `span_from`, `content_span`).
"""

from __future__ import annotations

from typing import Optional

from .lexer import tokenize
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

INCLUDE_KEYWORDS = {"Include", "Import", "IncludeAll"}
TOP_KEYWORDS = set(ELEMENT_KINDS) | INCLUDE_KEYWORDS
BODY_KEYWORDS = {c[0] for row in KIND_TABLE.values() for c in row["clauses"]}


class _Parser:
    def __init__(self, source: str, file: str):
        tokens = tokenize(source, file)
        self.kinds = tokens.kinds
        self.texts = tokens.texts
        self.starts = tokens.starts
        self.ends = tokens.ends
        self.lines = tokens.lines
        self.pos = 0  # index of the next token
        self.file = file
        self.diagnostics: list[Diagnostic] = []

    # -- token plumbing ---------------------------------------------------

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[int]:
        """Consume the next token if it has this kind (and text); its index, or None."""
        pos = self.pos
        if self.kinds[pos] == kind and (text is None or self.texts[pos] == text):
            self.pos = pos + 1
            return pos
        return None

    def expect(self, kind: str, text: Optional[str] = None, what: str = "") -> Optional[int]:
        pos = self.accept(kind, text)
        if pos is None:
            self.expected(self.pos, what or text or kind)
        return pos

    def expected(self, pos: int, want: str) -> None:
        """Stop at token pos and report that it is not the `want` the grammar needs.

        Returns None, so a parser that gives up can `return self.expected(...)`.
        """
        self.pos = pos
        self.error("RSL-S002", f"Expected {want} but found '{self.texts[pos] or 'end of input'}'")

    def error(self, code: str, message: str, span: Optional[SourceSpan] = None):
        span = span or self.span(self.pos)
        self.diagnostics.append(Diagnostic("Error", code, message, span))

    def span(self, i: int) -> SourceSpan:
        return self.lines.span(self.starts[i], self.ends[i])

    def span_from(self, i: int) -> SourceSpan:
        """From token i to the last token consumed, or token i alone if that came before it."""
        return self.lines.span(self.starts[i], self.ends[max(self.pos - 1, i)])

    def content_span(self, i: int) -> SourceSpan:
        """Span of string token i's contents, inside the quotes; see `LineTable.content_span`."""
        return self.lines.content_span(self.starts[i], self.ends[i])

    def skip_to_top(self):
        """Recover: skip until the next top-level keyword at bracket depth 0."""
        kinds, texts = self.kinds, self.texts
        pos, depth = self.pos, 0
        while True:
            kind = kinds[pos]
            if kind == "[":
                depth += 1
            elif kind == "]":
                depth = max(depth - 1, 0)
            elif kind == "end" or (kind == "identifier" and depth == 0 and texts[pos] in TOP_KEYWORDS):
                break
            pos += 1
        self.pos = pos

    # -- document ----------------------------------------------------------

    def parse_document(self) -> Model:
        model = Model(file=self.file)
        kinds, texts = self.kinds, self.texts
        while True:
            pos = self.pos
            kind = kinds[pos]
            if kind == "end":
                break
            text = texts[pos]
            if kind != "identifier" or text not in TOP_KEYWORDS:
                self.error("RSL-S001", f"Unknown declaration '{text}'", self.span(pos))
                self.pos = pos + 1
                self.skip_to_top()
                continue
            before = len(self.diagnostics)
            if text in INCLUDE_KEYWORDS:
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
                            self.error("RSL-S005", "Duplicate LinguisticLanguage declaration", elem.span)
            if len(self.diagnostics) > before:
                self.skip_to_top()
        model.end_span = self.span(len(kinds) - 1)
        return model

    # -- includes ----------------------------------------------------------

    def parse_include(self) -> Optional[IncludeDecl]:
        start = self.pos
        self.pos = start + 1
        mode = self.texts[start]
        element_kind = None
        element_id = None
        if mode == "Include":
            kind_i = self.expect("identifier", what="an element kind")
            if kind_i is None:
                return None
            element_kind = self.texts[kind_i]
            if element_kind not in ELEMENT_KINDS:
                self.error("RSL-S004", f"Unknown element kind '{element_kind}'", self.span(kind_i))
                return None
        if self.expect("identifier", "fromSystem") is None:
            return None
        sys_i = self.expect("identifier", what="a system name")
        if sys_i is None:
            return None
        if mode == "Include":
            if self.expect("identifier", "element") is None:
                return None
            id_i = self.expect("identifier", what="an element id")
            if id_i is None:
                return None
            element_id = self.texts[id_i]
        return IncludeDecl(mode, self.texts[sys_i], element_kind, element_id, self.span_from(start))

    # -- elements ----------------------------------------------------------

    def parse_element(self) -> Optional[Element]:
        """`Kind id ["Name"] [: Type[.Subtype]] [[ clauses ]]`, the head read inline."""
        kinds, texts = self.kinds, self.texts
        start = self.pos
        row = KIND_TABLE[texts[start]]
        id_i = start + 1
        if kinds[id_i] != "identifier":
            return self.expected(id_i, "an identifier")
        pos = id_i + 1
        name_i = type_i = subtype_i = None
        if kinds[pos] == "string":
            name_i = pos
            pos += 1
        if kinds[pos] == ":":
            pos += 1
            if kinds[pos] != "identifier":
                return self.expected(pos, "a type")
            type_i = pos
            pos += 1
            if kinds[pos] == "." and row.get("subtype"):
                pos += 1
                if kinds[pos] != "identifier":
                    return self.expected(pos, "a subtype")
                subtype_i = pos
                pos += 1
        self.pos = pos

        _, type_field, default, allowed, unknown = row["type"]
        type_text = default if type_i is None else texts[type_i]
        if allowed is not None and type_text not in allowed:
            self.error("RSL-S004", unknown.format(type_text), self.span(id_i if type_i is None else type_i))
            return None
        elem = row["class"](
            id=texts[id_i],
            name=None if name_i is None else texts[name_i],
            id_span=self.span(id_i),
            name_span=None if name_i is None else self.content_span(name_i),
            **{type_field: type_text},
        )
        if subtype_i is not None:
            setattr(elem, row["subtype"], texts[subtype_i])

        ok = True
        if kinds[pos] == "[":
            self.pos = pos + 1
            ok = self.parse_body(elem)
        elem.span = self.span_from(start)
        if ok and elem.kind == "LinguisticRule" and elem.pattern is None:
            self.error("RSL-S002", f"Linguistic rule '{elem.id}' has no pattern", elem.id_span)
        return elem

    # -- bodies ------------------------------------------------------------

    def parse_body(self, elem: Element) -> bool:
        """Clauses up to the closing `]`; each keyword dispatches through `_CLAUSES`."""
        kinds, texts = self.kinds, self.texts
        clauses = _CLAUSES[elem.kind]
        while True:
            pos = self.pos
            kind = kinds[pos]
            if kind == "]":
                self.pos = pos + 1
                self.finish_body(elem)
                return True
            if kind == "end":
                self.error("RSL-S002", "Expected ']' but found end of input")
                self.finish_body(elem)
                return False
            keyword = texts[pos]
            if kind != "identifier" or keyword not in BODY_KEYWORDS:
                self.error("RSL-S002", f"Unexpected token '{keyword}' in element body", self.span(pos))
                return False
            self.pos = pos + 1
            clause = clauses.get(keyword)
            if clause is None:
                self.error("RSL-S002", f"Clause '{keyword}' is not allowed in a {elem.kind} body", self.span(pos))
                return False
            value = _CLAUSE_VALUE[clause[2]](self, elem, pos, clause)
            if value is None:
                return False
            setattr(elem, clause[1], value)

    def finish_body(self, elem: Element):
        if elem.kind == "DataEntity":
            seen = set()
            pk = 0
            for attr in elem.attributes:
                if attr.id in seen:
                    self.error("RSL-S006", f"Duplicate attribute id '{attr.id}'", attr.span)
                seen.add(attr.id)
                if "PrimaryKey" in attr.constraints:
                    pk += 1
            if pk > 1:
                self.error("RSL-S006", "More than one PrimaryKey attribute", elem.attributes[-1].span)
        if elem.kind == "Term" and elem.name is not None:
            if elem.name.lower() in (s.lower() for s in elem.synonyms):
                self.error("RSL-S007", f"Term '{elem.id}' lists its own main word among its synonyms", elem.name_span)

    # Each clause-value parser takes the index of the clause keyword and
    # returns the value of the clause's field, or None after reporting an
    # error; it sets the span and any second field.

    def parse_string(self, elem: Element, keyword: int, clause) -> Optional[str]:
        s = self.expect("string", what="a string")
        if s is None:
            return None
        if clause[4]:
            setattr(elem, clause[4], self.content_span(s))
        return self.texts[s]

    def parse_reference(self, elem: Element, keyword: int, clause) -> Optional[str]:
        target = self.expect("identifier", what="an element id")
        if target is None:
            return None
        # A hierarchy edge's span runs from the keyword: V003's fix deletes the clause.
        setattr(elem, clause[4], self.span_from(keyword) if clause[2] == "parent" else self.span(target))
        return self.texts[target]

    def parse_list(self, elem: Element, keyword: int, clause) -> Optional[tuple]:
        kind, what = ("identifier", "an identifier") if clause[2] == "ids" else ("string", "a string")
        kinds, texts = self.kinds, self.texts
        pos = self.pos
        values = []
        while True:
            if kinds[pos] != kind:
                return self.expected(pos, what)
            values.append(texts[pos])
            pos += 1
            if kinds[pos] != ",":
                self.pos = pos
                return tuple(values)
            pos += 1

    def parse_enum(self, elem: Element, keyword: int, clause) -> Optional[str]:
        allowed = clause[3]
        value = self.expect("identifier", what=", ".join(allowed[:-1]) + " or " + allowed[-1])
        if value is None:
            return None
        text = self.texts[value]
        if text not in allowed:
            self.error("RSL-S004", f"Unknown {self.texts[keyword]} '{text}'", self.span(value))
            return None
        return text

    def parse_extends(self, elem: Element, keyword: int, clause) -> Optional[str]:
        target = self.expect("identifier", what="a use case id")
        if target is None or self.expect("identifier", "onExtensionPoint") is None:
            return None
        point = self.expect("identifier", what="an extension point")
        if point is None:
            return None
        elem.extends_point = self.texts[point]
        setattr(elem, clause[4], self.span_from(keyword))
        return self.texts[target]

    def parse_property(self, elem: Element, keyword: int, clause) -> Optional[str]:
        kind_i = self.expect("identifier", what="an element kind")
        if kind_i is None or self.expect(".") is None:
            return None
        frag_i = self.expect("identifier", what="a fragment (id, name or description)")
        if frag_i is None:
            return None
        kind, fragment = self.texts[kind_i], self.texts[frag_i]
        if kind not in ELEMENT_KINDS:
            self.error("RSL-S004", f"Unknown element kind '{kind}'", self.span(kind_i))
            return None
        if fragment not in FRAGMENTS:
            self.error("RSL-S004", f"Unknown fragment '{fragment}'", self.span(frag_i))
            return None
        elem.fragment = fragment
        return kind

    def parse_attribute(self, entity: DataEntity, keyword: int, clause) -> Optional[tuple]:
        """`id "Name" : Type [[constraints (...)] [defaultValue "..."]]`, read inline."""
        kinds, texts = self.kinds, self.texts
        id_i = self.pos
        if kinds[id_i] != "identifier":
            return self.expected(id_i, "an attribute id")
        name_i = id_i + 1
        if kinds[name_i] != "string":
            return self.expected(name_i, "an attribute name")
        if kinds[name_i + 1] != ":":
            return self.expected(name_i + 1, ":")
        pos = name_i + 2
        if kinds[pos] != "identifier":
            return self.expected(pos, "a data type")
        dtype = texts[pos]
        pos += 1
        if dtype not in DATA_TYPES:
            self.pos = pos
            self.error("RSL-S004", f"Unknown data type '{dtype}'", self.span(pos - 1))
            return None
        constraints: list[str] = []
        default_value = None
        if kinds[pos] == "[":
            pos += 1
            while kinds[pos] != "]":
                option = texts[pos] if kinds[pos] == "identifier" else None
                if option == "constraints":
                    pos += 1
                    if kinds[pos] != "(":
                        return self.expected(pos, "(")
                    pos += 1
                    while True:
                        if kinds[pos] != "identifier":
                            return self.expected(pos, "a constraint")
                        c = texts[pos]
                        pos += 1
                        if c not in CONSTRAINTS:
                            self.pos = pos
                            self.error("RSL-S004", f"Unknown constraint '{c}'", self.span(pos - 1))
                            return None
                        constraints.append(c)
                        if kinds[pos] != ",":
                            break
                        pos += 1
                    if kinds[pos] != ")":
                        return self.expected(pos, ")")
                    pos += 1
                elif option == "defaultValue":
                    pos += 1
                    if kinds[pos] != "string":
                        return self.expected(pos, "a string")
                    default_value = texts[pos]
                    pos += 1
                else:
                    self.pos = pos
                    self.error("RSL-S002", f"Unexpected token '{texts[pos]}' in attribute options")
                    return None
            pos += 1
        self.pos = pos
        return entity.attributes + (
            Attribute(
                id=texts[id_i],
                name=texts[name_i],
                data_type=dtype,
                constraints=tuple(constraints),
                default_value=default_value,
                span=self.span_from(keyword),
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
            if self.accept("+") is None:
                break
        return PatternExpr(tuple(parts))

    def parse_pattern_part(self):
        if self.accept("(") is not None:
            options = []
            while True:
                atom = self.parse_pattern_atom()
                if atom is None:
                    return None
                options.append(atom)
                if self.accept("|") is None:
                    break
            if self.expect(")") is None:
                return None
            if len(options) == 1:
                return options[0]
            return AltPart(tuple(options))
        return self.parse_pattern_atom()

    def parse_pattern_atom(self):
        pos = self.pos
        kind, text = self.kinds[pos], self.texts[pos]
        if kind == "string":
            self.pos = pos + 1
            return LitPart(text)
        if kind == "identifier":
            self.pos = pos + 1
            if self.accept(".") is not None:
                frag = self.expect("identifier", what="a fragment (id, name or description)")
                if frag is None:
                    return None
                if text not in ELEMENT_KINDS:
                    self.error("RSL-S003", f"Unknown element kind '{text}' in pattern", self.span(pos))
                    return None
                fragment = self.texts[frag]
                if fragment not in FRAGMENTS:
                    self.error("RSL-S003", f"Unknown fragment '{fragment}' in pattern", self.span(frag))
                    return None
                return FragmentRefPart(text, fragment)
            if text in POS_CATEGORIES:
                return PosPart(text)
            self.error("RSL-S003", f"Unknown POS category '{text}' in pattern", self.span(pos))
            return None
        self.error("RSL-S003", f"Expected a pattern part but found '{text or 'end of input'}'", self.span(pos))
        return None


_CLAUSES = {kind: {c[0]: c for c in row["clauses"]} for kind, row in KIND_TABLE.items()}
_CLAUSE_VALUE = {
    "string": _Parser.parse_string,
    "ref": _Parser.parse_reference,
    "parent": _Parser.parse_reference,
    "ids": _Parser.parse_list,
    "strings": _Parser.parse_list,
    "enum": _Parser.parse_enum,
    "pattern": lambda parser, elem, keyword, clause: parser.parse_pattern(),
    "attribute": _Parser.parse_attribute,
    "extends": _Parser.parse_extends,
    "property": _Parser.parse_property,
}


def parse(source: str, file: str = "<memory>") -> tuple[Model, list[Diagnostic]]:
    """Parse a document; never raises on malformed input."""
    p = _Parser(source, file)
    model = p.parse_document()
    return model, p.diagnostics
