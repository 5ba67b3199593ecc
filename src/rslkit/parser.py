"""Recursive-descent parser with recovery.

Syntax errors become RSL-S0xx diagnostics, so every well-formed element
in a broken document still reaches the later checks. A parser that cannot
go on reports why and gives up with `raise self.fail(...)` (or through
`expect`, which does the same); it never returns a failure value.
`_GiveUp` is caught in exactly two places:

- `parse_document`, around each declaration: a declaration that gives up
  is dropped, and `skip_to_top` resumes at the next top-level keyword at
  bracket depth 0 or at the start of a line, as after any declaration
  that reported an error.
- `parse_body`, around the clause loop: an element body that breaks off
  keeps the clauses read before the break, and the element is kept.

Errors that do not stop the parse (S005, S006, S007, a rule with no
pattern, a body cut off by the end of input) are only recorded by `error`.

The parser reads the lexer's token arrays by index and never builds a
token object. `pos` is the index of the next token. `accept` and
`expect` are the only code that consumes a token the grammar asks for:
`accept` returns the index of the token it consumed, or None when the
optional token is absent, and `expect` returns that index or gives up
with RSL-S002. Only look-ahead reads `kinds[pos]` itself: the
declaration dispatch of `parse_document`, the clause dispatch of
`parse_body`, `parse_pattern_atom` and `skip_to_top`. A span is made
only where the model or a diagnostic keeps one (`span`, `span_from`,
`content_span`), and it is two offsets until someone reads its line or
column (see `lexer.LineTable`).
"""

from __future__ import annotations

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
    PosPart,
    SourceSpan,
)

INCLUDE_KEYWORDS = {"Include", "Import", "IncludeAll"}
TOP_KEYWORDS = set(ELEMENT_KINDS) | INCLUDE_KEYWORDS
BODY_KEYWORDS = {c[0] for row in KIND_TABLE.values() for c in row["clauses"]}


class _GiveUp(Exception):
    """A parser gave up after reporting why; see the module docstring for where it is caught."""


class _Parser:
    def __init__(self, source: str, file: str, lex):
        tokens = tokenize(source, file, lex)
        self.kinds = tokens.kinds
        self.texts = tokens.texts
        self.starts = tokens.starts
        self.ends = tokens.ends
        self.lines = tokens.lines
        self.pos = 0  # index of the next token
        self.diagnostics: list[Diagnostic] = []
        # A parse whose lex is kept records its declarations, and the parse
        # of the re-lexed text keeps those whose tokens were copied (see `relex.Lex`).
        self.decls = self.kept = None
        if lex is not None and lex.tokens is not None:
            self.decls = lex.decls = []
        elif lex is not None and lex.runs is not None:
            from .relex import Kept

            self.kept = Kept(lex, tokens.lines)

    # -- token plumbing ---------------------------------------------------

    def accept(self, kind: str, text: str | None = None) -> int | None:
        """Consume the next token if it has this kind (and text); its index, or None."""
        pos = self.pos
        if self.kinds[pos] == kind and (text is None or self.texts[pos] == text):
            self.pos = pos + 1
            return pos
        return None

    def expect(self, kind: str, text: str | None = None, what: str = "") -> int:
        """Consume the next token, which must have this kind (and text); its index, or give up."""
        pos = self.pos
        if self.kinds[pos] == kind and (text is None or self.texts[pos] == text):
            self.pos = pos + 1
            return pos
        raise self.fail("RSL-S002", f"Expected {what or text or kind} but found '{self.texts[pos] or 'end of input'}'")

    def error(self, code: str, message: str, span: SourceSpan | None = None):
        span = span or self.span(self.pos)
        self.diagnostics.append(Diagnostic("Error", code, message, span))

    def fail(self, code: str, message: str, span: SourceSpan | None = None) -> _GiveUp:
        """Report an error that stops the current parser; the caller writes `raise self.fail(...)`."""
        self.error(code, message, span)
        return _GiveUp()

    def span(self, i: int) -> SourceSpan:
        return self.lines.span(self.starts[i], self.ends[i])

    def span_from(self, i: int) -> SourceSpan:
        """From token i to the last token consumed, or token i alone if that came before it."""
        return self.lines.span(self.starts[i], self.ends[max(self.pos - 1, i)])

    def content_span(self, i: int) -> SourceSpan:
        """Span of string token i's contents, inside the quotes."""
        start = self.starts[i] + 1
        return self.lines.span(start, max(self.ends[i] - 1, start))

    def skip_to_top(self):
        """Recover: skip until the next top-level keyword at bracket depth 0 or at the start of a line.

        A keyword in column 1 ends the skip at any depth, so one stray `[`
        does not swallow every declaration after it.
        """
        kinds, texts, starts, source = self.kinds, self.texts, self.starts, self.lines.source
        pos, depth = self.pos, 0
        while True:
            kind = kinds[pos]
            if kind == "[":
                depth += 1
            elif kind == "]":
                depth = max(depth - 1, 0)
            elif kind == "end" or (
                kind == "identifier"
                and texts[pos] in TOP_KEYWORDS
                and (depth == 0 or starts[pos] == 0 or source[starts[pos] - 1] in "\r\n")
            ):
                break
            pos += 1
        self.pos = pos

    # -- document ----------------------------------------------------------

    def parse_document(self) -> Model:
        model = Model()
        kinds, texts, kept, decls = self.kinds, self.texts, self.kept, self.decls
        while kinds[self.pos] != "end":
            pos = self.pos
            taken = kept and kept.take(pos)
            if taken:  # declarations of the first parse that the edits left alone, spans shifted
                elements, includes, diags, self.pos = taken
                model.elements += elements
                model.includes += includes
                self.diagnostics += diags
                continue
            text = texts[pos]
            before = len(self.diagnostics)
            decl = None
            try:
                if kinds[pos] != "identifier" or text not in TOP_KEYWORDS:
                    self.pos = pos + 1
                    raise self.fail("RSL-S001", f"Unknown declaration '{text}'", self.span(pos))
                if text in INCLUDE_KEYWORDS:
                    decl = self.parse_include()
                    model.includes.append(decl)
                else:
                    decl = elem = self.parse_element()
                    model.elements.append(elem)
                    if elem.kind == "LinguisticLanguage":
                        if model.language_decl is None:
                            model.language_decl = elem
                        else:
                            self.error("RSL-S005", "Duplicate LinguisticLanguage declaration", elem.span)
            except _GiveUp:
                pass
            if len(self.diagnostics) > before:
                self.skip_to_top()
            if decls is not None:
                decls.append((pos, self.pos, decl, tuple(self.diagnostics[before:])))
        model.end_span = self.span(len(kinds) - 1)
        return model

    # -- includes ----------------------------------------------------------

    def parse_include(self) -> IncludeDecl:
        start = self.pos
        self.pos = start + 1
        mode = self.texts[start]
        element_kind = element_id = None
        if mode == "Include":
            kind_i = self.expect("identifier", what="an element kind")
            element_kind = self.texts[kind_i]
            if element_kind not in ELEMENT_KINDS:
                raise self.fail("RSL-S004", f"Unknown element kind '{element_kind}'", self.span(kind_i))
        self.expect("identifier", "fromSystem")
        sys_i = self.expect("identifier", what="a system name")
        if mode == "Include":
            self.expect("identifier", "element")
            element_id = self.texts[self.expect("identifier", what="an element id")]
        return IncludeDecl(mode, self.texts[sys_i], element_kind, element_id, self.span_from(start))

    # -- elements ----------------------------------------------------------

    def parse_element(self) -> Element:
        """`Kind id ["Name"] [: Type[.Subtype]] [[ clauses ]]`."""
        texts = self.texts
        start = self.pos
        row = KIND_TABLE[texts[start]]
        self.pos = start + 1
        id_i = self.expect("identifier", what="an identifier")
        name_i = self.accept("string")
        type_i = subtype_i = None
        if self.accept(":") is not None:
            type_i = self.expect("identifier", what="a type")
            if row.get("subtype") and self.accept(".") is not None:
                subtype_i = self.expect("identifier", what="a subtype")

        _, type_field, default, allowed, unknown = row["type"]
        type_text = default if type_i is None else texts[type_i]
        if allowed is not None and type_text not in allowed:
            raise self.fail("RSL-S004", unknown.format(type_text), self.span(id_i if type_i is None else type_i))
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
        if self.accept("[") is not None:
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
        attributes = []  # a DataEntity's, stored once, when the body ends or breaks off
        closed = True
        try:
            while True:
                pos = self.pos
                kind = kinds[pos]
                if kind == "]":
                    self.pos = pos + 1
                    break
                if kind == "end":
                    self.error("RSL-S002", "Expected ']' but found end of input")
                    closed = False
                    break
                keyword = texts[pos]
                if kind != "identifier" or keyword not in BODY_KEYWORDS:
                    raise self.fail("RSL-S002", f"Unexpected token '{keyword}' in element body", self.span(pos))
                self.pos = pos + 1
                clause = clauses.get(keyword)
                if clause is None:
                    raise self.fail(
                        "RSL-S002", f"Clause '{keyword}' is not allowed in a {elem.kind} body", self.span(pos)
                    )
                value = _CLAUSE_VALUE[clause[2]](self, elem, pos, clause)
                if clause[2] == "attribute":
                    attributes.append(value)
                else:
                    setattr(elem, clause[1], value)
        except _GiveUp:
            return False
        finally:
            if attributes:
                elem.attributes = tuple(attributes)
        self.finish_body(elem)
        return closed

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
    # returns the value of the clause's field (for an attribute clause, one
    # attribute for `parse_body` to collect), or gives up; it sets the
    # span and any second field.

    def parse_string(self, elem: Element, keyword: int, clause) -> str:
        s = self.expect("string", what="a string")
        if clause[4]:
            setattr(elem, clause[4], self.content_span(s))
        return self.texts[s]

    def parse_reference(self, elem: Element, keyword: int, clause) -> str:
        target = self.expect("identifier", what="an element id")
        # A hierarchy edge's span runs from the keyword: V003's fix deletes the clause.
        setattr(elem, clause[4], self.span_from(keyword) if clause[2] == "parent" else self.span(target))
        return self.texts[target]

    def parse_list(self, elem: Element, keyword: int, clause) -> tuple:
        kind, what = ("identifier", "an identifier") if clause[2] == "ids" else ("string", "a string")
        values = [self.texts[self.expect(kind, what=what)]]
        while self.accept(",") is not None:
            values.append(self.texts[self.expect(kind, what=what)])
        return tuple(values)

    def parse_enum(self, elem: Element, keyword: int, clause) -> str:
        allowed = clause[3]
        value = self.expect("identifier", what=", ".join(allowed[:-1]) + " or " + allowed[-1])
        text = self.texts[value]
        if text not in allowed:
            raise self.fail("RSL-S004", f"Unknown {self.texts[keyword]} '{text}'", self.span(value))
        return text

    def parse_extends(self, elem: Element, keyword: int, clause) -> str:
        target = self.expect("identifier", what="a use case id")
        self.expect("identifier", "onExtensionPoint")
        elem.extends_point = self.texts[self.expect("identifier", what="an extension point")]
        setattr(elem, clause[4], self.span_from(keyword))
        return self.texts[target]

    def parse_property(self, elem: Element, keyword: int, clause) -> str:
        kind_i = self.expect("identifier", what="an element kind")
        self.expect(".")
        frag_i = self.expect("identifier", what="a fragment (id, name or description)")
        kind, fragment = self.texts[kind_i], self.texts[frag_i]
        if kind not in ELEMENT_KINDS:
            raise self.fail("RSL-S004", f"Unknown element kind '{kind}'", self.span(kind_i))
        if fragment not in FRAGMENTS:
            raise self.fail("RSL-S004", f"Unknown fragment '{fragment}'", self.span(frag_i))
        elem.fragment = fragment
        return kind

    def parse_attribute(self, entity: DataEntity, keyword: int, clause) -> Attribute:
        """`id "Name" : Type [[constraints (...)] [defaultValue "..."]]`."""
        texts = self.texts
        id_i = self.expect("identifier", what="an attribute id")
        name_i = self.expect("string", what="an attribute name")
        self.expect(":")
        type_i = self.expect("identifier", what="a data type")
        if texts[type_i] not in DATA_TYPES:
            raise self.fail("RSL-S004", f"Unknown data type '{texts[type_i]}'", self.span(type_i))
        constraints: list[str] = []
        default_value = None
        if self.accept("[") is not None:
            while self.accept("]") is None:
                if self.accept("identifier", "constraints") is not None:
                    self.expect("(")
                    while True:
                        c = self.expect("identifier", what="a constraint")
                        if texts[c] not in CONSTRAINTS:
                            raise self.fail("RSL-S004", f"Unknown constraint '{texts[c]}'", self.span(c))
                        constraints.append(texts[c])
                        if self.accept(",") is None:
                            break
                    self.expect(")")
                elif self.accept("identifier", "defaultValue") is not None:
                    default_value = texts[self.expect("string", what="a string")]
                else:
                    raise self.fail("RSL-S002", f"Unexpected token '{texts[self.pos]}' in attribute options")
        return Attribute(
            id=texts[id_i],
            name=texts[name_i],
            data_type=texts[type_i],
            constraints=tuple(constraints),
            default_value=default_value,
            span=self.span_from(keyword),
        )

    # -- linguistic patterns -------------------------------------------------

    def parse_pattern(self) -> tuple:
        parts = [self.parse_pattern_part()]
        while self.accept("+") is not None:
            parts.append(self.parse_pattern_part())
        return tuple(parts)

    def parse_pattern_part(self):
        if self.accept("(") is None:
            return self.parse_pattern_atom()
        options = [self.parse_pattern_atom()]
        while self.accept("|") is not None:
            options.append(self.parse_pattern_atom())
        self.expect(")")
        return options[0] if len(options) == 1 else AltPart(tuple(options))

    def parse_pattern_atom(self):
        pos = self.pos
        kind, text = self.kinds[pos], self.texts[pos]
        if kind == "string":
            self.pos = pos + 1
            return LitPart(text)
        if kind != "identifier":
            raise self.fail("RSL-S003", f"Expected a pattern part but found '{text or 'end of input'}'", self.span(pos))
        self.pos = pos + 1
        if self.accept(".") is None:
            if text in POS_CATEGORIES:
                return PosPart(text)
            raise self.fail("RSL-S003", f"Unknown POS category '{text}' in pattern", self.span(pos))
        frag = self.expect("identifier", what="a fragment (id, name or description)")
        if text not in ELEMENT_KINDS:
            raise self.fail("RSL-S003", f"Unknown element kind '{text}' in pattern", self.span(pos))
        fragment = self.texts[frag]
        if fragment not in FRAGMENTS:
            raise self.fail("RSL-S003", f"Unknown fragment '{fragment}' in pattern", self.span(frag))
        return FragmentRefPart(text, fragment)


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


def parse(source: str, file: str = "<memory>", lex=None) -> tuple[Model, list[Diagnostic]]:
    """Parse a document; never raises on malformed input.

    `lex` keeps this file's tokens for a parse of its edited text, which
    then scans only around the edits (see `relex.Lex`).
    """
    p = _Parser(source, file, lex)
    model = p.parse_document()
    return model, p.diagnostics
