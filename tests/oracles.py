"""Independent reference implementations used to cross-check the library.

The cycle oracle here deliberately avoids strongly connected components:
a node lies on a simple cycle exactly when it is reachable from one of
its own successors, which plain BFS decides.

The matcher oracle is the plain backtracking search: it rescans the
element list for fragment values on every call, tries every run length
and memoizes nothing, so it is exponential on adversarial input.

The tokenizer oracle is the character loop the lexer used to be: it
walks every character to keep line and column and builds every span
eagerly. A line ends at "\r\n", a lone "\r" or "\n", as with universal
newlines, and a string or a `//` comment stops at either character.

The line-start oracle walks the text one character at a time, and a
line starts after each "\n", each "\r" not followed by "\n", as in the
tokenizer oracle.

The workspace-loader oracle is the eager loader the CLI used to have: it
parses every input and manifest entry up front, whether or not a target
reaches it.

The load-outcome oracle states which problem, if any, stops a command
before any check runs: each target in argument order, then each other
system of the mapping, either names a system id that another file has
already, or cannot be read; the first of these is reported.

The parser oracle (`TokenObjectParser`) is the table-driven parser as it
was before the lexer returned token arrays: it walks the tokenizer
oracle's `OracleToken` list with a method call per token test, so the
index-based parser can be compared with it model for model, span for span
and diagnostic for diagnostic, and shares no lexer with it.

The element-kind oracles are the per-kind code the element-kind table
replaced, kept as it was on top of that parser: its element head and clause layer,
the element printer, the JSON and text builders and the reference
binding of `resolve`, each one hand-written `isinstance` ladder per kind,
plus the pattern renderer that L001 messages use. Its include walk is
its own copy of the library's, with an `Import` walked by `resolve`
itself, so a change to the library's walk shows against it.

The tagger oracle is `analyze` as it was before `Lexicon.tag` memoized
each word: it looks every word up again on every call. Its one change
is the tie rule among equally short lemmas, so the two agree on ties
too. The glossary oracle is `check_glossary` before the screen: it
analyzes every name and description with that tagger.

The template-evaluator oracle is `evaluate` as it was before the engine
took one missing value and operator and builtin tables: its own `_Null`
sentinel beside `None`, an if-ladder per binary operator and one per
builtin. It shares only the expression records and
`ExpressionTypeError` with the library. Its one change is the index
rule: only a whole number that is not a bool reads a position.

The argument-parser oracle is `cli.make_parser` as it was when it built
every command's parser on each call: its help and usage errors are what
the CLI must still print, byte for byte, on every Python version.

The rename oracle is `checks.fresh_id` as it was before V001 resumed
its scan within a group of copies: each new id is sought from `{id}_2`
again, so a group of N copies tries O(N^2) ids.

The fix-edit oracles are `cli.collect_fix_edits` and `model.apply_edits`
as they were before each became one pass: the first tests a new edit
against every edit chosen so far and keeps each file's edits in the order
found, the second re-slices the whole text once per edit.
"""

import argparse
import json
import os
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from rslkit import cli
from rslkit.lexicon import WORD_RE, Lexicon, Token
from rslkit.rules import MatchResult, normalize
from rslkit.model import (
    CONSTRAINTS,
    DATA_TYPES,
    ELEMENT_KINDS,
    FRAGMENTS,
    KIND_TABLE,
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
    OverlappingEdits,
    PosPart,
    QuickFix,
    SourceSpan,
    Stakeholder,
    Term,
    TextEdit,
    UseCase,
)
from rslkit.printer import print_include, quote
from rslkit.template import Binary, Call, Conditional, ExpressionTypeError, Index, Lit, Member, Name, Unary
from rslkit.workspace import MAX_INCLUDE_DEPTH, ResolvedModel, Workspace, add_system


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


def oracle_fresh_id(base: str, taken: set) -> str:
    """`base`, else the first free `{base}_{n}` with n >= 2; the id chosen joins `taken`."""
    new_id = base
    n = 1
    while new_id in taken:
        n += 1
        new_id = f"{base}_{n}"
    taken.add(new_id)
    return new_id


def _fragment_values(elements, kind: str, fragment: str) -> set:
    values = set()
    for elem in elements:
        if elem.kind != kind:
            continue
        value = elem.fragment_value(fragment)
        if value:
            values.add(normalize(value))
    return values


def oracle_match_pattern(parts, tokens, elements) -> MatchResult:
    """Match pattern parts left to right against tokens (prefix semantics)."""
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

    @property
    def start(self) -> int:
        return self.span.offset

    @property
    def end(self) -> int:
        return self.span.end_offset


def content_span(tok: OracleToken) -> SourceSpan:
    """Span inside the quotes of a string token; a string never crosses a line."""
    return tok.span.slice(1, max(tok.span.length - 1, 1))


def oracle_line_starts(source: str) -> list[int]:
    starts = [0]
    for i, ch in enumerate(source):
        if ch == "\n" or (ch == "\r" and source[i + 1 : i + 2] != "\n"):
            starts.append(i + 1)
    return starts


def oracle_tokenize(source: str, file: str = "<memory>") -> list[OracleToken]:
    tokens: list[OracleToken] = []
    line, col = 1, 1
    i, n = 0, len(source)

    def advance(text: str):
        """Move past `text`, which is source[i:i + len(text)]."""
        nonlocal line, col
        for k, ch in enumerate(text, start=i):
            if ch == "\n" or (ch == "\r" and source[k + 1 : k + 2] != "\n"):
                line += 1
                col = 1
            else:
                col += 1

    def make(kind, text, start, start_line, start_col, raw=None):
        span = SourceSpan(file, start_line, start_col, line, col, start, i - start)
        tokens.append(OracleToken(kind, text, span, raw if raw is not None else text))

    if source.startswith("\ufeff"):  # a byte-order mark is skipped, but keeps its offset and column
        advance(source[0])
        i = 1
    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance(ch)
            i += 1
            continue
        if ch == "/" and source.startswith("//", i):
            j = i
            while j < n and source[j] not in "\r\n":
                j += 1
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
                if c in "\r\n":
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
        add_system(ws, name, cli.read_source(path, f"'{path}'"), str(path))
        targets.append(name)
    for name, path in mapping.items():
        if name in seen:
            continue
        seen.add(name)
        add_system(ws, name, cli.read_source(path, f"'{path}'"), str(Path(path)))
    return ws, targets


def oracle_load_outcome(paths: list[str], mapping: dict) -> tuple[int, str]:
    """(exit code, stderr) of `rslkit check` on `paths` with the `--system` `mapping`, when every readable file is clean.

    Every target and every other system of the mapping is examined, and
    the first problem found, in that order, is the one reported.
    """

    def unreadable(path: str) -> Optional[str]:
        try:
            Path(path).read_bytes().decode("utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            return f"cannot read '{path}': {exc}"
        return None

    name_of_file = {os.path.abspath(p): name for name, p in mapping.items()}
    given = {}  # system id -> the target path read under it, as given
    problems = []
    for path in paths:
        name = name_of_file.get(os.path.abspath(path), Path(path).stem)
        other = given.get(name, mapping.get(name))
        if other is not None and os.path.abspath(other) != os.path.abspath(path):
            problems.append(
                f"system id '{name}' names two files, '{other}' and '{path}'; "
                "give one of them its own id with --system NAME=PATH"
            )
        elif name not in given:
            given[name] = path
            problems.append(unreadable(path))
    problems += [unreadable(path) for name, path in mapping.items() if name not in given]
    first = next((problem for problem in problems if problem is not None), None)
    return (0, "") if first is None else (2, f"error: {first}\n")


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


_TOP_KEYWORDS = set(ELEMENT_KINDS) | {"Include", "Import", "IncludeAll"}


class TokenObjectParser:
    """The table-driven parser as it was before the token arrays.

    It walks the `oracle_tokenize` list and makes one method call per
    token test; `parse` must give the same models, spans and diagnostics.
    """

    def __init__(self, source: str, file: str):
        self.tokens = oracle_tokenize(source, file)
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []

    # -- token plumbing ---------------------------------------------------

    def peek(self) -> OracleToken:
        return self.tokens[self.pos]

    def next(self) -> OracleToken:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[OracleToken]:
        if self.at(kind, text):
            return self.next()
        return None

    def error(self, code: str, message: str, span: Optional[SourceSpan] = None):
        span = span or self.peek().span
        self.diagnostics.append(Diagnostic("Error", code, message, span))

    def expect(self, kind: str, text: Optional[str] = None, what: str = "") -> Optional[OracleToken]:
        tok = self.accept(kind, text)
        if tok is None:
            want = what or text or kind
            got = self.peek().text or "end of input"
            self.error("RSL-S002", f"Expected {want} but found '{got}'")
        return tok

    def skip_to_top(self):
        """Recover: skip until the next top-level keyword at bracket depth 0 or in column 1."""
        depth = 0
        while not self.at("end"):
            tok = self.peek()
            if tok.kind == "punct" and tok.text == "[":
                depth += 1
            elif tok.kind == "punct" and tok.text == "]":
                depth = max(depth - 1, 0)
            elif tok.kind == "identifier" and tok.text in _TOP_KEYWORDS and (depth == 0 or tok.span.start_col == 1):
                return
            self.next()

    def span_from(self, start: OracleToken) -> SourceSpan:
        last = self.tokens[max(self.pos - 1, 0)]
        if last.start < start.start:
            last = start
        first, last = start.span, last.span
        return SourceSpan(
            first.file,
            first.start_line,
            first.start_col,
            last.end_line,
            last.end_col,
            first.offset,
            last.end_offset - first.offset,
        )

    # -- document ----------------------------------------------------------

    def parse_document(self) -> Model:
        model = Model()
        while not self.at("end"):
            tok = self.peek()
            if tok.kind != "identifier" or tok.text not in _TOP_KEYWORDS:
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
        clause = _TABLE_CLAUSES[elem.kind].get(keyword)
        if clause is None:
            self.error("RSL-S002", f"Clause '{keyword}' is not allowed in a {elem.kind} body", tok.span)
            return False
        value = _TABLE_CLAUSE_VALUE[clause[2]](self, elem, tok, clause)
        if value is None:
            return False
        setattr(elem, clause[1], value)
        return True

    # Each clause-value parser returns the value of the clause's field, or
    # None after reporting an error; it sets the span and any second field.

    def parse_string(self, elem: Element, tok: OracleToken, clause) -> Optional[str]:
        s = self.expect("string", what="a string")
        if s is None:
            return None
        if clause[4]:
            setattr(elem, clause[4], content_span(s))
        return s.text

    def parse_reference(self, elem: Element, tok: OracleToken, clause) -> Optional[str]:
        target = self.expect("identifier", what="an element id")
        if target is None:
            return None
        # A hierarchy edge's span runs from the keyword: V003's fix deletes the clause.
        setattr(elem, clause[4], self.span_from(tok) if clause[2] == "parent" else target.span)
        return target.text

    def parse_list(self, elem: Element, tok: OracleToken, clause) -> Optional[tuple]:
        kind, what = ("identifier", "an identifier") if clause[2] == "ids" else ("string", "a string")
        values = []
        while True:
            value = self.expect(kind, what=what)
            if value is None:
                return None
            values.append(value.text)
            if not self.accept("punct", ","):
                return tuple(values)

    def parse_enum(self, elem: Element, tok: OracleToken, clause) -> Optional[str]:
        allowed = clause[3]
        value = self.expect("identifier", what=", ".join(allowed[:-1]) + " or " + allowed[-1])
        if value is None:
            return None
        if value.text not in allowed:
            self.error("RSL-S004", f"Unknown {tok.text} '{value.text}'", value.span)
            return None
        return value.text

    def parse_extends(self, elem: Element, tok: OracleToken, clause) -> Optional[str]:
        target = self.expect("identifier", what="a use case id")
        if target is None or self.expect("identifier", "onExtensionPoint") is None:
            return None
        point = self.expect("identifier", what="an extension point")
        if point is None:
            return None
        elem.extends_point = point.text
        setattr(elem, clause[4], self.span_from(tok))
        return target.text

    def parse_property(self, elem: Element, tok: OracleToken, clause) -> Optional[str]:
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

    def parse_attribute(self, entity: DataEntity, start: OracleToken, clause) -> Optional[tuple]:
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

    def parse_pattern(self) -> Optional[tuple]:
        parts = []
        while True:
            part = self.parse_pattern_part()
            if part is None:
                return None
            parts.append(part)
            if not self.accept("punct", "+"):
                break
        return tuple(parts)

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


_TABLE_CLAUSES = {kind: {c[0]: c for c in row["clauses"]} for kind, row in KIND_TABLE.items()}
_TABLE_CLAUSE_VALUE = {
    "string": TokenObjectParser.parse_string,
    "ref": TokenObjectParser.parse_reference,
    "parent": TokenObjectParser.parse_reference,
    "ids": TokenObjectParser.parse_list,
    "strings": TokenObjectParser.parse_list,
    "enum": TokenObjectParser.parse_enum,
    "pattern": lambda parser, elem, tok, clause: parser.parse_pattern(),
    "attribute": TokenObjectParser.parse_attribute,
    "extends": TokenObjectParser.parse_extends,
    "property": TokenObjectParser.parse_property,
}


def oracle_token_object_parse(source: str, file: str = "<memory>"):
    p = TokenObjectParser(source, file)
    model = p.parse_document()
    return model, p.diagnostics


class OracleParser(TokenObjectParser):
    """The parser's element and clause layer as it was before the kind table."""

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

    def wrong_clause(self, tok: OracleToken, elem: Element) -> bool:
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

    def parse_attribute(self, entity: DataEntity, start: OracleToken) -> bool:
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


def oracle_parse(source: str, file: str = "<memory>"):
    p = OracleParser(source, file)
    model = p.parse_document()
    return model, p.diagnostics


def oracle_print_pattern(parts: tuple) -> str:
    def atom(part):
        if isinstance(part, PosPart):
            return part.category
        if isinstance(part, LitPart):
            return quote(part.text)
        if isinstance(part, FragmentRefPart):
            return f"{part.element_kind}.{part.fragment}"
        raise TypeError(part)

    rendered = []
    for part in parts:
        if isinstance(part, AltPart):
            rendered.append("(" + " | ".join(atom(o) for o in part.options) + ")")
        else:
            rendered.append(atom(part))
    return " + ".join(rendered)

def oracle_print_element(elem: Element) -> str:
    head = elem.kind + " " + elem.id
    if elem.name is not None:
        head += " " + quote(elem.name)
    body: list[str] = []

    if isinstance(elem, DataEntity):
        head += " : " + elem.entity_type
        for a in elem.attributes:
            line = f"attribute {a.id} {quote(a.name)} : {a.data_type}"
            opts = []
            if a.constraints:
                opts.append("constraints (" + ", ".join(a.constraints) + ")")
            if a.default_value is not None:
                opts.append("defaultValue " + quote(a.default_value))
            if opts:
                line += " [" + " ".join(opts) + "]"
            body.append(line)
        if elem.is_a:
            body.append("isA " + elem.is_a)
        if elem.part_of:
            body.append("partOf " + elem.part_of)
    elif isinstance(elem, Actor):
        head += " : " + elem.actor_type
        if elem.is_a:
            body.append("isA " + elem.is_a)
    elif isinstance(elem, UseCase):
        head += " : " + elem.uc_type
        if elem.primary_actor:
            body.append("primaryActor " + elem.primary_actor)
        if elem.data_entity:
            body.append("dataEntity " + elem.data_entity)
        if elem.actions:
            body.append("actions " + ", ".join(elem.actions))
        if elem.extension_points:
            body.append("extensionPoints " + ", ".join(elem.extension_points))
        if elem.extends_target:
            body.append(f"extends {elem.extends_target} onExtensionPoint {elem.extends_point}")
        if elem.precondition is not None:
            body.append("precondition " + quote(elem.precondition))
    elif isinstance(elem, Term):
        head += " : " + elem.pos_category
        if elem.synonyms:
            body.append("synonyms " + ", ".join(quote(s) for s in elem.synonyms))
    elif isinstance(elem, LinguisticRuleDecl):
        head += " : Syntax"
        body.append(f"property {elem.target_kind}.{elem.fragment}")
        if elem.pattern is not None:
            body.append("pattern " + oracle_print_pattern(elem.pattern))
        body.append("severity " + elem.severity)
    elif isinstance(elem, LinguisticLanguageDecl):
        head += " : " + elem.language
    elif isinstance(elem, Stakeholder):
        head += " : " + elem.stakeholder_type
        if elem.stakeholder_subtype:
            head += "." + elem.stakeholder_subtype
    elif isinstance(elem, FunctionalRequirement):
        head += " : " + elem.fr_type

    if elem.description is not None:
        body.append("description " + quote(elem.description))

    if not body:
        return head
    return head + " [\n" + "\n".join("  " + line for line in body) + "\n]"


def oracle_print_model(model) -> str:
    chunks = [print_include(inc) for inc in model.includes]
    chunks += [oracle_print_element(e) for e in model.elements]
    if not chunks:
        return ""
    return "\n\n".join(chunks) + "\n"


def _common(elem) -> dict:
    out = {"id": elem.id, "name": elem.name, "nameAlias": elem.name_alias}
    if elem.description is not None:
        out["description"] = elem.description
    return out


def _ref(rm: ResolvedModel, elem, field: str, ref_id):
    if ref_id is None:
        return None
    target = rm.binding(elem, field)
    if target is None:
        return {"id": ref_id}
    return {"id": target.id, "name": target.name_alias}


def oracle_build_json_doc(rm: ResolvedModel) -> dict:
    elements = {
        "dataEntities": [],
        "actors": [],
        "useCases": [],
        "terms": [],
        "stakeholders": [],
        "functionalRequirements": [],
        "linguisticRules": [],
    }
    for elem in rm.effective_elements:
        if isinstance(elem, DataEntity):
            entry = _common(elem)
            entry["type"] = {"type": elem.entity_type}
            entry["attributes"] = [
                {
                    "id": a.id,
                    "name": a.name,
                    "dataType": a.data_type,
                    "constraints": list(a.constraints),
                    **({"defaultValue": a.default_value} if a.default_value is not None else {}),
                }
                for a in elem.attributes
            ]
            if elem.is_a:
                entry["isA"] = elem.is_a
            if elem.part_of:
                entry["partOf"] = elem.part_of
            elements["dataEntities"].append(entry)
        elif isinstance(elem, Actor):
            entry = _common(elem)
            entry["type"] = {"type": elem.actor_type}
            if elem.is_a:
                entry["isA"] = elem.is_a
            elements["actors"].append(entry)
        elif isinstance(elem, UseCase):
            entry = _common(elem)
            entry["type"] = {"type": elem.uc_type}
            if elem.primary_actor:
                entry["primaryActor"] = _ref(rm, elem, "primary_actor", elem.primary_actor)
            if elem.data_entity:
                entry["dataEntity"] = _ref(rm, elem, "data_entity", elem.data_entity)
            entry["actions"] = list(elem.actions)
            entry["extensionPoints"] = list(elem.extension_points)
            if elem.extends_target:
                entry["extends"] = {
                    "useCase": elem.extends_target,
                    "extensionPoint": elem.extends_point,
                }
            if elem.precondition is not None:
                entry["precondition"] = elem.precondition
            elements["useCases"].append(entry)
        elif isinstance(elem, Term):
            entry = _common(elem)
            entry["type"] = {"type": elem.pos_category}
            entry["synonyms"] = list(elem.synonyms)
            elements["terms"].append(entry)
        elif isinstance(elem, Stakeholder):
            entry = _common(elem)
            entry["type"] = {"type": elem.stakeholder_type}
            if elem.stakeholder_subtype:
                entry["type"]["subtype"] = elem.stakeholder_subtype
            elements["stakeholders"].append(entry)
        elif isinstance(elem, FunctionalRequirement):
            entry = _common(elem)
            entry["type"] = {"type": elem.fr_type}
            elements["functionalRequirements"].append(entry)
        elif isinstance(elem, LinguisticRuleDecl):
            entry = _common(elem)
            entry["type"] = {"type": elem.rule_kind}
            entry["property"] = {"targetKind": elem.target_kind, "fragment": elem.fragment}
            if elem.pattern is not None:
                entry["pattern"] = oracle_print_pattern(elem.pattern)
            entry["severity"] = elem.severity
            elements["linguisticRules"].append(entry)
        elif isinstance(elem, LinguisticLanguageDecl):
            pass  # surfaced as the top-level language field

    systems = {}
    if rm.system_id is not None:
        systems[rm.system_id] = {"elements": len(rm.effective_elements)}
    return {"language": rm.model.language, "systems": systems, "elements": elements}

def oracle_text_fields(rm: ResolvedModel, elem) -> list[tuple[str, str]]:
    fields: list[tuple[str, str]] = []
    if isinstance(elem, DataEntity):
        fields.append(("type", elem.entity_type))
        if elem.attributes:
            fields.append(
                ("attributes", ", ".join(f"{a.name} ({a.data_type})" for a in elem.attributes))
            )
        if elem.is_a:
            fields.append(("isA", elem.is_a))
        if elem.part_of:
            fields.append(("partOf", elem.part_of))
    elif isinstance(elem, Actor):
        fields.append(("type", elem.actor_type))
        if elem.is_a:
            fields.append(("isA", elem.is_a))
    elif isinstance(elem, UseCase):
        fields.append(("type", elem.uc_type))
        if elem.primary_actor:
            target = rm.binding(elem, "primary_actor")
            fields.append(("primaryActor", target.name_alias if target else elem.primary_actor))
        if elem.data_entity:
            target = rm.binding(elem, "data_entity")
            fields.append(("dataEntity", target.name_alias if target else elem.data_entity))
        if elem.actions:
            fields.append(("actions", ", ".join(elem.actions)))
        if elem.extension_points:
            fields.append(("extensionPoints", ", ".join(elem.extension_points)))
        if elem.extends_target:
            fields.append(("extends", f"{elem.extends_target} on {elem.extends_point}"))
        if elem.precondition is not None:
            fields.append(("precondition", elem.precondition))
    elif isinstance(elem, Term):
        fields.append(("type", elem.pos_category))
        if elem.synonyms:
            fields.append(("synonyms", ", ".join(elem.synonyms)))
    elif isinstance(elem, Stakeholder):
        t = elem.stakeholder_type
        if elem.stakeholder_subtype:
            t += "." + elem.stakeholder_subtype
        fields.append(("type", t))
    elif isinstance(elem, FunctionalRequirement):
        fields.append(("type", elem.fr_type))
    elif isinstance(elem, LinguisticRuleDecl):
        fields.append(("type", elem.rule_kind))
        fields.append(("property", f"{elem.target_kind}.{elem.fragment}"))
        if elem.pattern is not None:
            fields.append(("pattern", oracle_print_pattern(elem.pattern)))
        fields.append(("severity", elem.severity))
    elif isinstance(elem, LinguisticLanguageDecl):
        fields.append(("language", elem.language))
    if elem.description is not None:
        fields.append(("description", elem.description))
    return fields


def _oracle_included_elements(
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
    model = ws.system(system_id)
    if model is None:
        return []
    out = [e for e in model.elements if e.kind != "LinguisticLanguage"]
    for inc in model.includes:
        if inc.mode == "Import":
            continue
        pulled = _oracle_resolve_include(ws, inc, depth + 1, visiting + (system_id,), diags)
        if pulled is not None:
            out.extend(pulled)
    return out


def _oracle_resolve_include(
    ws: Workspace, inc: IncludeDecl, depth: int, visiting: tuple, diags: list
) -> Optional[list]:
    if inc.from_system not in ws:
        diags.append(
            Diagnostic("Error", "RSL-R002", f"Unknown system '{inc.from_system}'", inc.span)
        )
        return None
    pool = _oracle_included_elements(ws, inc.from_system, depth, visiting, diags, inc.span)
    if inc.mode == "IncludeAll":
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


def oracle_resolve(model: Model, ws: Workspace) -> ResolvedModel:
    """Realize includes and bind every internal reference."""
    system_id = ws.system_of(model)
    diags: list = []
    included: list = []
    imported_pools: list[list] = []
    visiting = (system_id,) if system_id else ()

    for inc in model.includes:
        if inc.mode == "Import":
            if inc.from_system not in ws:
                diags.append(
                    Diagnostic("Error", "RSL-R002", f"Unknown system '{inc.from_system}'", inc.span)
                )
                continue
            imported_pools.append(
                _oracle_included_elements(ws, inc.from_system, 1, visiting, diags, inc.span)
            )
            continue
        pulled = _oracle_resolve_include(ws, inc, 1, visiting, diags)
        if pulled:
            included.extend(pulled)

    # Includes conventionally head a document, so pulled elements precede
    # the document's own; inlining an include then preserves this order.
    effective = included + list(model.elements)

    rm = ResolvedModel(model, system_id, effective, diags)
    # The document's own effective list wins, then imported pools in
    # include order, each by its first element with that (kind, id).
    index = rm.index()
    for pool in imported_pools:
        for e in pool:
            index.setdefault((e.kind, e.id), e)

    def bind(elem: Element, ref_field: str, kind: str, ref_id: Optional[str], span):
        if ref_id is None:
            return
        target = index.get((kind, ref_id))
        if target is None:
            diags.append(
                Diagnostic(
                    "Error",
                    "RSL-R001",
                    f"Unresolved reference: no {kind} with id '{ref_id}'",
                    span or elem.span,
                )
            )
            return
        rm.bindings[(id(elem), ref_field)] = target

    for elem in effective:
        if isinstance(elem, Actor):
            bind(elem, "is_a", "Actor", elem.is_a, elem.is_a_span)
        elif isinstance(elem, DataEntity):
            bind(elem, "is_a", "DataEntity", elem.is_a, elem.is_a_span)
            bind(elem, "part_of", "DataEntity", elem.part_of, elem.part_of_span)
        elif isinstance(elem, UseCase):
            bind(elem, "primary_actor", "Actor", elem.primary_actor, elem.primary_actor_span)
            bind(elem, "data_entity", "DataEntity", elem.data_entity, elem.data_entity_span)
            if elem.extends_target is not None:
                target = index.get(("UseCase", elem.extends_target))
                if target is None:
                    diags.append(
                        Diagnostic(
                            "Error",
                            "RSL-R001",
                            f"Unresolved reference: no UseCase with id '{elem.extends_target}'",
                            elem.extends_span or elem.span,
                        )
                    )
                else:
                    rm.bindings[(id(elem), "extends_target")] = target
                    if elem.extends_point not in target.extension_points:
                        diags.append(
                            Diagnostic(
                                "Error",
                                "RSL-R001",
                                f"Use case '{elem.extends_target}' declares no extension point '{elem.extends_point}'",
                                elem.extends_span or elem.span,
                            )
                        )
    return rm


def oracle_render_part(part, parenthesize: bool = True) -> str:
    if isinstance(part, PosPart):
        return f"({part.category})" if parenthesize else part.category
    if isinstance(part, LitPart):
        return f'"{part.text}"'
    if isinstance(part, FragmentRefPart):
        inner = f"{part.element_kind}.{part.fragment}"
        return f"({inner})" if parenthesize else inner
    if isinstance(part, AltPart):
        inner = " | ".join(oracle_render_part(o, parenthesize=False) for o in part.options)
        return f"({inner})"
    raise TypeError(f"not a pattern part: {part!r}")


def oracle_render_pattern(parts: tuple) -> str:
    """Human-readable pattern with each non-literal part parenthesized."""
    return " + ".join(oracle_render_part(p) for p in parts)


# --- tagger and glossary -------------------------------------------------------

def oracle_analyze(text: str, lex: Lexicon) -> list[Token]:
    """Tokenize a fragment and tag every word with candidate UPOS tags."""
    tokens: list[Token] = []
    for index, m in enumerate(WORD_RE.finditer(text)):
        surface = m.group()
        hits = lex.entries.get(surface.lower(), set())
        if hits:
            tags = frozenset(t for t, _ in hits)
            # Several lemmas may coexist (rare); prefer the shortest, then the first.
            lemma = min((l for _, l in hits), key=lambda l: (len(l), l))
        else:
            tags, lemma = _oracle_oov(surface, index, lex)
        tokens.append(Token(surface, lemma, tags, m.start(), m.end()))
    return tokens


def _oracle_oov(surface: str, index: int, lex: Lexicon) -> tuple[frozenset, str]:
    if surface.isdigit():
        return frozenset({"NUM"}), surface
    lower = surface.lower()
    for rule in lex.suffix_rules:
        hit = rule.apply(lower)
        if hit is not None:
            upos, lemma = hit
            return frozenset({upos}), lemma
    if index > 0 and surface[:1].isupper():
        return frozenset({"PROPN"}), lower
    return frozenset({"NOUN"}), lower


def oracle_check_glossary(rm: ResolvedModel, lex: Lexicon, entries: dict) -> list[Diagnostic]:
    diags = []
    for elem in rm.effective_elements:
        for fragment in ("name", "description"):
            value = elem.fragment_value(fragment)
            if not value:
                continue
            base = elem.exact_fragment_span(fragment)
            for token in oracle_analyze(value, lex):
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


# --- template evaluator ------------------------------------------------------------

class _Null:
    def __repr__(self):
        return "null"

    def __bool__(self):
        return False


NULL = _Null()


def oracle_truthy(value) -> bool:
    if value is NULL or value is None:
        return False
    if isinstance(value, (list, tuple, dict, str)):
        return len(value) > 0
    return bool(value)


def oracle_stringify(value) -> str:
    if value is NULL or value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:g}"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return ", ".join(oracle_stringify(v) for v in value)
    if isinstance(value, dict):
        return json.dumps(value, separators=(", ", ": "))
    return str(value)


def _oracle_number(value, op: str):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ExpressionTypeError(f"operator '{op}' needs numbers, got {oracle_stringify(value)!r}")
    return value


def oracle_evaluate(expr, scopes: list[dict]):
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Name):
        for scope in reversed(scopes):
            if expr.name in scope:
                value = scope[expr.name]
                return NULL if value is None else value
        return NULL
    if isinstance(expr, Member):
        obj = oracle_evaluate(expr.obj, scopes)
        if obj is NULL:
            return NULL
        if isinstance(obj, dict):
            value = obj.get(expr.name, NULL)
            return NULL if value is None else value
        return NULL
    if isinstance(expr, Index):
        obj = oracle_evaluate(expr.obj, scopes)
        idx = oracle_evaluate(expr.index, scopes)
        if obj is NULL or idx is NULL:
            return NULL
        if not isinstance(obj, dict):
            whole = isinstance(idx, float) and idx.is_integer()
            if not (whole or (isinstance(idx, int) and not isinstance(idx, bool))):
                return NULL
            idx = int(idx)
        try:
            value = obj[idx]
        except (KeyError, IndexError, TypeError):
            return NULL
        return NULL if value is None else value
    if isinstance(expr, Unary):
        value = oracle_evaluate(expr.operand, scopes)
        if expr.op == "!":
            return not oracle_truthy(value)
        if value is NULL:
            return NULL
        return -_oracle_number(value, "-")
    if isinstance(expr, Conditional):
        return oracle_evaluate(expr.then if oracle_truthy(oracle_evaluate(expr.cond, scopes)) else expr.other, scopes)
    if isinstance(expr, Binary):
        return _oracle_binary(expr, scopes)
    if isinstance(expr, Call):
        return _oracle_call(expr, scopes)
    raise TypeError(expr)


def _oracle_binary(expr: Binary, scopes: list[dict]):
    op = expr.op
    if op == "&&":
        left = oracle_evaluate(expr.left, scopes)
        return oracle_evaluate(expr.right, scopes) if oracle_truthy(left) else left
    if op == "||":
        left = oracle_evaluate(expr.left, scopes)
        return left if oracle_truthy(left) else oracle_evaluate(expr.right, scopes)
    left = oracle_evaluate(expr.left, scopes)
    right = oracle_evaluate(expr.right, scopes)
    if op == "==":
        return _oracle_plain(left) == _oracle_plain(right)
    if op == "!=":
        return _oracle_plain(left) != _oracle_plain(right)
    if left is NULL or right is NULL:
        return NULL
    if op in ("<", "<=", ">", ">="):
        if isinstance(left, str) and isinstance(right, str):
            pass
        else:
            left = _oracle_number(left, op)
            right = _oracle_number(right, op)
        return {"<": left < right, "<=": left <= right, ">": left > right, ">=": left >= right}[op]
    left = _oracle_number(left, op)
    right = _oracle_number(right, op)
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise ExpressionTypeError("division by zero")
        return left / right
    if op == "%":
        if right == 0:
            raise ExpressionTypeError("modulo by zero")
        return left % right
    raise TypeError(op)


def _oracle_plain(value):
    return None if value is NULL else value


def _oracle_call(expr: Call, scopes: list[dict]):
    name = expr.func
    args = [oracle_evaluate(a, scopes) for a in expr.args]

    def arity(n):
        if len(args) != n:
            raise ExpressionTypeError(f"{name}() takes {n} argument(s), got {len(args)}")

    if name == "default":
        arity(2)
        return args[1] if args[0] is NULL else args[0]
    if name == "upper":
        arity(1)
        return NULL if args[0] is NULL else oracle_stringify(args[0]).upper()
    if name == "lower":
        arity(1)
        return NULL if args[0] is NULL else oracle_stringify(args[0]).lower()
    if name == "length":
        arity(1)
        if args[0] is NULL:
            return 0
        if isinstance(args[0], (str, list, tuple, dict)):
            return len(args[0])
        raise ExpressionTypeError("length() needs a string or collection")
    if name == "join":
        arity(2)
        if args[0] is NULL:
            return ""
        if not isinstance(args[0], (list, tuple)):
            raise ExpressionTypeError("join() needs an array")
        return oracle_stringify(args[1]).join(oracle_stringify(v) for v in args[0])
    raise TypeError(name)


# --- argument parser ------------------------------------------------------------

def oracle_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rslkit", description="Requirements-language toolchain")
    sub = ap.add_subparsers(dest="command", required=True)

    def shared(p):
        p.add_argument("paths", nargs="+", help="input documents (.rsl)")
        p.add_argument("--system", action="append", metavar="NAME=PATH", help="map a system id to a file")
        p.add_argument("--manifest", help="workspace manifest (systemId=path lines)")
        p.add_argument("--lexicon", action="append", metavar="LANG=PATH", help="lexicon override")

    p = sub.add_parser("check", help="validate documents")
    shared(p)
    p.add_argument("--format", choices=["human", "json"], default="human")

    p = sub.add_parser("fix", help="apply or preview quick fixes")
    shared(p)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--apply", action="store_true", help="rewrite files")
    mode.add_argument("--dry-run", action="store_true", help="preview diffs only")
    p.add_argument("--create-missing", action="store_true", help="also apply create-element fixes")

    p = sub.add_parser("gen", help="generate documents from a valid specification")
    p.add_argument("kind", choices=["json", "text", "template"])
    shared(p)
    p.add_argument("--template", help="template file (for kind=template)")
    p.add_argument("-o", "--output", required=True, help="output file")
    p.add_argument("--lenient", action="store_true", help="render unresolved tags as empty")
    return ap


def oracle_collect_fix_edits(diags: list[Diagnostic], create_missing: bool):
    wanted = set(cli.AUTO_FIX_CODES) | ({"RSL-L001"} if create_missing else set())
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
            if any(e.span.overlaps(span) for e in chosen):
                notices.append(f"skipped conflicting fix '{fix.title}' at {span.file}:{span.start_line} (re-run fix)")
                continue
            seen.add(key)
            if span.length == 0:
                at = next((i for i, e in enumerate(chosen) if e.span.length == 0 and e.span.offset == span.offset), None)
                if at is not None:
                    chosen[at] = TextEdit(chosen[at].span, chosen[at].new_text + edit.new_text)
                    continue
            chosen.append(edit)
    return per_file, notices


def oracle_apply_edits(source: str, edits) -> str:
    ordered = sorted(edits, key=lambda e: (e.span.offset, e.span.end_offset))
    for a, b in zip(ordered, ordered[1:]):
        if a.span.overlaps(b.span):
            raise OverlappingEdits(f"edits at {a.span.offset} and {b.span.offset} overlap")
        if (
            a.span.offset == b.span.offset
            and a.span.length == 0
            and b.span.length == 0
            and a.new_text != b.new_text
        ):
            raise OverlappingEdits(f"conflicting insertions at {a.span.offset}")
    out = source
    for e in reversed(ordered):
        out = out[: e.span.offset] + e.new_text + out[e.span.end_offset :]
    return out
