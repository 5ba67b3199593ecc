"""Mustache-style template engine with an expression language.

Tags `{expr}`, sections `{#expr}...{/expr}`, inverted sections
`{^expr}...{/expr}`; `{{` emits a literal brace. Expressions support
member access, indexing, arithmetic, comparison, logic, a conditional
operator and a handful of builtins.
"""

from __future__ import annotations

import operator
import re
import sys

from .model import Record

# Deepest section nesting and expression nesting a template may use; the
# parser and the renderer recurse once per level.
MAX_NESTING_DEPTH = 50


class TemplateSyntaxError(Exception):
    def __init__(self, position: int, message: str):
        super().__init__(f"at offset {position}: {message}")
        self.position = position


class ExpressionTypeError(Exception):
    pass


class UnresolvedTags(Exception):
    def __init__(self, tags: list[str]):
        super().__init__("unresolved tags: " + ", ".join(tags))
        self.tags = tags


# A missing value: an unknown name, member or index, or a JSON null. It
# renders as "", and in strict mode a tag whose value is missing fails.
NULL = None


# --- template structure -------------------------------------------------------

class Tag(Record):
    raw: str
    expr: "Expr"
    position: int


class Section(Record):
    raw: str
    expr: "Expr"
    inverted: bool
    body: list
    position: int


def parse_template(text: str) -> list:
    """The template's nodes: static text as a `str`, a Tag, or a Section whose body is a node list too."""
    root: list = []
    stack: list[tuple[str, Section]] = []
    current = root
    i = 0
    n = len(text)
    while i < n:
        brace = text.find("{", i)
        if brace == -1:
            current.append(text[i:])
            break
        if brace > i:
            current.append(text[i:brace])
        if text.startswith("{{", brace):
            current.append("{")
            i = brace + 2
            continue
        close = text.find("}", brace)
        if close == -1:
            raise TemplateSyntaxError(brace, "unclosed tag")
        inner = text[brace + 1 : close].strip()
        if not inner:
            raise TemplateSyntaxError(brace, "empty tag")
        if inner[0] in "#^":
            if len(stack) == MAX_NESTING_DEPTH:
                raise TemplateSyntaxError(brace, f"sections nested deeper than {MAX_NESTING_DEPTH}")
            label = inner[1:].strip()
            section = Section(inner, parse_expression(label, brace), inner[0] == "^", [], brace)
            current.append(section)
            stack.append((label, section))
            current = section.body
        elif inner[0] == "/":
            label = inner[1:].strip()
            if not stack:
                raise TemplateSyntaxError(brace, f"closing '{label}' with no open section")
            open_label, _ = stack.pop()
            if open_label != label:
                raise TemplateSyntaxError(brace, f"section '{open_label}' closed as '{label}'")
            current = stack[-1][1].body if stack else root
        else:
            current.append(Tag(inner, parse_expression(inner, brace), brace))
        i = close + 1
    if stack:
        raise TemplateSyntaxError(stack[-1][1].position, f"section '{stack[-1][0]}' never closed")
    return root


# --- expressions ---------------------------------------------------------------

class Lit(Record):
    value: object


class Name(Record):
    name: str


class Member(Record):
    obj: object
    name: str


class Index(Record):
    obj: object
    index: object


class Unary(Record):
    op: str
    operand: object


class Binary(Record):
    op: str
    left: object
    right: object


class Conditional(Record):
    cond: object
    then: object
    other: object


class Call(Record):
    func: str
    args: tuple


Expr = object

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?)"
    r"|(?P<name>[A-Za-z_@][A-Za-z0-9_]*)"
    r"|(?P<str>'(?:[^'\\]|\\.)*'|\"(?:[^\"\\]|\\.)*\")"
    r"|(?P<op>==|!=|<=|>=|&&|\|\||[-+*/%<>!?:.\[\](),]))"
)

# Binary operators by precedence, loosest first; each level is left-associative.
_BINARY_LEVELS = (("||",), ("&&",), ("==", "!="), ("<=", ">=", "<", ">"), ("+", "-"), ("*", "/", "%"))


class _ExprParser:
    def __init__(self, source: str, position: int):
        self.source = source
        self.position = position
        self.tokens: list[tuple[str, str]] = []
        i = 0
        while i < len(source):
            m = _TOKEN_RE.match(source, i)
            if m is None:
                if source[i:].strip():
                    raise TemplateSyntaxError(position, f"bad character {source[i:].strip()[0]!r} in expression")
                break
            i = m.end()
            self.tokens.append((m.lastgroup, m[m.lastgroup]))
        self.pos = 0
        self.depth = 0

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def accept(self, kind: str, text: str | None = None):
        tok = self.peek()
        if tok and tok[0] == kind and (text is None or tok[1] == text):
            self.pos += 1
            return tok
        return None

    def expect(self, kind: str, text: str | None = None):
        tok = self.accept(kind, text)
        if tok is None:
            raise TemplateSyntaxError(self.position, f"expected {text or kind} in expression '{self.source}'")
        return tok

    def parse(self) -> Expr:
        expr = self.ternary()
        if self.peek() is not None:
            raise TemplateSyntaxError(self.position, f"trailing tokens in expression '{self.source}'")
        self.nest(_height(expr))  # operator and member chains nest the tree, not the descent
        return expr

    def nest(self, levels: int):
        """Go levels deeper (negative: back up); refuse past MAX_NESTING_DEPTH.

        Every recursion of the descent passes through ternary() or a prefix
        operator in unary(), which count their depth here.
        """
        self.depth += levels
        if self.depth > MAX_NESTING_DEPTH:
            raise TemplateSyntaxError(self.position, f"expression nested deeper than {MAX_NESTING_DEPTH}")

    def ternary(self) -> Expr:
        self.nest(1)
        expr = self.binary()
        if self.accept("op", "?"):
            then = self.ternary()
            self.expect("op", ":")
            expr = Conditional(expr, then, self.ternary())
        self.nest(-1)
        return expr

    def binary(self, level: int = 0) -> Expr:
        if level == len(_BINARY_LEVELS):
            return self.unary()
        left = self.binary(level + 1)
        while True:
            for op in _BINARY_LEVELS[level]:
                if self.accept("op", op):
                    left = Binary(op, left, self.binary(level + 1))
                    break
            else:
                return left

    def unary(self) -> Expr:
        for op in ("!", "-"):
            if self.accept("op", op):
                self.nest(1)
                expr = Unary(op, self.unary())
                self.nest(-1)
                return expr
        return self.postfix()

    def postfix(self) -> Expr:
        expr = self.primary()
        while True:
            if self.accept("op", "."):
                name = self.expect("name")
                expr = Member(expr, name[1])
            elif self.accept("op", "["):
                index = self.ternary()
                self.expect("op", "]")
                expr = Index(expr, index)
            else:
                return expr

    def primary(self) -> Expr:
        tok = self.peek()
        if tok is None:
            raise TemplateSyntaxError(self.position, f"unexpected end of expression '{self.source}'")
        kind, text = tok
        if kind == "num":
            self.pos += 1
            try:
                value = float(text) if "." in text else int(text)
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                raise TemplateSyntaxError(self.position, f"number with {len(text)} digits is too long") from None
            if value == float("inf"):  # float() reads a decimal beyond float range as infinity
                raise TemplateSyntaxError(self.position, f"number with {len(text) - 1} digits is too large")
            return Lit(value)
        if kind == "str":
            self.pos += 1
            body = text[1:-1]
            return Lit(re.sub(r"\\(.)", r"\1", body))
        if kind == "name":
            self.pos += 1
            if text == "true":
                return Lit(True)
            if text == "false":
                return Lit(False)
            if text in _BUILTINS and self.accept("op", "("):
                args = []
                if not self.accept("op", ")"):
                    while True:
                        args.append(self.ternary())
                        if self.accept("op", ")"):
                            break
                        self.expect("op", ",")
                return Call(text, tuple(args))
            return Name(text)
        if kind == "op" and text == "(":
            self.pos += 1
            inner = self.ternary()
            self.expect("op", ")")
            return inner
        raise TemplateSyntaxError(self.position, f"unexpected '{text}' in expression '{self.source}'")


def _height(expr: Expr) -> int:
    """Levels of an expression tree, counted without recursion."""
    deepest, stack = 0, [(expr, 1)]
    while stack:
        node, level = stack.pop()
        deepest = max(deepest, level)
        children = node.args if isinstance(node, Call) else [getattr(node, f) for f in node._fields]
        stack += [(child, level + 1) for child in children if isinstance(child, Record)]
    return deepest


def parse_expression(source: str, position: int = 0) -> Expr:
    return _ExprParser(source, position).parse()


# --- evaluation ----------------------------------------------------------------

def stringify(value) -> str:
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:g}"
    if isinstance(value, (list, tuple)):
        return ", ".join(map(stringify, value))
    if isinstance(value, dict):
        import json  # loaded here only: most templates print no dict

        return json.dumps(value, separators=(", ", ": "))
    try:
        return str(value)
    except ValueError:  # an int of more digits than sys.get_int_max_str_digits()
        limit = sys.get_int_max_str_digits()
        raise ExpressionTypeError(f"number too long to print: more than {limit} digits") from None


def _number(value, op: str):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ExpressionTypeError(f"operator '{op}' needs numbers, got {stringify(value)!r}")
    return value


_OPERATORS = {
    "==": operator.eq, "!=": operator.ne,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv, "%": operator.mod,
}  # fmt: skip
_ORDERINGS = ("<", "<=", ">", ">=")  # the operators that also compare two strings


def _length(value):
    if value is None:
        return 0
    if isinstance(value, (str, list, tuple, dict)):
        return len(value)
    raise ExpressionTypeError("length() needs a string or collection")


def _join(items, separator):
    if items is None:
        return ""
    if not isinstance(items, (list, tuple)):
        raise ExpressionTypeError("join() needs an array")
    return stringify(separator).join(map(stringify, items))


# name -> (arity, function of the evaluated arguments)
_BUILTINS = {
    "upper": (1, lambda value: None if value is None else stringify(value).upper()),
    "lower": (1, lambda value: None if value is None else stringify(value).lower()),
    "length": (1, _length),
    "join": (2, _join),
    "default": (2, lambda value, fallback: fallback if value is None else value),
}
BUILTINS = tuple(_BUILTINS)


def evaluate(expr: Expr, scopes: list[dict]):
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Name):
        for scope in reversed(scopes):
            if expr.name in scope:
                return scope[expr.name]
        return None
    if isinstance(expr, Member):
        obj = evaluate(expr.obj, scopes)
        return obj.get(expr.name) if isinstance(obj, dict) else None
    if isinstance(expr, Index):
        obj = evaluate(expr.obj, scopes)
        idx = evaluate(expr.index, scopes)
        if not isinstance(obj, dict):  # a position is a whole number, not a bool, a string or a fraction
            if isinstance(idx, float) and idx.is_integer():
                idx = int(idx)
            elif type(idx) is not int:
                return None
        try:
            return obj[idx]
        except (KeyError, IndexError, TypeError):
            return None
    if isinstance(expr, Unary):
        value = evaluate(expr.operand, scopes)
        if expr.op == "!":
            return not value
        return None if value is None else -_number(value, "-")
    if isinstance(expr, Conditional):
        return evaluate(expr.then if evaluate(expr.cond, scopes) else expr.other, scopes)
    if isinstance(expr, Binary):
        op = expr.op
        left = evaluate(expr.left, scopes)
        if op == "&&":
            return evaluate(expr.right, scopes) if left else left
        if op == "||":
            return left if left else evaluate(expr.right, scopes)
        right = evaluate(expr.right, scopes)
        if op not in ("==", "!="):
            if left is None or right is None:
                return None
            if not (op in _ORDERINGS and isinstance(left, str) and isinstance(right, str)):
                left, right = _number(left, op), _number(right, op)
        try:
            return _OPERATORS[op](left, right)
        except ZeroDivisionError:
            raise ExpressionTypeError("division by zero" if op == "/" else "modulo by zero") from None
        except OverflowError as exc:
            raise ExpressionTypeError(f"operator '{op}': {exc}") from None
    if isinstance(expr, Call):
        args = [evaluate(a, scopes) for a in expr.args]
        arity, function = _BUILTINS[expr.func]
        if len(args) != arity:
            raise ExpressionTypeError(f"{expr.func}() takes {arity} argument(s), got {len(args)}")
        return function(*args)
    raise TypeError(expr)


# --- rendering -------------------------------------------------------------------

def render(tpl: list, root: dict, strict: bool = True) -> str:
    out: list[str] = []
    unresolved: list[str] = []
    _walk(tpl, [root], out, unresolved if strict else None)
    if unresolved:
        raise UnresolvedTags(unresolved)
    return "".join(out)


def _walk(nodes: list, scopes: list[dict], out: list[str], unresolved: list[str] | None):
    """Render nodes into out; a tag whose value is NULL goes to unresolved, or renders empty without it."""
    for node in nodes:
        if isinstance(node, str):
            out.append(node)
            continue
        try:
            value = evaluate(node.expr, scopes)
            if isinstance(node, Tag):
                if value is not None:
                    out.append(stringify(value))
                elif unresolved is not None:
                    unresolved.append(node.raw)
                continue
        except ExpressionTypeError as exc:
            kind = "tag" if isinstance(node, Tag) else "section"
            raise ExpressionTypeError(f"{kind} '{{{node.raw}}}' at offset {node.position}: {exc}") from None
        if node.inverted:
            if not value:
                _walk(node.body, scopes, out, unresolved)
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                scope = dict(item) if isinstance(item, dict) else {"this": item}
                scope["@index"] = i
                _walk(node.body, scopes + [scope], out, unresolved)
        elif value:
            _walk(node.body, scopes + [dict(value) if isinstance(value, dict) else {"this": value}], out, unresolved)
