"""Canonical text rendering of models and elements.

parse(print_model(m)) is structurally equal to m; this backs the
element-creating quick fixes and the round-trip tests.
"""

from __future__ import annotations

from .model import (
    KIND_TABLE,
    AltPart,
    Element,
    IncludeDecl,
    LitPart,
    Model,
    PosPart,
    element_type,
)


def quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def pattern_atom(part) -> str:
    """A POS category or a fragment reference as a pattern writes it."""
    if isinstance(part, PosPart):
        return part.category
    return f"{part.element_kind}.{part.fragment}"


# The part printers are module functions: a local function that calls
# itself is a reference cycle, left as garbage by every call.


def print_pattern(parts: tuple) -> str:
    return " + ".join(_printed(p) for p in parts)


def _printed(part) -> str:
    if isinstance(part, AltPart):
        return "(" + " | ".join(_printed(o) for o in part.options) + ")"
    return quote(part.text) if isinstance(part, LitPart) else pattern_atom(part)


def render_pattern(parts: tuple) -> str:
    """Pattern for messages: each non-literal part parenthesized, literals unescaped."""
    return " + ".join(_rendered(p) for p in parts)


def _rendered(part) -> str:
    if isinstance(part, LitPart):
        return f'"{part.text}"'
    options = part.options if isinstance(part, AltPart) else (part,)  # an option is a literal or an atom
    return "(" + " | ".join(f'"{o.text}"' if isinstance(o, LitPart) else pattern_atom(o) for o in options) + ")"


def print_element(elem: Element) -> str:
    row = KIND_TABLE[elem.kind]
    head = elem.kind + " " + elem.id
    if elem.name is not None:
        head += " " + quote(elem.name)
    type_text, subtype = element_type(elem)
    head += " : " + type_text
    if subtype:
        head += "." + subtype

    body: list[str] = []
    for keyword, field, shape, _, _ in row["clauses"]:
        value = getattr(elem, field)
        if value is None or not value and shape != "string":
            continue
        if shape == "attribute":
            body += [_attribute_line(a) for a in value]
            continue
        if shape == "ids":
            value = ", ".join(value)
        elif shape == "strings":
            value = ", ".join(quote(s) for s in value)
        elif shape == "string":
            value = quote(value)
        elif shape == "extends":
            value = f"{value} onExtensionPoint {elem.extends_point}"
        elif shape == "property":
            value = f"{value}.{elem.fragment}"
        elif shape == "pattern":
            value = print_pattern(value)
        body.append(keyword + " " + value)

    if not body:
        return head
    return head + " [\n" + "\n".join("  " + line for line in body) + "\n]"


def _attribute_line(a) -> str:
    line = f"attribute {a.id} {quote(a.name)} : {a.data_type}"
    opts = []
    if a.constraints:
        opts.append("constraints (" + ", ".join(a.constraints) + ")")
    if a.default_value is not None:
        opts.append("defaultValue " + quote(a.default_value))
    if opts:
        line += " [" + " ".join(opts) + "]"
    return line


def print_include(inc: IncludeDecl) -> str:
    if inc.mode == "Include":
        return f"Include {inc.element_kind} fromSystem {inc.from_system} element {inc.element_id}"
    return f"{inc.mode} fromSystem {inc.from_system}"


def print_model(model: Model) -> str:
    chunks = [print_include(inc) for inc in model.includes]
    chunks += [print_element(e) for e in model.elements]
    if not chunks:
        return ""
    return "\n\n".join(chunks) + "\n"
