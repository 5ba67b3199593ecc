"""Document generation: JSON, structured text, and template rendering.

All generators are gated on a valid specification: any Error-severity
diagnostic refuses generation.
"""

from __future__ import annotations

from .jsonwriter import dump_json
from .model import KIND_TABLE, Diagnostic, element_type
from .printer import print_pattern
from .workspace import ResolvedModel

def ensure_valid(diags: list[Diagnostic]) -> str | None:
    """None when generation may proceed; the refusal text, with the first three errors, when errors exist."""
    errors = [d for d in diags if d.severity == "Error"]
    if not errors:
        return None
    lines = [f"specification has {len(errors)} error(s); generation refused"]
    lines += ["  - " + d.message.partition("\n")[0] for d in errors[:3]]
    return "\n".join(lines)


# --- JSON -------------------------------------------------------------------

# Per kind, (keyword, field, shape) of each clause; a JSON entry carries
# its description ahead of "type", so these leave it out.
_JSON_CLAUSES = {
    kind: tuple(c[:3] for c in row["clauses"] if c[0] != "description") for kind, row in KIND_TABLE.items()
}


def build_json_doc(rm: ResolvedModel) -> dict:
    elements = {row["json"]: [] for row in KIND_TABLE.values() if row["json"]}
    for elem in rm.effective_elements:
        row = KIND_TABLE[elem.kind]
        if row["json"] is None:
            continue
        entry = {"id": elem.id, "name": elem.name, "nameAlias": elem.name_alias}
        if elem.description is not None:
            entry["description"] = elem.description
        type_text, subtype = element_type(elem)
        entry["type"] = {"type": type_text}
        if subtype:
            entry["type"]["subtype"] = subtype
        for keyword, field, shape in _JSON_CLAUSES[elem.kind]:
            value = getattr(elem, field)
            if value is None:
                continue
            if shape == "attribute":
                entry["attributes"] = [
                    {
                        "id": a.id,
                        "name": a.name,
                        "dataType": a.data_type,
                        "constraints": list(a.constraints),
                        **({"defaultValue": a.default_value} if a.default_value is not None else {}),
                    }
                    for a in value
                ]
            elif shape == "ids" or shape == "strings":
                entry[keyword] = list(value)
            elif shape == "ref":
                target = rm.binding(elem, field)
                entry[keyword] = {"id": target.id, "name": target.name_alias} if target else {"id": value}
            elif shape == "extends":
                entry[keyword] = {"useCase": value, "extensionPoint": elem.extends_point}
            elif shape == "property":
                entry[keyword] = {"targetKind": value, "fragment": elem.fragment}
            elif shape == "pattern":
                entry[keyword] = print_pattern(value)
            else:
                entry[keyword] = value
        elements[row["json"]].append(entry)

    systems = {}
    if rm.system_id is not None:
        systems[rm.system_id] = {"elements": len(rm.effective_elements)}
    return {"language": rm.model.language, "systems": systems, "elements": elements}


def generate_json(rm: ResolvedModel) -> str:
    return dump_json(build_json_doc(rm))


# --- structured text -----------------------------------------------------------

def _text_fields(rm: ResolvedModel, elem) -> list[tuple[str, str]]:
    row = KIND_TABLE[elem.kind]
    type_text, subtype = element_type(elem)
    if subtype:
        type_text += "." + subtype
    fields = [(row["type"][0], type_text)]
    for keyword, field, shape, _, _ in row["clauses"]:
        value = getattr(elem, field)
        if value is None or not value and shape != "string":
            continue
        if shape == "attribute":
            fields.append(("attributes", ", ".join(f"{a.name} ({a.data_type})" for a in value)))
            continue
        if shape == "ids" or shape == "strings":
            value = ", ".join(value)
        elif shape == "ref":
            target = rm.binding(elem, field)
            value = target.name_alias if target else value
        elif shape == "extends":
            value = f"{value} on {elem.extends_point}"
        elif shape == "property":
            value = f"{value}.{elem.fragment}"
        elif shape == "pattern":
            value = print_pattern(value)
        fields.append((keyword, value))
    return fields


def generate_text(rm: ResolvedModel) -> str:
    blocks = []
    for elem in rm.effective_elements:
        lines = [f"== {elem.kind}: {elem.name_alias} ({elem.id}) =="]
        lines += [f"{key}: {value}" for key, value in _text_fields(rm, elem)]
        blocks.append("\n".join(lines))
    if not blocks:
        return ""
    return "\n\n".join(blocks) + "\n"


# --- templates -------------------------------------------------------------------

def template_context(rm: ResolvedModel) -> dict:
    doc = build_json_doc(rm)
    # Element arrays are reachable both as elements.x and directly as x.
    root = dict(doc)
    root.update(doc["elements"])
    return root


def render(tpl: list, root: dict, strict: bool = True) -> str:
    # The template engine loads with the first template: only `gen template` uses it.
    from .template import render

    return render(tpl, root, strict=strict)


def render_template(tpl: list | str, rm: ResolvedModel, strict: bool = True) -> str:
    if isinstance(tpl, str):
        from .template import parse_template

        tpl = parse_template(tpl)
    return render(tpl, template_context(rm), strict=strict)
