"""The element-kind table against the per-kind code it replaced.

`tests/oracles.py` keeps the hand-written parser clauses, printer, JSON
and text builders and reference binding as they were; every output of
the table-driven code must equal theirs, including JSON key order, spans
and diagnostics.
"""

import json

from conftest import FIXTURES
from modelgen import random_model
from oracles import (
    oracle_build_json_doc,
    oracle_parse,
    oracle_print_model,
    oracle_render_pattern,
    oracle_resolve,
    oracle_text_fields,
)
from rslkit.docgen import _text_fields, build_json_doc
from rslkit.model import KIND_TABLE, Element, Model
from rslkit.parser import parse
from rslkit.printer import print_model, render_pattern
from rslkit.workspace import Workspace, add_system, resolve

KINDS = [
    "DataEntity",
    "Actor",
    "UseCase",
    "Term",
    "Stakeholder",
    "FunctionalRequirement",
    "LinguisticRule",
    "LinguisticLanguage",
]

# A well-formed argument for each body keyword.
GOOD = {
    "attribute": 'at_1 "Id" : Integer [constraints (PrimaryKey, NotNull) defaultValue "0"]',
    "isA": "x_0",
    "partOf": "x_0",
    "primaryActor": "a_1",
    "dataEntity": "e_1",
    "actions": "act_1, act_2",
    "extensionPoints": "xp_1",
    "extends": "uc_0 onExtensionPoint xp_0",
    "precondition": '"ready"',
    "synonyms": '"Client", "Buyer"',
    "property": "UseCase.name",
    "pattern": 'Verb + (DataEntity.name | "x")',
    "severity": "Warning",
    "description": '"Some text."',
}

# Element heads: no type, and types that some kinds accept and others refuse.
HEADS = [
    "{kind} x_1",
    '{kind} x_1 "Name" : Syntax',
    "{kind} x_1 : Verb",
    "{kind} x_1 : Portuguese",
    "{kind} x_1 : Person.Team",
    "{kind} x_1 : Bogus",
]

# What follows a clause keyword: a good argument, a missing one, tokens of
# the wrong type or value, a half-written list, or the end of the input.
TAILS = [
    " {good} ]",
    " {good} {good} ]",
    " ]",
    ' "s" ]',
    " 42 ]",
    " ident ]",
    " Fatal ]",
    " Bogus.name ]",
    " UseCase.title ]",
    ' at_1 "n" : Blob ]',
    " a, ]",
    " [",
    "",
]


def spans(model):
    """Every element and attribute span; model equality leaves them out."""
    out = []
    for elem in model.elements:
        out += [(f, getattr(elem, f)) for f in elem._fields if f.endswith("span")]
        out += [a.span for a in getattr(elem, "attributes", ())]
    return out


def assert_same_parse(source: str, file: str = "f.rsl"):
    new, new_diags = parse(source, file)
    old, old_diags = oracle_parse(source, file)
    assert new_diags == old_diags, source
    assert new == old, source
    assert spans(new) == spans(old), source
    return new


def assert_same_outputs(model: Model, ws: Workspace):
    assert print_model(model) == oracle_print_model(model)
    new, old = resolve(model, ws), oracle_resolve(model, ws)
    assert new.diagnostics == old.diagnostics
    assert {k: id(v) for k, v in new.bindings.items()} == {k: id(v) for k, v in old.bindings.items()}
    assert json.dumps(build_json_doc(new)) == json.dumps(oracle_build_json_doc(old))
    for elem in new.effective_elements:
        assert _text_fields(new, elem) == oracle_text_fields(old, elem)
        if elem.kind == "LinguisticRule":
            assert render_pattern(elem.pattern) == oracle_render_pattern(elem.pattern)


def test_each_class_is_named_by_its_table_key():
    assert list(KIND_TABLE) == KINDS
    assert [row["class"].kind for row in KIND_TABLE.values()] == KINDS
    assert Element.kind == "Element"


def test_generated_models_match_the_oracles():
    r001 = 0
    for seed in range(500):
        text = print_model(random_model(seed))
        assert_same_parse(text)
        ws = Workspace()
        model = add_system(ws, "S", text, "s.rsl")
        assert_same_outputs(model, ws)
        # Dropping every other element leaves references dangling (R001).
        half = Model(elements=model.elements[::2], language_decl=model.language_decl)
        assert_same_outputs(half, ws)
        r001 += any(d.code == "RSL-R001" for d in resolve(half, ws).diagnostics)
    assert r001 > 100


def test_fixtures_match_the_oracles():
    ws = Workspace()
    paths = sorted(FIXTURES.glob("*.rsl"))
    for path in paths:
        assert_same_parse(path.read_text(encoding="utf-8"), str(path))
        add_system(ws, path.stem, path.read_text(encoding="utf-8"), str(path))
    add_system(ws, "SystemRules", (FIXTURES / "system_rules.rsl").read_text(encoding="utf-8"), "rules.rsl")
    for path in paths:
        assert_same_outputs(ws.system(path.stem), ws)


def test_malformed_bodies_recover_like_the_oracle():
    count = 0
    for head in HEADS:
        for kind in KINDS:
            for keyword, good in GOOD.items():
                for tail in TAILS:
                    source = head.format(kind=kind) + " [ " + keyword + tail.format(good=good)
                    assert_same_parse(source)
                    if tail:
                        assert_same_parse(source + "\nActor a_9 : User [isA a_9]\n")
                    count += 1
    assert count == len(HEADS) * len(KINDS) * len(GOOD) * len(TAILS)
