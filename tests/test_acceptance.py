"""Acceptance gate: one test per criterion, printing a pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the summary lines.
"""

import json
import random
import shutil
import tempfile
import time
from pathlib import Path

from conftest import FIXTURES, by_code, check_fixture, check_source, fixture_text
from modelgen import random_model
from oracles import oracle_cycle_nodes
from rslkit.checks import cycle_nodes
from rslkit.cli import main
from rslkit.docgen import build_json_doc, generate_json, render_template
from rslkit.model import apply_edits
from rslkit.parser import parse
from rslkit.printer import print_model
from rslkit.workspace import Workspace, add_system, inline_include_fix, resolve
from test_checks import random_dag, random_graph


def criterion(number, title):
    def decorate(fn):
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nacceptance criterion {number} ({title}): FAIL")
                raise
            print(f"\nacceptance criterion {number} ({title}): PASS")

        wrapper.__name__ = fn.__name__
        return wrapper

    return decorate


@criterion(1, "billing corpus defects and fixability")
def test_criterion_1_billing_corpus():
    started = time.perf_counter()
    rm, diags = check_fixture("billing_defects.rsl")

    v001 = by_code(diags, "RSL-V001")
    assert len(v001) >= 3
    assert all(d.message == "Duplicate element ID 'user'" for d in v001)

    v002 = by_code(diags, "RSL-V002")
    assert any(
        d.message == "Replace the word 'client' by the main word 'Customer'" for d in v002
    )

    v003 = by_code(diags, "RSL-V003")
    assert len(v003) == 2
    assert any(d.message == "Cycle in hierarchy of Actor 'a_CustomerVIP'" for d in v003)

    l001 = by_code(diags, "RSL-L001")
    actor_hits = [d for d in l001 if "(Noun | ProperNoun)" in d.message]
    fr_hits = [
        d
        for d in l001
        if "\"System\" + \"shall\" + (Verb) + (DataEntity.name)" in d.message
    ]
    assert len(actor_hits) >= 1 and len(fr_hits) >= 1

    with tempfile.TemporaryDirectory() as tmp:
        doc = Path(tmp) / "billing_defects.rsl"
        shutil.copy(FIXTURES / "billing_defects.rsl", doc)
        assert main(["fix", "--apply", "--create-missing", str(doc)]) == 0
        rm2, post = check_source(doc.read_text(), file=str(doc))
        assert [d for d in post if d.severity in ("Error", "Warning")] == []

    assert time.perf_counter() - started < 1.0, "criterion 1 must finish in under a second"


@criterion(2, "use case name scenario messages")
def test_criterion_2_use_case_scenario():
    _, diags = check_fixture("figure7.rsl")
    (d,) = by_code(diags, "RSL-L001")
    lines = d.message.splitlines()
    assert lines[0] == "This text must follow the pattern '(Verb) + (DataEntity.name)'"
    assert lines[1] == "The word 'Invoice' is expected to be the name of a/an 'DataEntity'"
    assert d.fixes[0].title == "Create 'DataEntity' with name 'Invoice'"


@criterion(3, "Portuguese lexicon scenario")
def test_criterion_3_portuguese():
    rm, diags = check_fixture("figure9_pt.rsl")
    assert rm.model.language == "Portuguese"
    (d,) = by_code(diags, "RSL-L001")
    assert "The word 'Fatura' is expected to be the name of a/an 'DataEntity'" in d.message
    assert d.fixes[0].title == "Create 'DataEntity' with name 'Fatura'"


@criterion(4, "cycle detector oracle equivalence")
def test_criterion_4_cycle_oracle():
    rng = random.Random(20260823)
    for _ in range(1000):
        graph = random_graph(rng, max_nodes=12, density=0.5)
        assert cycle_nodes(graph) == oracle_cycle_nodes(graph)
    for _ in range(1000):
        dag = random_dag(rng, max_nodes=12, density=0.5)
        assert cycle_nodes(dag) == set(), "no false positives on DAGs"


@criterion(5, "round-trip suite")
def test_criterion_5_roundtrip():
    fixtures = sorted(p.name for p in FIXTURES.glob("*.rsl"))
    sources = [fixture_text(name) for name in fixtures]
    models = []
    for name, src in zip(fixtures, sources):
        model, diags = parse(src, name)
        assert diags == [], name
        models.append(model)
    models += [random_model(seed) for seed in range(500)]

    for model in models:
        text = print_model(model)
        reparsed, diags = parse(text, "<roundtrip>")
        assert diags == []
        assert reparsed == model

        ws = Workspace()
        rm = resolve(add_system(ws, "Main", text, "<m>"), ws)
        assert json.loads(generate_json(rm)) == build_json_doc(rm)


@criterion(6, "template suite")
def test_criterion_6_templates():
    rm, _ = check_fixture("billing_clean.rsl")

    plain = "no tags at all\n\ttabs and spaces   \nfinal line"
    assert render_template(plain, rm) == plain

    stakeholder_out = render_template(fixture_text("stakeholders.tpl"), rm)
    doc = build_json_doc(rm)
    expected = "".join(
        f"Stakeholder {s['nameAlias']} is a {s['type']['type']}\n"
        for s in doc["elements"]["stakeholders"]
    )
    assert stakeholder_out == expected
    assert len(doc["elements"]["stakeholders"]) >= 2

    cross = render_template("{#useCases}{id}|{name}|{type.type};{/useCases}", rm)
    assert cross == "".join(
        f"{u['id']}|{u['name']}|{u['type']['type']};" for u in doc["elements"]["useCases"]
    )

    from rslkit.template import UnresolvedTags

    try:
        render_template("ok {definitelyMissing} ok", rm)
    except UnresolvedTags as exc:
        assert exc.tags == ["definitelyMissing"]
    else:
        raise AssertionError("strict mode must reject an unknown tag")


@criterion(7, "validity gate on generation")
def test_criterion_7_validity_gate():
    src = str(FIXTURES / "billing_defects.rsl")
    with tempfile.TemporaryDirectory() as tmp:
        for kind in ("json", "text", "template"):
            out_path = Path(tmp) / f"out_{kind}"
            argv = ["gen", kind, src, "-o", str(out_path)]
            if kind == "template":
                argv += ["--template", str(FIXTURES / "stakeholders.tpl")]
            assert main(argv) == 1
            assert not out_path.exists(), f"gen {kind} must not write on refusal"


@criterion(8, "fix idempotence and fixpoint")
def test_criterion_8_fix_idempotence():
    source = fixture_text("billing_defects.rsl")

    def pass_once(text):
        _, diags = check_source(text)
        edits = [
            e
            for d in diags
            if d.code in ("RSL-V001", "RSL-V002")
            for f in d.fixes
            for e in f.edits
        ]
        return apply_edits(text, edits), len(edits)

    once, n1 = pass_once(source)
    twice, n2 = pass_once(once)
    assert n1 > 0 and once != source, "first pass must change the file"
    assert n2 == 0 and twice == once, "second pass must be a no-op"
    _, diags = check_source(twice)
    assert by_code(diags, "RSL-V001") == [] and by_code(diags, "RSL-V002") == []


@criterion(9, "include inlining equivalence")
def test_criterion_9_include_inlining():
    ws = Workspace()
    model = add_system(ws, "Main", fixture_text("billing_include.rsl"), "<main>")
    add_system(ws, "SystemRules", fixture_text("system_rules.rsl"), "<rules>")
    rm_before = resolve(model, ws)

    (inc,) = [i for i in model.includes if i.mode == "Include"]
    diag = inline_include_fix(inc, rm_before)
    assert diag is not None and diag.code == "RSL-I001"
    fixed = apply_edits(fixture_text("billing_include.rsl"), diag.fixes[0].edits)

    ws2 = Workspace()
    model2 = add_system(ws2, "Main", fixed, "<main>")
    add_system(ws2, "SystemRules", fixture_text("system_rules.rsl"), "<rules>")
    rm_after = resolve(model2, ws2)

    assert [i for i in model2.includes if i.mode == "Include"] == []
    assert rm_after.effective_elements == rm_before.effective_elements
