"""Document generation: validity gate, JSON shape, text output, templates."""

import json

from conftest import check_fixture, check_source, fixture_text
from modelgen import random_model
from rslkit.docgen import (
    build_json_doc,
    ensure_valid,
    generate_json,
    generate_text,
    render_template,
    template_context,
)
from rslkit.parser import parse
from rslkit.printer import print_model
from rslkit.workspace import Workspace, add_system, resolve


def resolved(source, system="Main"):
    ws = Workspace()
    return resolve(add_system(ws, system, source, f"<{system}>"), ws)


class TestValidityGate:
    def test_clean_fixture_passes(self):
        _, diags = check_fixture("billing_clean.rsl")
        assert ensure_valid(diags) is None

    def test_defect_fixture_refused(self):
        _, diags = check_fixture("billing_defects.rsl")
        errors = [d for d in diags if d.severity == "Error"]
        assert ensure_valid(diags).splitlines() == [
            f"specification has {len(errors)} error(s); generation refused",
            *("  - " + d.message.splitlines()[0] for d in errors[:3]),
        ]
        assert len(errors) > 3

    def test_warnings_do_not_refuse(self):
        src = (
            'Term t "Customer" : Noun [synonyms "Client"]\n'
            'Actor a_1 "Buyer" : User [description "a client"]\n'
        )
        _, diags = check_source(src)
        assert any(d.severity == "Warning" for d in diags)
        assert ensure_valid(diags) is None


class TestJson:
    def test_clean_fixture_shape(self):
        rm, _ = check_fixture("billing_clean.rsl")
        doc = json.loads(generate_json(rm))
        assert doc["language"] == "English"
        assert set(doc["elements"]) == {
            "dataEntities",
            "actors",
            "useCases",
            "terms",
            "stakeholders",
            "functionalRequirements",
            "linguisticRules",
        }
        assert len(doc["elements"]["useCases"]) == 5
        assert doc["systems"]["Main"]["elements"] == len(rm.effective_elements)

    def test_references_resolved_to_id_and_name(self):
        rm, _ = check_fixture("billing_clean.rsl")
        doc = build_json_doc(rm)
        uc = next(u for u in doc["elements"]["useCases"] if u["id"] == "uc_3_PrintInvoice")
        assert uc["primaryActor"] == {"id": "a_Operator", "name": "Operator"}
        assert uc["dataEntity"] == {"id": "e_Invoice", "name": "Invoice"}
        assert uc["extends"] == {
            "useCase": "uc_1_ManageInvoices",
            "extensionPoint": "xp_Print",
        }

    def test_name_alias_falls_back_to_id(self):
        rm = resolved("Actor a_1 : User\n")
        doc = build_json_doc(rm)
        actor = doc["elements"]["actors"][0]
        assert actor["name"] is None and actor["nameAlias"] == "a_1"

    def test_attributes_serialized(self):
        rm, _ = check_fixture("billing_clean.rsl")
        doc = build_json_doc(rm)
        entity = next(e for e in doc["elements"]["dataEntities"] if e["id"] == "e_Invoice")
        first = entity["attributes"][0]
        assert first == {
            "id": "ID",
            "name": "Invoice ID",
            "dataType": "Integer",
            "constraints": ["PrimaryKey"],
        }

    def test_generate_parse_equality_on_random_models(self):
        for seed in range(60):
            rm = resolved(print_model(random_model(seed)))
            assert json.loads(generate_json(rm)) == build_json_doc(rm), f"seed={seed}"


class TestText:
    def test_block_format(self):
        rm, _ = check_fixture("billing_clean.rsl")
        text = generate_text(rm)
        assert "== UseCase: Print Invoice (uc_3_PrintInvoice) ==" in text
        assert "primaryActor: Operator" in text
        assert "== Stakeholder: Finance Team (sh_FinanceTeam) ==" in text
        assert "type: Organization.Department" in text

    def test_empty_model(self):
        assert generate_text(resolved("")) == ""


class TestTemplates:
    def test_stakeholder_template(self):
        rm, _ = check_fixture("billing_clean.rsl")
        out = render_template(fixture_text("stakeholders.tpl"), rm)
        assert out == (
            "Stakeholder Finance Team is a Organization\n"
            "Stakeholder IT Support is a Organization\n"
        )

    def test_context_exposes_elements_at_top_level(self):
        rm, _ = check_fixture("billing_clean.rsl")
        ctx = template_context(rm)
        assert ctx["stakeholders"] == ctx["elements"]["stakeholders"]
        assert ctx["language"] == "English"

    def test_values_consistent_with_json(self):
        rm, _ = check_fixture("billing_clean.rsl")
        doc = build_json_doc(rm)
        out = render_template(
            "{#useCases}{id}={primaryActor.id};{/useCases}", rm
        )
        expected = "".join(
            f"{u['id']}={u['primaryActor']['id']};" for u in doc["elements"]["useCases"]
        )
        assert out == expected

    def test_strict_unknown_tag_rejected(self):
        from rslkit.template import UnresolvedTags

        rm, _ = check_fixture("billing_clean.rsl")
        try:
            render_template(fixture_text("unknown_tag.tpl"), rm)
        except UnresolvedTags as exc:
            assert exc.tags == ["noSuchField"]
        else:
            raise AssertionError("strict rendering must reject unknown tags")

    def test_lenient_mode(self):
        rm, _ = check_fixture("billing_clean.rsl")
        out = render_template(fixture_text("unknown_tag.tpl"), rm, strict=False)
        assert out == "Hello !\n"
