"""Reference binding, Import/Include/IncludeAll semantics, include inlining."""

from collections import Counter
from unittest import mock

import rslkit.parser
import rslkit.workspace
from conftest import by_code, fixture_path, fixture_text
from rslkit.checks import run_all_checks
from rslkit.model import apply_edits
from rslkit.parser import parse
from rslkit.printer import print_model
from rslkit.workspace import (
    Workspace,
    add_system,
    inline_include_fix,
    load_workspace,
    resolve,
)

RULE_ONLY = fixture_text("system_rules.rsl")


def two_systems(main_src, other_src, other_name="SystemRules"):
    ws = Workspace()
    model = add_system(ws, "Main", main_src, "<main>")
    add_system(ws, other_name, other_src, f"<{other_name}>")
    return ws, model


class TestBinding:
    def test_internal_references_bound(self):
        ws = Workspace()
        model = add_system(ws, "S", fixture_text("billing_clean.rsl"), "f")
        rm = resolve(model, ws)
        assert rm.diagnostics == []
        uc = next(e for e in model.elements if e.id == "uc_3_PrintInvoice")
        assert rm.binding(uc, "primary_actor").id == "a_Operator"
        assert rm.binding(uc, "data_entity").id == "e_Invoice"
        assert rm.binding(uc, "extends_target").id == "uc_1_ManageInvoices"

    def test_unresolved_reference(self):
        ws = Workspace()
        model = add_system(ws, "S", "Actor a_1 : User [isA a_ghost]\n", "f")
        rm = resolve(model, ws)
        (d,) = by_code(rm.diagnostics, "RSL-R001")
        assert "a_ghost" in d.message

    def test_missing_extension_point(self):
        src = (
            "UseCase uc_1 : Other [extensionPoints xp_A]\n"
            "UseCase uc_2 : Other [extends uc_1 onExtensionPoint xp_Nope]\n"
        )
        ws = Workspace()
        rm = resolve(add_system(ws, "S", src, "f"), ws)
        (d,) = by_code(rm.diagnostics, "RSL-R001")
        assert "xp_Nope" in d.message


class TestIncludes:
    MAIN = (
        "Include LinguisticRule fromSystem SystemRules element l_r_DataEntity_Name\n\n"
        "DataEntity e_1 \"Invoice\" : Document\n"
    )

    def test_include_pulls_element(self):
        ws, model = two_systems(self.MAIN, RULE_ONLY)
        rm = resolve(model, ws)
        assert rm.diagnostics == []
        kinds = [e.kind for e in rm.effective_elements]
        assert kinds.count("LinguisticRule") == 1
        assert rm.index()[("LinguisticRule", "l_r_DataEntity_Name")] is not None

    def test_unknown_system(self):
        ws = Workspace()
        rm = resolve(add_system(ws, "Main", self.MAIN, "f"), ws)
        (d,) = by_code(rm.diagnostics, "RSL-R002")
        assert "SystemRules" in d.message

    def test_reference_precedence(self):
        """Own elements first, then imported systems in order, each by its first match."""
        ws = Workspace()
        main = add_system(
            ws,
            "Main",
            "Import fromSystem A\n\nImport fromSystem B\n\n"
            'Actor a_own "Own" : User\n\n'
            'UseCase uc_1 "Print Invoice" : EntityPrint [primaryActor a_own]\n\n'
            'UseCase uc_2 "Print Invoice" : EntityPrint [primaryActor a_x]\n\n'
            'UseCase uc_3 "Print Invoice" : EntityPrint [primaryActor a_y]\n',
            "<main>",
        )
        add_system(ws, "A", 'Actor a_own "A own" : User\n\nActor a_x "A first" : User\n\nActor a_x "A second" : User\n', "<a>")
        add_system(ws, "B", 'Actor a_x "B" : User\n\nActor a_y "B" : User\n', "<b>")
        rm = resolve(main, ws)
        bound = {uc.id: rm.binding(uc, "primary_actor").name for uc in main.elements if uc.kind == "UseCase"}
        assert bound == {"uc_1": "Own", "uc_2": "A first", "uc_3": "B"}

    def test_unknown_element(self):
        main = "Include LinguisticRule fromSystem SystemRules element l_r_Nope\n"
        ws, model = two_systems(main, RULE_ONLY)
        rm = resolve(model, ws)
        (d,) = by_code(rm.diagnostics, "RSL-R003")
        assert "l_r_Nope" in d.message

    def test_include_all_pulls_everything_in_order(self):
        ws, model = two_systems("IncludeAll fromSystem SystemRules\n", RULE_ONLY)
        rm = resolve(model, ws)
        ids = [e.id for e in rm.effective_elements]
        assert ids == ["l_r_DataEntity_Name", "l_r_Actor_Name"]

    def test_import_gives_visibility_without_copying(self):
        other = "Actor a_base : User\n"
        main = "Import fromSystem Shared\n\nActor a_1 : User [isA a_base]\n"
        ws, model = two_systems(main, other, other_name="Shared")
        rm = resolve(model, ws)
        assert by_code(rm.diagnostics, "RSL-R001") == []
        assert [e.id for e in rm.effective_elements] == ["a_1"]

    def test_circular_include_detected(self):
        a = "IncludeAll fromSystem B\nActor a_1 : User\n"
        b = "IncludeAll fromSystem A\nActor b_1 : User\n"
        ws = Workspace()
        model_a = add_system(ws, "A", a, "<a>")
        add_system(ws, "B", b, "<b>")
        rm = resolve(model_a, ws)
        assert by_code(rm.diagnostics, "RSL-R004")

    def test_transitive_include(self):
        a = "IncludeAll fromSystem B\n"
        b = "IncludeAll fromSystem C\n"
        c = "Actor a_deep : User\n"
        ws = Workspace()
        model_a = add_system(ws, "A", a, "<a>")
        add_system(ws, "B", b, "<b>")
        add_system(ws, "C", c, "<c>")
        rm = resolve(model_a, ws)
        assert [e.id for e in rm.effective_elements] == ["a_deep"]

    def test_included_duplicate_id_reported(self):
        main = (
            "Include LinguisticRule fromSystem SystemRules element l_r_Actor_Name\n\n"
            "Actor l_r_Actor_Name : User\n"
        )
        ws, model = two_systems(main, RULE_ONLY)
        rm = resolve(model, ws)
        diags = run_all_checks(rm, ws)
        assert by_code(diags, "RSL-V001")


class TestInlining:
    def test_fixture_include_inlined(self):
        ws = load_workspace(
            [
                ("SystemRules", fixture_path("system_rules.rsl")),
                ("Main", fixture_path("billing_include.rsl")),
            ]
        )
        model = ws.system("Main")
        rm_before = resolve(model, ws)
        (inc,) = [i for i in model.includes if i.mode == "Include"]
        diag = inline_include_fix(inc, rm_before)
        assert diag.severity == "Info" and diag.code == "RSL-I001"
        assert diag.fixes[0].title == (
            "Replace this include specification by the LinguisticRule element specification itself."
        )

        source = fixture_text("billing_include.rsl")
        fixed = apply_edits(source, diag.fixes[0].edits)
        ws2 = Workspace()
        model2 = add_system(ws2, "Main", fixed, "<fixed>")
        add_system(ws2, "SystemRules", fixture_text("system_rules.rsl"), "<rules>")
        rm_after = resolve(model2, ws2)

        assert not [i for i in model2.includes if i.mode == "Include"]
        assert rm_after.effective_elements == rm_before.effective_elements

    def test_include_all_inlining_preserves_order(self):
        main = "IncludeAll fromSystem SystemRules\n"
        ws, model = two_systems(main, RULE_ONLY)
        rm_before = resolve(model, ws)
        (inc,) = model.includes
        diag = inline_include_fix(inc, rm_before)
        assert diag.fixes[0].title == (
            "Replace this include specification by the included element specifications themselves."
        )
        fixed = apply_edits(main, diag.fixes[0].edits)
        ws2 = Workspace()
        rm_after = resolve(add_system(ws2, "Main", fixed, "<fixed>"), ws2)
        assert rm_after.effective_elements == rm_before.effective_elements

    def test_unresolved_include_offers_no_fix(self):
        ws = Workspace()
        model = add_system(
            ws, "Main", "Include Actor fromSystem Ghost element a_1\n", "<main>"
        )
        (inc,) = model.includes
        assert inline_include_fix(inc, resolve(model, ws)) is None

    def test_partly_resolved_include_offers_no_fix(self):
        """An include whose walk reports RSL-R002 still contributes what it found, but is not inlined."""
        ws, model = two_systems("IncludeAll fromSystem Shared\n", "IncludeAll fromSystem Ghost\n\nActor a_1 : User\n", "Shared")
        rm = resolve(model, ws)
        assert [e.id for e in rm.effective_elements] == ["a_1"]
        assert by_code(rm.diagnostics, "RSL-R002")
        (inc,) = model.includes
        assert inline_include_fix(inc, rm) is None

    def test_inlined_text_reparses_cleanly(self):
        ws, model = two_systems("IncludeAll fromSystem SystemRules\n", RULE_ONLY)
        (inc,) = model.includes
        diag = inline_include_fix(inc, resolve(model, ws))
        fixed = apply_edits("IncludeAll fromSystem SystemRules\n", diag.fixes[0].edits)
        reparsed, diags = parse(fixed, "f")
        assert diags == []
        assert print_model(reparsed)  # printable canonical form exists


def test_load_workspace_records_io_errors(tmp_path):
    ws = load_workspace([("Missing", str(tmp_path / "nope.rsl"))])
    assert ws.io_errors and ws.io_errors[0][0] == "Missing"
    assert ws.systems == {}


def test_load_workspace_records_decode_errors(tmp_path):
    path = tmp_path / "latin1.rsl"
    path.write_bytes(b'Actor a_x "Caf\xe9" : User\n')
    ws = load_workspace([("Latin1", str(path))])
    assert ws.io_errors and ws.io_errors[0][:2] == ("Latin1", str(path))
    assert ws.systems == {}


def test_load_workspace_parses_on_demand(tmp_path):
    for name in ("a", "b"):
        (tmp_path / f"{name}.rsl").write_text(f'Actor a_{name} "Clerk" : User\n', encoding="utf-8")
    parsed = []
    real_parse = rslkit.parser.parse
    with mock.patch.object(rslkit.parser, "parse", lambda source, file, lex: parsed.append(file) or real_parse(source, file, lex)):
        ws = load_workspace([("A", str(tmp_path / "a.rsl")), ("B", str(tmp_path / "b.rsl"))])
        assert parsed == [] and ws.systems == {}
        assert "A" in ws and "B" in ws and ws.io_errors == []
        assert [e.id for e in ws.system("A").elements] == ["a_a"]
    assert parsed == [str(tmp_path / "a.rsl")]
    assert list(ws.systems) == ["A"]


def test_checks_walk_each_include_once():
    main = (
        "Include LinguisticRule fromSystem SystemRules element l_r_Actor_Name\n\n"
        "IncludeAll fromSystem Shared\n\n"
        "Import fromSystem Shared\n\n"
        'Actor a_1 "Clerk" : User\n'
    )
    ws, model = two_systems(main, RULE_ONLY)
    add_system(ws, "Shared", 'DataEntity e_1 "Invoice" : Document\n', "<shared>")
    walks = Counter()
    real_walk = rslkit.workspace._resolve_include

    def walk(ws, inc, *args):
        walks[inc.mode] += 1
        return real_walk(ws, inc, *args)

    with mock.patch.object(rslkit.workspace, "_resolve_include", walk):
        diags = run_all_checks(resolve(model, ws), ws)
    assert walks == Counter({"Include": 1, "IncludeAll": 1, "Import": 1})
    assert len(by_code(diags, "RSL-I001")) == 2


def test_system_of_forgets_a_replaced_model():
    text = 'Actor a_1 "Clerk" : User\n'
    ws = Workspace()
    old = add_system(ws, "S", text, "<s>")
    assert ws.system_of(old) == "S"
    ws.register("S", text, "<s>")
    assert ws.system_of(old) is None
    new = ws.system("S")
    # The same text parses to an equal model; only the current parse maps to the system.
    assert new == old and new is not old
    assert ws.system_of(new) == "S" and ws.system_of(old) is None
