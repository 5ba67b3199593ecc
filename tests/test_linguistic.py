"""Linguistic rule checking end to end: diagnostics, messages, create fixes."""

from pathlib import Path

import pytest

import rslkit.rules
from conftest import by_code, check_fixture, check_source
from rslkit.checks import run_all_checks
from rslkit.lexicon import Lexicon
from rslkit.model import apply_edits
from rslkit.workspace import Workspace, add_system, resolve
from rslkit.printer import print_pattern

UC_RULE = (
    'LinguisticRule LR_1 "Use Case name" : Syntax [\n'
    "  property UseCase.name\n"
    "  pattern Verb + (DataEntity.name)\n"
    "  severity Error\n"
    "]\n"
)

FR_RULE = (
    'LinguisticRule LR "FR text" : Syntax [\n'
    "  property FunctionalRequirement.description\n"
    '  pattern "System" + "shall" + (Verb)\n'
    "  severity Error\n"
    "]\n"
)


def fr_spec(description: str) -> str:
    """The FR rule plus one requirement whose description literal is given."""
    return FR_RULE + f'FunctionalRequirement fr_1 "F" : Functional [\n  description "{description}"\n]\n'


class TestUseCaseNameScenario:
    def test_message_lines(self):
        _, diags = check_fixture("figure7.rsl")
        (d,) = by_code(diags, "RSL-L001")
        lines = d.message.splitlines()
        assert lines[0] == "This text must follow the pattern '(Verb) + (DataEntity.name)'"
        assert lines[1] == "The word 'Invoice' is expected to be the name of a/an 'DataEntity'"

    def test_fix_title(self):
        _, diags = check_fixture("figure7.rsl")
        (d,) = by_code(diags, "RSL-L001")
        assert d.fixes[0].title == "Create 'DataEntity' with name 'Invoice'"

    def test_diagnostic_points_at_name(self):
        rm, diags = check_fixture("figure7.rsl")
        (d,) = by_code(diags, "RSL-L001")
        src = Path(d.span.file).read_text(encoding="utf-8")
        assert src[d.span.offset : d.span.offset + d.span.length] == "Print Invoice"

    def test_applying_fix_satisfies_rule(self):
        _, diags = check_fixture("figure7.rsl")
        (d,) = by_code(diags, "RSL-L001")
        src = Path(d.span.file).read_text(encoding="utf-8")
        fixed = apply_edits(src, d.fixes[0].edits)
        _, diags2 = check_source(fixed)
        assert by_code(diags2, "RSL-L001") == []

    def test_compliant_name_passes(self):
        src = UC_RULE + 'DataEntity e_1 "Invoice" : Document\nUseCase uc_1 "Print Invoice" : EntityPrint\n'
        _, diags = check_source(src)
        assert by_code(diags, "RSL-L001") == []


class TestPortugueseScenario:
    def test_portuguese_lexicon_selected_by_language_decl(self):
        _, diags = check_fixture("figure9_pt.rsl")
        (d,) = by_code(diags, "RSL-L001")
        assert "The word 'Fatura' is expected to be the name of a/an 'DataEntity'" in d.message
        assert d.fixes[0].title == "Create 'DataEntity' with name 'Fatura'"

    def test_compliant_portuguese_name(self):
        src = (
            "LinguisticLanguage l : Portuguese\n"
            + UC_RULE
            + 'DataEntity e_1 "Fatura" : Document\nUseCase uc_1 "Criar Fatura" : EntityCreate\n'
        )
        _, diags = check_source(src)
        assert by_code(diags, "RSL-L001") == []

    def test_missing_lexicon_reported(self):
        src = "LinguisticLanguage l : Japanese\n" + UC_RULE + 'UseCase uc_1 "X" : Other\n'
        _, diags = check_source(src)
        assert by_code(diags, "RSL-C004")
        assert by_code(diags, "RSL-L001") == []

    @pytest.mark.parametrize("body", ["", UC_RULE, 'Term t_1 "Invoice" : Noun [synonyms "Bill"]\n'])
    def test_missing_lexicon_reported_whether_or_not_a_check_reads_one(self, body):
        ws = Workspace()
        rm = resolve(add_system(ws, "Main", "LinguisticLanguage l : Japanese\n" + body, "<test>"), ws)
        assert [d.message for d in by_code(run_all_checks(rm, ws), "RSL-C004")] == [
            "No lexicon available for language 'Japanese'; linguistic rules skipped"
        ]
        assert by_code(run_all_checks(rm, ws, {"Japanese": Lexicon()}), "RSL-C004") == []


class TestRuleMechanics:
    def test_severity_taken_from_rule(self):
        src = UC_RULE.replace("severity Error", "severity Warning") + 'UseCase uc_1 "Nothing" : Other\n'
        _, diags = check_source(src)
        (d,) = by_code(diags, "RSL-L001")
        assert d.severity == "Warning"

    def test_description_checked_per_sentence(self):
        _, diags = check_source(fr_spec("System shall print. Users may not."))
        assert len(by_code(diags, "RSL-L001")) == 1  # only the second sentence fails

    def test_failing_sentence_is_the_range(self):
        src = fr_spec("System shall print. Users may not.")
        _, diags = check_source(src)
        (d,) = by_code(diags, "RSL-L001")
        assert src[d.span.offset : d.span.end_offset] == "Users may not"
        assert (d.span.start_line, d.span.end_line) == (7, 7)
        assert d.span.end_col - d.span.start_col == len("Users may not")

    def test_each_failing_sentence_gets_its_own_range(self):
        src = fr_spec("Users may not. Users may not.")
        _, diags = check_source(src)
        l001 = by_code(diags, "RSL-L001")
        assert [src[d.span.offset : d.span.end_offset] for d in l001] == ["Users may not"] * 2
        assert l001[0].span.offset < l001[1].span.offset

    def test_escaped_description_keeps_whole_range(self):
        rm, diags = check_source(fr_spec('System shall \\"print\\". Users may not.'))
        (d,) = by_code(diags, "RSL-L001")
        fr = next(e for e in rm.effective_elements if e.id == "fr_1")
        assert d.span == fr.description_span

    def test_rule_without_a_pattern_checks_nothing(self):
        src = UC_RULE.replace("  pattern Verb + (DataEntity.name)\n", "") + 'UseCase uc_1 "Nothing" : Other\n'
        _, diags = check_source(src)
        assert [d.code for d in diags] == ["RSL-S002"]

    def test_sentence_without_words_is_not_checked(self):
        _, diags = check_source(fr_spec("System shall print. -- . System shall print."))
        assert by_code(diags, "RSL-L001") == []

    def test_rule_does_not_check_itself(self):
        src = (
            'LinguisticRule LR "Verb only" : Syntax [\n'
            "  property LinguisticRule.name\n"
            "  pattern Verb\n"
            "  severity Error\n"
            "]\n"
        )
        _, diags = check_source(src)
        assert by_code(diags, "RSL-L001") == []

    def test_no_create_fix_for_pos_failure(self):
        src = (
            'LinguisticRule LR "Actor name" : Syntax [\n'
            "  property Actor.name\n"
            "  pattern (Noun | ProperNoun)\n"
            "  severity Error\n"
            "]\n"
            'Actor a_1 "Approve" : User\n'
        )
        _, diags = check_source(src)
        (d,) = by_code(diags, "RSL-L001")
        assert d.fixes == ()
        assert d.message.splitlines()[1] == "Expected a Noun or ProperNoun"

    def test_shared_candidate_gets_one_creation(self):
        src = (
            UC_RULE
            + 'UseCase uc_1 "Print Report" : Other\n'
            + 'UseCase uc_2 "Export Report" : Other\n'
        )
        _, diags = check_source(src)
        l001 = by_code(diags, "RSL-L001")
        assert len(l001) == 2
        edits = {f.edits for d in l001 for f in d.fixes}
        assert len(edits) == 1, "both diagnostics must share one create fix"

    def test_created_id_is_fresh(self):
        src = (
            UC_RULE
            + "DataEntity ec_Report : Other\n"
            + 'UseCase uc_1 "Print Report" : Other\n'
        )
        _, diags = check_source(src)
        (d,) = by_code(diags, "RSL-L001")
        new_text = d.fixes[0].edits[0].new_text
        assert "ec_Report_2" in new_text


def test_name_normalizations_grow_linearly_with_the_spec(monkeypatch):
    calls = []
    real = rslkit.rules.normalize
    monkeypatch.setattr(rslkit.rules, "normalize", lambda text: calls.append(text) or real(text))

    def count(pairs: int) -> int:
        src = UC_RULE + "".join(
            f'DataEntity e_{i} "Record {i}" : Other\nUseCase uc_{i} "Print Record {i}" : Other\n'
            for i in range(pairs)
        )
        calls.clear()
        _, diags = check_source(src)
        assert by_code(diags, "RSL-L001") == []
        return len(calls)

    small, large = count(40), count(80)
    assert small > 0 and large / small <= 2.2


def test_message_shows_pattern_literals_unescaped():
    # The source escapes the quote and the backslash; the message shows the
    # literal as it reads, while the printer writes it back escaped.
    source = (
        'LinguisticRule LR "Q" : Syntax [\n'
        "  property FunctionalRequirement.description\n"
        '  pattern "say \\"hi\\"" + "a\\\\b" + (Verb | "x\\"y")\n'
        "  severity Error\n"
        "]\n"
        'FunctionalRequirement fr_1 "F" : Functional [description "Nothing matches here"]\n'
    )
    rm, diags = check_source(source)
    (d,) = by_code(diags, "RSL-L001")
    assert d.message.splitlines()[0] == """This text must follow the pattern '"say "hi"" + "a\\b" + (Verb | "x"y")'"""
    assert print_pattern(rm.model.elements[0].pattern) == r'"say \"hi\"" + "a\\b" + (Verb | "x\"y")'
