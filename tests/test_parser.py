"""Parser behavior: structure, spans, error recovery, totality."""

import random
import string
import time

import pytest

from conftest import by_code, fixture_path, fixture_text
from rslkit.lexer import tokenize
from rslkit.model import DataEntity, LinguisticRuleDecl, Term, UseCase
from rslkit.parser import parse


def parse_ok(source):
    model, diags = parse(source, "<test>")
    assert diags == [], [d.message for d in diags]
    return model


class TestLexer:
    def test_string_escapes_decoded(self):
        tokens = tokenize(r'"a \"quoted\" word"')
        assert tokens.kinds[0] == "string"
        assert tokens.texts[0] == 'a "quoted" word'

    def test_unterminated_string_is_error_token(self):
        tokens = tokenize('"oops\nActor a')
        assert tokens.kinds[0] == "error"

    def test_content_span_matches_inner_text(self):
        src = 'Actor a "Manager" : User [description "a \\"boss\\""]'
        (actor,) = parse_ok(src).elements
        for span, inner in ((actor.name_span, "Manager"), (actor.description_span, 'a \\"boss\\"')):
            assert src[span.offset : span.offset + span.length] == inner

    def test_comment_skipped(self):
        kinds = tokenize("// note\nActor").kinds
        assert kinds == ["identifier", "end"]


class TestStructure:
    def test_clean_fixture_counts(self):
        model, diags = parse(fixture_text("billing_clean.rsl"), fixture_path("billing_clean.rsl"))
        assert diags == []
        kinds = {}
        for e in model.elements:
            kinds[e.kind] = kinds.get(e.kind, 0) + 1
        assert kinds["UseCase"] == 5
        assert kinds["DataEntity"] == 3
        assert kinds["Actor"] == 4
        assert kinds["Stakeholder"] == 2
        assert kinds["FunctionalRequirement"] == 2
        assert kinds["LinguisticRule"] == 3
        assert kinds["Term"] == 2

    def test_data_entity_details(self):
        model = parse_ok(
            'DataEntity e_1 "Invoice" : Document [\n'
            '  attribute ID "Invoice ID" : Integer [constraints (PrimaryKey, NotNull) defaultValue "0"]\n'
            "  isA e_0\n"
            "]\n"
        )
        (entity,) = model.elements
        assert isinstance(entity, DataEntity)
        assert entity.entity_type == "Document"
        attr = entity.attributes[0]
        assert (attr.id, attr.name, attr.data_type) == ("ID", "Invoice ID", "Integer")
        assert attr.constraints == ("PrimaryKey", "NotNull")
        assert attr.default_value == "0"
        assert entity.is_a == "e_0"

    def test_use_case_details(self):
        model = parse_ok(
            "UseCase uc_2 \"Print Invoice\" : EntityPrint [\n"
            "  primaryActor a_1\n"
            "  dataEntity e_1\n"
            "  actions aPrint, aClose\n"
            "  extends uc_1 onExtensionPoint xp_Print\n"
            '  precondition "state ok"\n'
            "]\n"
        )
        (uc,) = model.elements
        assert isinstance(uc, UseCase)
        assert uc.actions == ("aPrint", "aClose")
        assert (uc.extends_target, uc.extends_point) == ("uc_1", "xp_Print")
        assert uc.precondition == "state ok"

    def test_name_is_optional(self):
        model = parse_ok("Actor a_1 : User")
        assert model.elements[0].name is None
        assert model.elements[0].name_alias == "a_1"

    def test_rule_pattern_parsed(self):
        model = parse_ok(
            'LinguisticRule r "R" : Syntax [\n'
            "  property UseCase.name\n"
            '  pattern Verb + (Noun | ProperNoun) + "of" + DataEntity.name\n'
            "  severity Warning\n"
            "]\n"
        )
        (rule,) = model.elements
        assert isinstance(rule, LinguisticRuleDecl)
        assert rule.target_kind == "UseCase"
        assert rule.fragment == "name"
        assert rule.severity == "Warning"
        assert len(rule.pattern) == 4

    def test_language_decl(self):
        model = parse_ok("LinguisticLanguage l : Portuguese")
        assert model.language == "Portuguese"


class TestSpans:
    def test_element_spans_slice_to_source(self):
        src = fixture_text("billing_clean.rsl")
        model, _ = parse(src, "f")
        for elem in model.elements:
            chunk = src[elem.span.offset : elem.span.offset + elem.span.length]
            assert chunk.startswith(elem.kind)
            assert src[elem.id_span.offset : elem.id_span.offset + elem.id_span.length] == elem.id

    def test_multiline_spans_have_line_and_col_of_their_offsets(self):
        src = fixture_text("billing_clean.rsl")
        model, _ = parse(src, "f")

        def line_col(offset):
            return src.count("\n", 0, offset) + 1, offset - (src.rfind("\n", 0, offset) + 1) + 1

        spans = [e.span for e in model.elements] + [model.end_span]
        assert any(s.start_line != s.end_line for s in spans)
        for s in spans:
            assert (s.start_line, s.start_col) == line_col(s.offset)
            assert (s.end_line, s.end_col) == line_col(s.end_offset)

    def test_name_span_content_when_no_escapes(self):
        src = 'Actor a_1 "Manager" : User'
        model, _ = parse(src, "f")
        ns = model.elements[0].name_span
        assert src[ns.offset : ns.offset + ns.length] == "Manager"
        assert ns.length == len(model.elements[0].name)

    def test_escaped_name_span_not_content_sized(self):
        src = r'Actor a_1 "He said \"hi\"" : User'
        model, _ = parse(src, "f")
        elem = model.elements[0]
        assert elem.name == 'He said "hi"'
        assert elem.name_span.length != len(elem.name)


class TestRecovery:
    def test_unknown_declaration_recovers(self):
        src = "Actor a_1 : User\nBogus junk here\nActor a_2 : User\n"
        model, diags = parse(src, "f")
        assert [e.id for e in model.elements] == ["a_1", "a_2"]
        assert by_code(diags, "RSL-S001")

    def test_truncated_body(self):
        model, diags = parse('Actor a_1 "X" : User [\n  isA', "f")
        assert diags, "truncated input must produce a diagnostic"
        assert all(d.code.startswith("RSL-S") for d in diags)

    def test_invalid_data_type(self):
        _, diags = parse('DataEntity e "E" : Other [attribute a "A" : Bananas]', "f")
        assert by_code(diags, "RSL-S004")

    def test_invalid_severity(self):
        _, diags = parse(
            'LinguisticRule r "R" : Syntax [property Actor.name pattern Noun severity Loud]', "f"
        )
        assert by_code(diags, "RSL-S004")

    def test_invalid_pos_category(self):
        _, diags = parse(
            'LinguisticRule r "R" : Syntax [property Actor.name pattern Gerund severity Error]', "f"
        )
        assert by_code(diags, "RSL-S003") or by_code(diags, "RSL-S004")

    def test_duplicate_language(self):
        _, diags = parse(
            "LinguisticLanguage l1 : English\nLinguisticLanguage l2 : Portuguese", "f"
        )
        assert by_code(diags, "RSL-S005")

    def test_term_self_synonym(self):
        _, diags = parse('Term t "Customer" : Noun [synonyms "customer"]', "f")
        assert by_code(diags, "RSL-S007")

    def test_misspelled_kind_rejected(self):
        _, diags = parse('DateEntity e "E" : Other', "f")
        assert by_code(diags, "RSL-S001")

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_a_stray_bracket_is_skipped_up_to_a_keyword_in_column_1(self, newline):
        src = (
            'UseCase uc_1 "Print Invoice" : Other [\n'
            "  primaryActor sh_Op sh_FinanceTeam [ [\n"
            "  Actor a_1 : User\n"  # inside the brackets and not in column 1: skipped
            "]\n"
            'Stakeholder sh_Op "Operator" : Other\n'
        ).replace("\n", newline)
        model, diags = parse(src, "f")
        assert [e.id for e in model.elements] == ["uc_1", "sh_Op"]
        assert by_code(diags, "RSL-S002")


def test_an_entity_parses_in_linear_time_in_its_attributes():
    def seconds(n: int) -> float:
        source = "DataEntity e : Other [\n" + "".join(f'  attribute a_{i} "A" : Integer\n' for i in range(n)) + "]\n"
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            model, _ = parse(source, "f")
            best = min(best, time.perf_counter() - start)
        assert len(model.elements[0].attributes) == n
        return best

    # 16 times the attributes: a linear parse takes about 16 times as long, a quadratic one about 256.
    assert seconds(16_000) / seconds(1_000) < 40


class TestTotality:
    """parse() must terminate without raising on arbitrary input."""

    ALPHABET = string.ascii_letters + string.digits + ' \t\n"[]():,.+|\\_{}-#'

    def test_fuzz_random_text(self):
        rng = random.Random(20260823)
        for _ in range(500):
            source = "".join(rng.choice(self.ALPHABET) for _ in range(rng.randint(0, 120)))
            model, diags = parse(source, "fuzz")
            assert model is not None
            for d in diags:
                assert d.code.startswith("RSL-S")

    def test_fuzz_mutated_fixture(self):
        base = fixture_text("billing_clean.rsl")
        rng = random.Random(7)
        for _ in range(100):
            pos = rng.randrange(len(base))
            mutated = base[:pos] + rng.choice(self.ALPHABET) + base[pos + 1 :]
            parse(mutated, "fuzz")  # must not raise

    def test_empty_input(self):
        model, diags = parse("", "f")
        assert model.elements == [] and diags == []
