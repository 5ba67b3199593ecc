"""Pattern matching of tagged tokens against linguistic patterns."""

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_match_pattern
from rslkit.lexicon import analyze, builtin_lexicon
from rslkit.rules import FragmentIndex, match_pattern, normalize
from rslkit.model import (
    FRAGMENTS,
    POS_CATEGORIES,
    Actor,
    AltPart,
    DataEntity,
    FragmentRefPart,
    LitPart,
    PosPart,
)

EN = builtin_lexicon("English")

VERB_ENTITY = (PosPart("Verb"), FragmentRefPart("DataEntity", "name"))
FR_PATTERN = (
    LitPart("System"),
    LitPart("shall"),
    PosPart("Verb"),
    FragmentRefPart("DataEntity", "name"),
)


def entities(*names):
    return [DataEntity(id=f"e_{i}", name=n) for i, n in enumerate(names)]


def match(pattern, text, elems=()):
    return match_pattern(pattern, analyze(text, EN), FragmentIndex(list(elems)))


class TestBasic:
    def test_verb_plus_entity_matches(self):
        result = match(VERB_ENTITY, "Print Invoice", entities("Invoice"))
        assert result.matched and result.prefix_len == 2

    def test_prefix_semantics_allow_trailing_tokens(self):
        result = match(VERB_ENTITY, "Print Invoice Again", entities("Invoice"))
        assert result.matched

    def test_missing_entity_fails_with_candidate(self):
        result = match(VERB_ENTITY, "Print Invoice", entities("Receipt"))
        assert not result.matched
        assert result.candidate == "Invoice"
        assert isinstance(result.expectation, FragmentRefPart)

    def test_candidate_caps_at_three_tokens(self):
        result = match(VERB_ENTITY, "print alpha beta gamma delta", [])
        assert result.candidate == "Alpha Beta Gamma"

    def test_literal_is_case_insensitive(self):
        result = match(FR_PATTERN, "system shall print Invoice", entities("Invoice"))
        assert result.matched

    def test_literal_failure_reports_expected_word(self):
        result = match(FR_PATTERN, "Machine shall print Invoice", entities("Invoice"))
        assert not result.matched
        assert isinstance(result.expectation, LitPart)
        assert result.expectation.text == "System"


class TestFragmentRefs:
    def test_lemma_match_for_plural(self):
        result = match(VERB_ENTITY, "Manage Invoices", entities("Invoice"))
        assert result.matched

    def test_multiword_entity_name(self):
        result = match(VERB_ENTITY, "Manage Invoice Line", entities("Invoice Line"))
        assert result.matched and result.prefix_len == 3

    def test_longest_run_preferred_with_backtracking(self):
        # Both "Invoice" and "Invoice Line" exist; a following literal
        # forces the shorter consumption.
        pattern = (PosPart("Verb"), FragmentRefPart("DataEntity", "name"), LitPart("Line"))
        result = match(pattern, "Manage Invoice Line", entities("Invoice", "Invoice Line"))
        assert result.matched and result.prefix_len == 3

    def test_id_fragment(self):
        pattern = (FragmentRefPart("DataEntity", "id"),)
        elems = entities("Invoice")
        result = match_pattern(pattern, analyze("e_0", EN), FragmentIndex(elems))
        assert result.matched


class TestAlternation:
    NOUNISH = (AltPart((PosPart("Noun"), PosPart("ProperNoun"))),)

    def test_noun_matches(self):
        assert match(self.NOUNISH, "Manager").matched

    def test_proper_noun_matches(self):
        assert match(self.NOUNISH, "send Xyzzyq", []).matched is False  # prefix is "send"
        assert match(self.NOUNISH, "Xyzzyq").matched  # initial cap falls back to NOUN

    def test_pure_verb_fails(self):
        result = match(self.NOUNISH, "Approve")
        assert not result.matched
        assert isinstance(result.expectation, AltPart)

    def test_alt_with_fragment_ref_supplies_candidate(self):
        pattern = (AltPart((LitPart("the"), FragmentRefPart("DataEntity", "name"))),)
        result = match(pattern, "Report", [])
        assert not result.matched and result.candidate == "Report"


class TestFurthestFailure:
    def test_failure_points_at_deepest_token(self):
        result = match(FR_PATTERN, "System shall export Report", entities("Invoice"))
        assert not result.matched
        assert result.fail_token_index == 3
        assert result.candidate == "Report"

    def test_empty_text_fails_on_first_part(self):
        result = match_pattern(VERB_ENTITY, [], FragmentIndex([]))
        assert not result.matched and result.fail_part_index == 0


def test_normalize():
    assert normalize("  Invoice   Line ") == "invoice line"
    assert normalize("Invoice-Line!") == "invoice line"


class TestBacktrackingCost:
    def test_adversarial_chain_is_polynomial(self, monkeypatch):
        # 18 name parts over 36 tokens, each part able to take one or two
        # tokens, then a literal that never matches: plain backtracking
        # visits every composition of the prefix before giving up.
        pattern = (FragmentRefPart("DataEntity", "name"),) * 18 + (LitPart("zzz"),)
        index = FragmentIndex(entities("Invoice", "Invoice Invoice"))
        lookups, probes = [], []

        class ProbedSet(set):
            def __contains__(self, window):
                probes.append(window)
                return super().__contains__(window)

        def values(kind, fragment):
            lookups.append((kind, fragment))
            targets, longest = FragmentIndex.values(index, kind, fragment)
            return ProbedSet(targets), longest

        monkeypatch.setattr(index, "values", values)
        result = match_pattern(pattern, analyze(" ".join(["Invoice"] * 36), EN), index)
        assert not result.matched
        assert (result.fail_part_index, result.fail_token_index) == (18, 36)
        assert result.expectation == LitPart("zzz")
        # Each (part, token) state is expanded at most once, and tries runs
        # of at most two tokens (the longest name), each by surface and lemma.
        assert 0 < len(lookups) <= 18 * 37
        assert len(probes) <= 2 * 2 * len(lookups)


# --- differential check against the plain backtracking matcher -------------

# A small vocabulary, and patterns that mostly follow the text with
# element values cut from it, so fragment references often match at
# several run lengths and the search backtracks. Plurals exercise lemmas.
WORDS = ["invoice", "invoices", "line", "lines", "print", "the", "e_1", "zzz"]
KIND_CLASSES = {"DataEntity": DataEntity, "Actor": Actor}


@st.composite
def match_cases(draw):
    words = draw(st.lists(st.sampled_from(WORDS), max_size=8))
    words = [w.capitalize() if draw(st.booleans()) else w for w in words]
    tokens = analyze(" ".join(words), EN)
    phrase = st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(" ".join)
    kinds = st.sampled_from(sorted(KIND_CLASSES))
    elems = [
        KIND_CLASSES[draw(kinds)](id=f"x_{n}", name=draw(st.none() | phrase), description=draw(st.none() | phrase))
        for n in range(draw(st.integers(0, 3)))
    ]
    ref = st.builds(FragmentRefPart, kinds, st.sampled_from(FRAGMENTS))
    simple = st.one_of(
        ref,
        st.builds(PosPart, st.sampled_from(sorted(POS_CATEGORIES))),
        st.builds(LitPart, st.sampled_from(WORDS)),
    )
    alt = st.tuples(ref, st.lists(simple, min_size=1, max_size=2), st.booleans()).map(
        lambda t: AltPart((t[0], *t[1]) if t[2] else (*t[1], t[0]))
    )
    parts, at = [], 0
    for _ in range(draw(st.integers(1, 5))):
        how = draw(st.sampled_from(["any", "ref", "ref", "lit", "pos"])) if at < len(tokens) else "any"
        if how == "any":
            parts.append(draw(st.one_of(simple, alt)))
        elif how == "ref":
            part = draw(ref)
            for run in draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)):
                elem = KIND_CLASSES[part.element_kind](id=f"x_{len(elems)}")
                setattr(elem, part.fragment, " ".join(words[at : at + run]))
                elems.append(elem)
            parts.append(part)
            at += draw(st.integers(1, 2))
        elif how == "lit":
            parts.append(LitPart(tokens[at].surface))
            at += 1
        else:
            tag = draw(st.sampled_from(sorted(tokens[at].tags)))
            parts.append(PosPart(next(c for c, t in POS_CATEGORIES.items() if t == tag)))
            at += 1
    return tuple(parts), tokens, elems


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(match_cases())
def test_matches_plain_backtracking_oracle(case):
    pattern, tokens, elems = case
    assert match_pattern(pattern, tokens, FragmentIndex(elems)) == oracle_match_pattern(pattern, tokens, elems)
