"""Spans, text edits, pattern rendering, diagnostic ordering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_apply_edits
from rslkit.model import (
    FRAGMENTS,
    AltPart,
    Diagnostic,
    Element,
    FragmentRefPart,
    LitPart,
    OverlappingEdits,
    PosPart,
    SourceSpan,
    TextEdit,
    apply_edits,
)
from rslkit.printer import render_pattern


def span(offset, length, file="f"):
    return SourceSpan(file, 1, offset + 1, 1, offset + length + 1, offset, length)


class TestApplyEdits:
    def test_single_replacement(self):
        assert apply_edits("hello world", [TextEdit(span(6, 5), "there")]) == "hello there"

    def test_insertion(self):
        assert apply_edits("ab", [TextEdit(span(1, 0), "X")]) == "aXb"

    def test_deletion(self):
        assert apply_edits("abcdef", [TextEdit(span(2, 2), "")]) == "abef"

    def test_order_independent(self):
        edits = [TextEdit(span(0, 1), "X"), TextEdit(span(4, 1), "Y")]
        assert apply_edits("abcde", edits) == apply_edits("abcde", list(reversed(edits)))
        assert apply_edits("abcde", edits) == "XbcdY"

    def test_overlap_rejected(self):
        with pytest.raises(OverlappingEdits):
            apply_edits("abcdef", [TextEdit(span(0, 3), "X"), TextEdit(span(2, 3), "Y")])

    def test_conflicting_insertions_rejected(self):
        with pytest.raises(OverlappingEdits):
            apply_edits("ab", [TextEdit(span(1, 0), "X"), TextEdit(span(1, 0), "Y")])

    def test_insertion_adjacent_to_replacement(self):
        # A zero-length edit at the boundary of another edit is not an overlap.
        edits = [TextEdit(span(2, 0), "X"), TextEdit(span(2, 2), "YY")]
        assert apply_edits("abcd", edits) == "abXYY"


@st.composite
def text_and_edits(draw):
    source = draw(st.text("abc", max_size=12))
    edits = []
    for _ in range(draw(st.integers(0, 5))):
        offset = draw(st.integers(0, len(source)))
        length = draw(st.integers(0, len(source) - offset))
        edits.append(TextEdit(span(offset, length), draw(st.sampled_from(["", "X", "YY"]))))
    return source, edits


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(text_and_edits())
def test_apply_edits_in_one_pass_matches_the_oracle(case):
    """The text of the edit-by-edit oracle, or the same `OverlappingEdits` message."""
    source, edits = case
    try:
        want = oracle_apply_edits(source, edits)
    except OverlappingEdits as exc:
        with pytest.raises(OverlappingEdits) as got:
            apply_edits(source, edits)
        assert str(got.value) == str(exc)
    else:
        assert apply_edits(source, edits) == want


class TestSpans:
    def test_overlap_symmetric(self):
        a, b = span(0, 5), span(3, 5)
        assert a.overlaps(b) and b.overlaps(a)

    def test_disjoint(self):
        assert not span(0, 2).overlaps(span(2, 2))

    def test_zero_length_at_same_offset_not_overlap(self):
        assert not span(3, 0).overlaps(span(3, 0))

    def test_different_files_never_overlap(self):
        assert not span(0, 5, "a").overlaps(span(0, 5, "b"))


class TestFragments:
    ELEM = Element(
        id="uc_1",
        name="Pay",
        description="Pays.",
        span=span(0, 30),
        id_span=span(8, 4),
        name_span=span(14, 3),
        description_span=span(24, 5),
    )

    def test_each_fragment_reads_its_field_and_span(self):
        values = [self.ELEM.fragment_value(f) for f in FRAGMENTS]
        spans = [self.ELEM.fragment_span(f) for f in FRAGMENTS]
        assert values == ["uc_1", "Pay", "Pays."]
        assert [(s.offset, s.length) for s in spans] == [(8, 4), (14, 3), (24, 5)]

    @pytest.mark.parametrize("fragment", ["title", "span", "kind", "", "id_span"])
    def test_unknown_fragment_is_none(self, fragment):
        assert self.ELEM.fragment_value(fragment) is None
        assert self.ELEM.fragment_span(fragment) is None


class TestPatternRendering:
    def test_figure_pattern(self):
        p = (PosPart("Verb"), FragmentRefPart("DataEntity", "name"))
        assert render_pattern(p) == "(Verb) + (DataEntity.name)"

    def test_literals_and_alternation(self):
        p = (
            LitPart("System"),
            LitPart("shall"),
            PosPart("Verb"),
            AltPart((PosPart("Noun"), PosPart("ProperNoun"))),
        )
        assert render_pattern(p) == '"System" + "shall" + (Verb) + (Noun | ProperNoun)'


def test_diagnostic_sort_key_orders_by_file_then_offset():
    d1 = Diagnostic("Error", "RSL-V001", "m", span(10, 1, "a"))
    d2 = Diagnostic("Error", "RSL-V001", "m", span(2, 1, "b"))
    d3 = Diagnostic("Error", "RSL-V001", "m", span(4, 1, "a"))
    assert sorted([d1, d2, d3], key=Diagnostic.sort_key) == [d3, d1, d2]
