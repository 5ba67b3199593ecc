"""Round-trip guarantees: parse(print_model(m)) == m, and printing is idempotent."""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixture_text
from modelgen import TRICKY, random_model
from rslkit.model import (
    CONSTRAINTS,
    DATA_TYPES,
    FRAGMENTS,
    LANGUAGES,
    POS_CATEGORIES,
    SEVERITIES,
    Actor,
    AltPart,
    Attribute,
    DataEntity,
    FragmentRefPart,
    FunctionalRequirement,
    IncludeDecl,
    LinguisticLanguageDecl,
    LinguisticRuleDecl,
    LitPart,
    Model,
    PosPart,
    Stakeholder,
    Term,
    UseCase,
)
from rslkit.parser import parse
from rslkit.printer import print_element, print_model, quote

FIXTURES = [
    "billing_clean.rsl",
    "billing_defects.rsl",
    "figure7.rsl",
    "figure9_pt.rsl",
    "system_rules.rsl",
    "billing_include.rsl",
]


def roundtrip(model):
    text = print_model(model)
    reparsed, diags = parse(text, "<roundtrip>")
    assert diags == [], [d.message for d in diags] + [text]
    return reparsed, text


def test_fixture_roundtrip():
    for name in FIXTURES:
        model, diags = parse(fixture_text(name), name)
        assert diags == []
        reparsed, text = roundtrip(model)
        assert reparsed == model, name
        # Printing the reparsed model reproduces the canonical text exactly.
        assert print_model(reparsed) == text, name


def test_random_models_roundtrip():
    for seed in range(100):
        model = random_model(seed)
        reparsed, text = roundtrip(model)
        assert reparsed == model, f"seed={seed}\n{text}"


def test_quote_escapes():
    assert quote('say "hi"') == '"say \\"hi\\""'
    assert quote("back\\slash") == '"back\\\\slash"'


def test_escaped_strings_survive_roundtrip():
    original = Actor(id="a_1", name='He said "hi\\there"', actor_type="User")
    text = print_element(original)
    model, diags = parse(text, "f")
    assert diags == []
    assert model.elements[0].name == original.name


def test_element_printing_is_parseable_alone():
    model = random_model(424242)
    for elem in model.elements:
        reparsed, diags = parse(print_element(elem), "f")
        assert diags == []
        assert reparsed.elements[0] == elem


# Built from the model classes and their constants, not from the kind
# table, so it checks the table-driven parser and printer independently.
KINDS = ["DataEntity", "Actor", "UseCase", "Term", "Stakeholder", "FunctionalRequirement", "LinguisticRule"]
ident = st.builds(str.__add__, st.sampled_from("abcxyz"), st.text("abcxyz019_", max_size=5))
text = st.sampled_from(TRICKY) | st.text(st.characters(exclude_characters="\r\n", exclude_categories=["Cs"]), max_size=8)


def maybe(strategy):
    return st.none() | strategy

ids = st.lists(ident, max_size=3).map(tuple)
atom = st.one_of(
    st.builds(PosPart, st.sampled_from(sorted(POS_CATEGORIES))),
    st.builds(LitPart, text),
    st.builds(FragmentRefPart, st.sampled_from(KINDS), st.sampled_from(FRAGMENTS)),
)
pattern = st.lists(atom | st.lists(atom, min_size=2, max_size=3).map(tuple).map(AltPart), min_size=1, max_size=4)
attribute = st.builds(
    Attribute,
    id=ident,
    name=text,
    data_type=st.sampled_from(DATA_TYPES),
    constraints=st.lists(st.sampled_from(CONSTRAINTS), unique=True, max_size=2).map(tuple),
    default_value=maybe(text),
)


def element(cls, **clauses):
    return st.builds(cls, id=ident, name=maybe(text), description=maybe(text), **clauses)


@st.composite
def use_case(draw):
    uc = draw(
        element(
            UseCase,
            uc_type=ident,
            primary_actor=maybe(ident),
            data_entity=maybe(ident),
            actions=ids,
            extension_points=ids,
            precondition=maybe(text),
        )
    )
    if draw(st.booleans()):
        uc.extends_target, uc.extends_point = draw(ident), draw(ident)
    return uc


elements = st.one_of(
    element(
        DataEntity,
        entity_type=ident,
        attributes=st.lists(attribute, max_size=3, unique_by=lambda a: a.id)
        .filter(lambda attrs: sum("PrimaryKey" in a.constraints for a in attrs) <= 1)
        .map(tuple),
        is_a=maybe(ident),
        part_of=maybe(ident),
    ),
    element(Actor, actor_type=ident, is_a=maybe(ident)),
    use_case(),
    element(Term, pos_category=st.sampled_from(sorted(POS_CATEGORIES)), synonyms=st.lists(text, max_size=3).map(tuple))
    .filter(lambda t: t.name is None or t.name.lower() not in {s.lower() for s in t.synonyms}),
    element(Stakeholder, stakeholder_type=ident, stakeholder_subtype=maybe(ident)),
    element(FunctionalRequirement, fr_type=ident),
    element(
        LinguisticRuleDecl,
        target_kind=st.sampled_from(KINDS),
        fragment=st.sampled_from(FRAGMENTS),
        pattern=pattern.map(tuple),
        severity=st.sampled_from(SEVERITIES),
    ),
)
include = st.one_of(
    st.builds(IncludeDecl, st.sampled_from(["Import", "IncludeAll"]), ident),
    st.builds(IncludeDecl, st.just("Include"), ident, st.sampled_from(KINDS), ident),
)


@st.composite
def models(draw):
    model = Model(elements=draw(st.lists(elements, max_size=8)), includes=draw(st.lists(include, max_size=2)))
    if draw(st.booleans()):
        model.language_decl = draw(element(LinguisticLanguageDecl, language=st.sampled_from(LANGUAGES)))
        model.elements.insert(draw(st.integers(0, len(model.elements))), model.language_decl)
    return model


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(models())
def test_hypothesis_models_roundtrip(model):
    reparsed, text = roundtrip(model)
    assert reparsed == model, text
    assert print_model(reparsed) == text
