"""The Record base: construction, equality, repr and unhashability of the value classes."""

import importlib
import warnings
from pathlib import Path

import pytest

from rslkit.lexicon import Lexicon
from rslkit.rules import MatchResult
from rslkit import model
from rslkit.model import (
    Attribute,
    DataEntity,
    Diagnostic,
    Element,
    LitPart,
    Model,
    PosPart,
    Record,
    SourceSpan,
    UseCase,
)
from rslkit.template import Call, Name
from rslkit.workspace import ResolvedModel, Workspace

ROOT = Path(__file__).resolve().parent.parent


def span(offset, file="f.rsl"):
    return SourceSpan(file, 1, offset + 1, 1, offset + 2, offset, 1)


def test_positional_and_keyword_construction_with_defaults():
    a = Attribute("a_1", "Amount", "Decimal")
    assert (a.constraints, a.default_value, a.span) == ((), None, None)
    assert a == Attribute(id="a_1", name="Amount", data_type="Decimal")
    e = DataEntity("e_1", "Invoice", entity_type="Document")
    assert (e.description, e.entity_type, e.attributes, e.is_a) == (None, "Document", (), None)
    assert MatchResult(True, prefix_len=3) == MatchResult(True, 3, 0, 0, None, None)
    with pytest.raises(TypeError):
        Attribute("a_1", "Amount")  # data_type has no default
    with pytest.raises(TypeError):
        Element("e_1", nickname="x")


def test_mutable_defaults_are_fresh_per_instance():
    assert Model().elements is not Model().elements
    assert Model().includes is not Model().includes
    assert Workspace().sources is not Workspace().sources
    assert Lexicon().entries is not Lexicon().entries
    model = Model()
    assert ResolvedModel(model, None, [], []).bindings is not ResolvedModel(model, None, [], []).bindings
    m = Model()
    m.elements.append(Element("e_1"))
    assert Model().elements == []


def test_equality_ignores_spans():
    a = UseCase("uc_1", "Pay", span=span(0), id_span=span(1), primary_actor="a_1", primary_actor_span=span(5))
    b = UseCase("uc_1", "Pay", span=span(9), primary_actor="a_1")
    assert a == b
    assert a != UseCase("uc_1", "Pay", primary_actor="a_2")
    assert Model([a], end_span=span(3)) == Model([b])
    assert Model([a]) != Model([a], [object()])
    # A span is compared where it is the subject, not a position.
    assert Diagnostic("Error", "C", "m", span(0)) != Diagnostic("Error", "C", "m", span(1))


def test_equality_needs_the_same_class():
    assert Element("a") != DataEntity("a")
    assert DataEntity("a") != Element("a")
    assert Element("a") != "a"
    assert Element("a") == Element("a")


def test_mutable_records_are_unhashable():
    # Nothing stops an assignment to a record or a span, so none of them is
    # hashable: a class that defines `__eq__` and no `__hash__` gets `__hash__ = None`.
    for cls in (*record_classes(), SourceSpan):
        assert cls.__hash__ is None, cls
    for x, y in [
        (span(4), span(4)),
        (Diagnostic("Error", "C", "m", span(0)), Diagnostic("Error", "C", "m", span(0))),
        (PosPart("Verb"), PosPart("Verb")),
        (MatchResult(False, 0, 1, 2, PosPart("Noun")), MatchResult(False, 0, 1, 2, PosPart("Noun"))),
        (Call("upper", (Name("x"),)), Call("upper", (Name("x"),))),
        (DataEntity("a"), DataEntity("a")),
        (Model(), Model()),
        (Lexicon(), Lexicon()),
    ]:
        assert x == y and x is not y
        with pytest.raises(TypeError):
            hash(x)
    with pytest.raises(TypeError):
        hash(Workspace())


def test_repr_leaves_out_span_fields():
    e = Element("e_1", "Invoice", span=span(0), id_span=span(1))
    assert repr(e) == "Element(id='e_1', name='Invoice', description=None)"
    assert repr(Model(end_span=span(2))) == "Model(elements=[], includes=[], language_decl=None)"
    assert repr(PosPart("Verb")) == "PosPart(category='Verb')"
    assert "_ids" not in repr(Workspace())


def test_field_tuple_lists_base_fields_first():
    assert DataEntity._fields[:7] == Element._fields
    assert Element._fields == ("id", "name", "description", "span", "id_span", "name_span", "description_span")
    assert [f for f in UseCase._fields if f.endswith("span")] == [
        "span",
        "id_span",
        "name_span",
        "description_span",
        "primary_actor_span",
        "data_entity_span",
        "extends_span",
    ]


def test_one_nan_object_keeps_a_record_equal_to_itself():
    # The compared fields form a tuple, and tuple equality tests identity first.
    nan = float("nan")
    a, b = LitPart(nan), LitPart(nan)
    assert a == b and a is not b
    assert LitPart(nan) != LitPart(float("nan"))


def record_classes() -> set:
    """Every Record class, with every rslkit module loaded."""
    for path in (ROOT / "src" / "rslkit").glob("[!_]*.py"):
        importlib.import_module(f"rslkit.{path.stem}")
    classes, todo = set(), [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            classes.add(cls)
            todo.append(cls)
    return classes


def test_only_record_defines_equality_and_hash():
    assert vars(Record)["__hash__"] is None
    for cls in record_classes():
        assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls), cls


def test_every_generated_init_compiles_without_a_warning():
    # A class's `__init__` is generated at its first construction, so importing
    # rslkit under `-W error` no longer compiles it; this compiles every one.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cls in record_classes():
            model._init(cls._fields, cls._defaults)


def test_the_first_construction_installs_the_generated_init():
    class Pair(Record):
        left: int
        right: list = []

    assert Pair.__init__ is model._first_init
    first = Pair(1)
    assert Pair.__init__ is not model._first_init
    assert (first.left, first.right) == (1, [])
    assert Pair(2, right=[3]).right == [3] and Pair(4).right is not first.right
