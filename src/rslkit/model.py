"""Document model: elements, spans, diagnostics, text edits.

Everything here is immutable-by-convention. A parsed model's spans stay out
of `==` so that reparsed models compare equal; a diagnostic's span counts.

Every value class in rslkit but `SourceSpan` is a `Record`: a slotted
class whose fields are its annotations, in order, base class fields
first, with the class attribute of the same name as the default. A
field whose default is a `Field` is outside `==` and `repr()`; every
other field is inside both. An empty list or dict default is built anew
for each instance. Each class gets one generated method, `__init__`
(positional or keyword arguments, plain assignment), from one `exec` at
the class's first construction, so importing a module compiles none and
a command compiles only the constructors of the classes it builds.
`__eq__` and `__hash__` are `Record`'s own: two records are equal when
they have the same class and equal tuples of compared fields, and the
hash is that tuple's. Only a class made with `frozen=True` keeps the
hash; the other records are unhashable. `frozen` only adds the hash:
nothing stops an assignment. `_fields` lists the field names.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Optional


class Field:
    """A field default that `==` and `repr()` leave out."""

    __slots__ = ("default",)

    def __init__(self, default=None):
        self.default = default


SPAN = Field()  # a source span: None by default, outside == and repr()

_REQUIRED = object()  # no default: the argument is required
_FRESH = object()  # stands in for an empty list or dict default until __init__ builds a new one


class _RecordType(type):
    """Gives each Record class its slots, field tuples, a first `__init__` and, unless frozen, `__hash__ = None`."""

    def __new__(mcs, name, bases, ns, frozen: bool = False):
        fields, defaults, compared = [], {}, []
        for base in bases:
            if isinstance(base, _RecordType):
                fields += base._fields
                defaults.update(base._defaults)
                compared += base._compared
        # Under `from __future__ import annotations` (every rslkit module) the
        # class body leaves its annotations in the namespace, as strings.
        own = tuple(ns.get("__annotations__", ()))
        for f in own:
            default = ns.pop(f, _REQUIRED)
            if isinstance(default, Field):
                default = default.default
            else:
                compared.append(f)
            if default is not _REQUIRED:
                defaults[f] = default
            fields.append(f)
        ns["__slots__"] = own
        ns.update(_fields=tuple(fields), _defaults=defaults, _compared=tuple(compared))
        if bases:
            ns["__init__"] = _first_init
            ns["__hash__"] = Record.__hash__ if frozen else None
        return super().__new__(mcs, name, bases, ns)


def _first_init(self, *args, **kwargs):
    """Every record class's `__init__` until its first construction, which puts the generated one in its place.

    Each record class holds its own `__init__`, so `type(self)` is the class being constructed.
    """
    cls = type(self)
    cls.__init__ = _init(cls._fields, cls._defaults)
    cls.__init__(self, *args, **kwargs)


def _init(fields, defaults):
    """`__init__` of one record class, from one exec."""
    params, body = [], []
    for f in fields:
        default = defaults.get(f, _REQUIRED)
        if default is _REQUIRED:
            params.append(f)
            body.append(f"self.{f} = {f}")
        elif type(default) in (list, dict) and not default:
            params.append(f"{f}=_FRESH")
            body.append(f"self.{f} = {default!r} if {f} is _FRESH else {f}")
        else:
            params.append(f"{f}=_defaults[{f!r}]")
            body.append(f"self.{f} = {f}")
    source = f"def __init__(self, {', '.join(params)}):\n" + "".join(f"    {line}\n" for line in body or ["pass"])
    scope = {"_defaults": defaults, "_FRESH": _FRESH}
    exec(source, scope)
    return scope["__init__"]


class Record(metaclass=_RecordType):
    """Base of rslkit's value classes; see the module docstring."""

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._compared])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._compared)
        return f"{type(self).__qualname__}({shown})"


LANGUAGES = (
    "English",
    "Spanish",
    "German",
    "French",
    "Italian",
    "Portuguese",
    "Japanese",
)
# The languages rslkit ships a lexicon for, each with its file stem under `rslkit/data`.
BUILTIN_LEXICONS = {"English": "en", "Portuguese": "pt"}

DATA_TYPES = ("Integer", "Decimal", "String", "Boolean", "Date", "DateTime")
CONSTRAINTS = ("PrimaryKey", "NotNull", "Unique")
SEVERITIES = ("Error", "Warning", "Info")
FRAGMENTS = ("id", "name", "description")


_LINE_COLS = ("start_line", "start_col", "end_line", "end_col")
_SPAN_FIELDS = ("file", *_LINE_COLS, "offset", "length")
_span_values = attrgetter(*_SPAN_FIELDS)


class SourceSpan:
    """Region of a source file; lines/cols are 1-based, offset is 0-based.

    The seven-argument constructor gives every field up front. The spans
    of a parse come from `lexer.LineTable.span` instead: they hold the
    file, offset, length and the line table, and leave the four line and
    column slots unset until one is first read, when `__getattr__` fills
    all four from the table and lets go of it: a span holds a table only
    while its lines are unread. `==`, `hash` and `repr()` read all seven
    fields, so a lazy span equals the eager span with the same values.
    """

    __slots__ = (*_SPAN_FIELDS, "_lines")

    def __init__(self, file, start_line, start_col, end_line, end_col, offset, length):
        self.file = file
        self.start_line = start_line
        self.start_col = start_col
        self.end_line = end_line
        self.end_col = end_col
        self.offset = offset
        self.length = length
        self._lines = None

    def __getattr__(self, name):  # reached only for a slot that is unset
        if name not in _LINE_COLS:
            raise AttributeError(name)
        lines, self._lines = self._lines, None
        self.start_line, self.start_col, self.end_line, self.end_col = lines.line_cols(
            self.offset, self.offset + self.length
        )
        return getattr(self, name)

    def __eq__(self, other):
        if other.__class__ is SourceSpan:
            return _span_values(self) == _span_values(other)
        return NotImplemented

    def __hash__(self):
        return hash(_span_values(self))

    def __repr__(self) -> str:
        return "SourceSpan(" + ", ".join(f"{f}={v!r}" for f, v in zip(_SPAN_FIELDS, _span_values(self))) + ")"

    @property
    def end_offset(self) -> int:
        return self.offset + self.length

    def overlaps(self, other: "SourceSpan") -> bool:
        if self.file != other.file:
            return False
        # Zero-length spans at the same offset are insertions, not overlaps.
        return self.offset < other.end_offset and other.offset < self.end_offset

    def slice(self, start: int, end: int) -> "SourceSpan":
        """Characters start..end of a single-line span."""
        if self._lines is not None:
            return self._lines.span(self.offset + start, self.offset + end)
        return SourceSpan(
            self.file,
            self.start_line,
            self.start_col + start,
            self.start_line,
            self.start_col + end,
            self.offset + start,
            end - start,
        )


class TextEdit(Record, frozen=True):
    span: SourceSpan
    new_text: str


class QuickFix(Record, frozen=True):
    title: str
    edits: tuple[TextEdit, ...]


class Diagnostic(Record, frozen=True):
    severity: str
    code: str
    message: str
    span: SourceSpan
    fixes: tuple[QuickFix, ...] = ()

    def sort_key(self):
        return (self.span.file, self.span.offset, self.code, self.message)


class OverlappingEdits(Exception):
    """Two text edits intersect; the combined result would be ambiguous."""


def edit_order(edit: TextEdit) -> tuple[int, int]:
    """Sort key of an edit: an insertion comes before an edit that starts at its offset."""
    return edit.span.offset, edit.span.end_offset


def apply_edits(source: str, edits: list[TextEdit] | tuple[TextEdit, ...]) -> str:
    """Apply non-overlapping edits to source text, given in any order, in one pass."""
    ordered = sorted(edits, key=edit_order)
    for a, b in zip(ordered, ordered[1:]):
        if a.span.overlaps(b.span):
            raise OverlappingEdits(f"edits at {a.span.offset} and {b.span.offset} overlap")
        if (
            a.span.offset == b.span.offset
            and a.span.length == 0
            and b.span.length == 0
            and a.new_text != b.new_text
        ):
            # Two distinct insertions at one point have no defined order.
            raise OverlappingEdits(f"conflicting insertions at {a.span.offset}")
    parts = []
    at = 0  # the end of the last edit, where the next kept slice starts
    for e in ordered:
        parts += (source[at : e.span.offset], e.new_text)
        at = e.span.end_offset
    parts.append(source[at:])
    return "".join(parts)


# --- pattern parts ------------------------------------------------------

POS_CATEGORIES = {
    "Verb": "VERB",
    "Noun": "NOUN",
    "ProperNoun": "PROPN",
    "Adjective": "ADJ",
    "Adverb": "ADV",
    "Determiner": "DET",
    "Preposition": "ADP",
    "Pronoun": "PRON",
    "Conjunction": "CCONJ",
    "Number": "NUM",
}


class PosPart(Record, frozen=True):
    category: str  # key of POS_CATEGORIES


class LitPart(Record, frozen=True):
    text: str


class FragmentRefPart(Record, frozen=True):
    element_kind: str
    fragment: str  # id | name | description


class AltPart(Record, frozen=True):
    options: tuple  # of PosPart | LitPart | FragmentRefPart


# --- elements -------------------------------------------------------------

class Attribute(Record):
    id: str
    name: str
    data_type: str
    constraints: tuple[str, ...] = ()
    default_value: Optional[str] = None
    span: Optional[SourceSpan] = SPAN


class Element(Record):
    id: str
    name: Optional[str] = None
    description: Optional[str] = None
    span: Optional[SourceSpan] = SPAN
    id_span: Optional[SourceSpan] = SPAN
    name_span: Optional[SourceSpan] = SPAN
    description_span: Optional[SourceSpan] = SPAN

    kind = "Element"

    @property
    def name_alias(self) -> str:
        return self.name if self.name is not None else self.id

    def fragment_value(self, fragment: str) -> Optional[str]:
        return getattr(self, fragment) if fragment in FRAGMENTS else None

    def fragment_span(self, fragment: str) -> Optional[SourceSpan]:
        return getattr(self, fragment + "_span") if fragment in FRAGMENTS else None

    def exact_fragment_span(self, fragment: str) -> Optional[SourceSpan]:
        """Content span of a fragment, only when its offsets map 1:1 to the file."""
        span = self.fragment_span(fragment)
        value = self.fragment_value(fragment)
        if span is None or value is None or span.length != len(value):
            return None  # escapes shifted the mapping; no precise edits
        return span


class DataEntity(Element):
    entity_type: str = "Other"
    attributes: tuple[Attribute, ...] = ()
    is_a: Optional[str] = None
    part_of: Optional[str] = None
    is_a_span: Optional[SourceSpan] = SPAN
    part_of_span: Optional[SourceSpan] = SPAN


class Actor(Element):
    actor_type: str = "User"
    is_a: Optional[str] = None
    is_a_span: Optional[SourceSpan] = SPAN


class UseCase(Element):
    uc_type: str = "Other"
    primary_actor: Optional[str] = None
    data_entity: Optional[str] = None
    actions: tuple[str, ...] = ()
    extension_points: tuple[str, ...] = ()
    extends_target: Optional[str] = None
    extends_point: Optional[str] = None
    precondition: Optional[str] = None
    primary_actor_span: Optional[SourceSpan] = SPAN
    data_entity_span: Optional[SourceSpan] = SPAN
    extends_span: Optional[SourceSpan] = SPAN


class Term(Element):
    pos_category: str = "Noun"
    synonyms: tuple[str, ...] = ()


class LinguisticRuleDecl(Element):
    rule_kind: str = "Syntax"
    target_kind: str = "UseCase"
    fragment: str = "name"
    pattern: Optional[tuple] = None  # the parts of `Part + Part ...`: PosPart | LitPart | FragmentRefPart | AltPart
    severity: str = "Error"


class LinguisticLanguageDecl(Element):
    language: str = "English"


class Stakeholder(Element):
    stakeholder_type: str = "Other"
    stakeholder_subtype: Optional[str] = None


class FunctionalRequirement(Element):
    fr_type: str = "Functional"


class IncludeDecl(Record):
    mode: str  # Import | Include | IncludeAll
    from_system: str
    element_kind: Optional[str] = None
    element_id: Optional[str] = None
    span: Optional[SourceSpan] = SPAN


class Model(Record):
    elements: list = []
    includes: list = []
    language_decl: Optional[LinguisticLanguageDecl] = None
    end_span: Optional[SourceSpan] = SPAN

    @property
    def language(self) -> str:
        return self.language_decl.language if self.language_decl else "English"


# --- element kinds --------------------------------------------------------------
#
# One row per kind drives parsing, printing, JSON and text generation,
# reference binding and the V003 hierarchy check. The key is the kind's
# name, and each class's `kind` is set from it after the table. `type` is
# the head's `: Type`: (text label, field, value when omitted, allowed
# values or None for any identifier, message for a value not allowed);
# only Stakeholder has a `.Subtype`. `json` is the kind's group in the
# JSON report, None to leave it out. A clause is (keyword, field, shape,
# arg, span field), and the span field, if any, keeps the clause's source
# span. Shapes:
#   string     a string
#   ref        id of an element of kind arg; the span covers the id
#   parent     hierarchy edge to an element of kind arg; the span runs from the keyword
#   ids        comma-separated identifiers
#   strings    comma-separated strings
#   enum       one identifier out of arg
#   pattern    a linguistic pattern
#   attribute  one DataEntity attribute; the clause repeats
#   extends    <use case id> onExtensionPoint <point>; also sets extends_point
#   property   <Kind>.<fragment>; also sets fragment

DESCRIPTION = ("description", "description", "string", None, "description_span")

KIND_TABLE = {
    "DataEntity": {
        "class": DataEntity,
        "type": ("type", "entity_type", "Other", None, None),
        "json": "dataEntities",
        "clauses": (
            ("attribute", "attributes", "attribute", None, None),
            ("isA", "is_a", "parent", "DataEntity", "is_a_span"),
            ("partOf", "part_of", "parent", "DataEntity", "part_of_span"),
            DESCRIPTION,
        ),
    },
    "Actor": {
        "class": Actor,
        "type": ("type", "actor_type", "User", None, None),
        "json": "actors",
        "clauses": (
            ("isA", "is_a", "parent", "Actor", "is_a_span"),
            DESCRIPTION,
        ),
    },
    "UseCase": {
        "class": UseCase,
        "type": ("type", "uc_type", "Other", None, None),
        "json": "useCases",
        "clauses": (
            ("primaryActor", "primary_actor", "ref", "Actor", "primary_actor_span"),
            ("dataEntity", "data_entity", "ref", "DataEntity", "data_entity_span"),
            ("actions", "actions", "ids", None, None),
            ("extensionPoints", "extension_points", "ids", None, None),
            ("extends", "extends_target", "extends", "UseCase", "extends_span"),
            ("precondition", "precondition", "string", None, None),
            DESCRIPTION,
        ),
    },
    "Term": {
        "class": Term,
        "type": ("type", "pos_category", "Noun", POS_CATEGORIES, "Unknown POS category '{}'"),
        "json": "terms",
        "clauses": (
            ("synonyms", "synonyms", "strings", None, None),
            DESCRIPTION,
        ),
    },
    "Stakeholder": {
        "class": Stakeholder,
        "type": ("type", "stakeholder_type", "Other", None, None),
        "subtype": "stakeholder_subtype",
        "json": "stakeholders",
        "clauses": (DESCRIPTION,),
    },
    "FunctionalRequirement": {
        "class": FunctionalRequirement,
        "type": ("type", "fr_type", "Functional", None, None),
        "json": "functionalRequirements",
        "clauses": (DESCRIPTION,),
    },
    "LinguisticRule": {
        "class": LinguisticRuleDecl,
        "type": (
            "type", "rule_kind", None, ("Syntax",), "Unsupported linguistic rule kind '{}' (only Syntax is supported)"
        ),
        "json": "linguisticRules",
        "clauses": (
            ("property", "target_kind", "property", None, None),
            ("pattern", "pattern", "pattern", None, None),
            ("severity", "severity", "enum", SEVERITIES, None),
            DESCRIPTION,
        ),
    },
    "LinguisticLanguage": {
        "class": LinguisticLanguageDecl,
        "type": ("language", "language", None, LANGUAGES, "Unknown language '{}'"),
        "json": None,  # the report's top-level language field
        "clauses": (DESCRIPTION,),
    },
}

for _kind, _row in KIND_TABLE.items():
    _row["class"].kind = _kind

ELEMENT_KINDS = tuple(KIND_TABLE)


def element_type(elem: Element) -> tuple[str, Optional[str]]:
    """The `Type[.Subtype]` of an element's head: (type, subtype or None)."""
    row = KIND_TABLE[elem.kind]
    subtype = row.get("subtype")
    return getattr(elem, row["type"][1]), (getattr(elem, subtype) or None) if subtype else None
