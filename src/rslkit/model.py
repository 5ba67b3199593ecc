"""Document model: elements, spans, diagnostics, text edits.

Everything here is immutable-by-convention. A parsed model's spans stay out
of `==` so that reparsed models compare equal; a diagnostic's span counts.

Every value class in rslkit is a `Record`: a slotted class whose fields
are its annotations, in order, base class fields first, with the class
attribute of the same name as the default. A field whose default is a
`Field` is outside `==` and `repr()`; every other field is inside both.
An empty list or dict default is built anew for each instance. Each
class gets one generated method, `__init__` (positional or keyword
arguments, plain assignment), from one `exec` at the class's first
construction, so importing a module compiles none and a command compiles
only the constructors of the classes it builds. `__eq__` is `Record`'s
own: two records are equal when they have the same class and equal
tuples of compared fields. A class that defines `__eq__` and no
`__hash__` is unhashable, so records are never set members or dict keys.
`_fields` lists the field names.
"""

from __future__ import annotations


class Field:
    """A field default that `==` and `repr()` leave out."""

    __slots__ = ("default",)

    def __init__(self, default=None):
        self.default = default


SPAN = Field()  # a source span: None by default, outside == and repr()

_REQUIRED = object()  # no default: the argument is required
_FRESH = object()  # stands in for an empty list or dict default until __init__ builds a new one


class _RecordType(type):
    """Gives each Record class its slots, field tuples and a first `__init__`."""

    def __new__(mcs, name, bases, ns):
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


class SourceSpan(Record):
    """Region of a source file; lines/cols are 1-based, offset is 0-based.

    The seven-argument constructor gives every field up front. The spans
    of a parse come from `lexer.LineTable.span` instead: they hold the
    file, offset, length and the line table, and leave the four line and
    column slots unset until one is first read, when `__getattr__` fills
    all four from the table and lets go of it: a span holds a table only
    while its lines are unread. `==` and `repr()` read all seven
    fields, so a lazy span equals the eager span with the same values.
    """

    file: str
    start_line: int
    start_col: int
    end_line: int
    end_col: int
    offset: int
    length: int
    _lines: object = Field()

    def __getattr__(self, name):  # reached only for a slot that is unset
        if name not in _LINE_COLS:
            raise AttributeError(name)
        lines, self._lines = self._lines, None
        self.start_line, self.start_col, self.end_line, self.end_col = lines.line_cols(
            self.offset, self.offset + self.length
        )
        return getattr(self, name)

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


class TextEdit(Record):
    span: SourceSpan
    new_text: str


class QuickFix(Record):
    title: str
    edits: tuple[TextEdit, ...]


class Diagnostic(Record):
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


class PosPart(Record):
    category: str  # key of POS_CATEGORIES


class LitPart(Record):
    text: str


class FragmentRefPart(Record):
    element_kind: str
    fragment: str  # id | name | description


class AltPart(Record):
    options: tuple  # of PosPart | LitPart | FragmentRefPart


# --- elements -------------------------------------------------------------

class Attribute(Record):
    id: str
    name: str
    data_type: str
    constraints: tuple[str, ...] = ()
    default_value: str | None = None
    span: SourceSpan | None = SPAN


class Element(Record):
    id: str
    name: str | None = None
    description: str | None = None
    span: SourceSpan | None = SPAN
    id_span: SourceSpan | None = SPAN
    name_span: SourceSpan | None = SPAN
    description_span: SourceSpan | None = SPAN

    kind = "Element"

    @property
    def name_alias(self) -> str:
        return self.name if self.name is not None else self.id

    def fragment_value(self, fragment: str) -> str | None:
        return getattr(self, fragment) if fragment in FRAGMENTS else None

    def fragment_span(self, fragment: str) -> SourceSpan | None:
        return getattr(self, fragment + "_span") if fragment in FRAGMENTS else None

    def exact_fragment_span(self, fragment: str) -> SourceSpan | None:
        """Content span of a fragment, only when its offsets map 1:1 to the file."""
        span = self.fragment_span(fragment)
        value = self.fragment_value(fragment)
        if span is None or value is None or span.length != len(value):
            return None  # escapes shifted the mapping; no precise edits
        return span


class DataEntity(Element):
    entity_type: str = "Other"
    attributes: tuple[Attribute, ...] = ()
    is_a: str | None = None
    part_of: str | None = None
    is_a_span: SourceSpan | None = SPAN
    part_of_span: SourceSpan | None = SPAN


class Actor(Element):
    actor_type: str = "User"
    is_a: str | None = None
    is_a_span: SourceSpan | None = SPAN


class UseCase(Element):
    uc_type: str = "Other"
    primary_actor: str | None = None
    data_entity: str | None = None
    actions: tuple[str, ...] = ()
    extension_points: tuple[str, ...] = ()
    extends_target: str | None = None
    extends_point: str | None = None
    precondition: str | None = None
    primary_actor_span: SourceSpan | None = SPAN
    data_entity_span: SourceSpan | None = SPAN
    extends_span: SourceSpan | None = SPAN


class Term(Element):
    pos_category: str = "Noun"
    synonyms: tuple[str, ...] = ()


class LinguisticRuleDecl(Element):
    rule_kind: str = "Syntax"
    target_kind: str = "UseCase"
    fragment: str = "name"
    pattern: tuple | None = None  # the parts of `Part + Part ...`: PosPart | LitPart | FragmentRefPart | AltPart
    severity: str = "Error"


class LinguisticLanguageDecl(Element):
    language: str = "English"


class Stakeholder(Element):
    stakeholder_type: str = "Other"
    stakeholder_subtype: str | None = None


class FunctionalRequirement(Element):
    fr_type: str = "Functional"


class IncludeDecl(Record):
    mode: str  # Import | Include | IncludeAll
    from_system: str
    element_kind: str | None = None
    element_id: str | None = None
    span: SourceSpan | None = SPAN


class Model(Record):
    elements: list = []
    includes: list = []
    language_decl: LinguisticLanguageDecl | None = None
    end_span: SourceSpan | None = SPAN

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


def element_type(elem: Element) -> tuple[str, str | None]:
    """The `Type[.Subtype]` of an element's head: (type, subtype or None)."""
    row = KIND_TABLE[elem.kind]
    subtype = row.get("subtype")
    return getattr(elem, row["type"][1]), (getattr(elem, subtype) or None) if subtype else None
