"""Linguistic rule checking over element fragments.

For each rule and each element of the rule's target kind, the fragment
text is tagged and matched against the rule's pattern; failures become
diagnostics, and a missing element name yields a create-element quick fix.

Matching has prefix semantics: trailing tokens beyond the pattern are
allowed. Element-fragment references match the longest token run whose
surfaces or lemmas equal an existing element's fragment, with
backtracking so a shorter run is tried when a later part would otherwise
fail.

Cost. A FragmentIndex is built once per element list; it normalizes each
(kind, fragment) set on first use, O(E) in all. Each match_pattern call
then compares O(parts x tokens x longest name) token windows:

- A fragment-reference run is capped at the word count of the longest
  normalized value of its (kind, fragment). The cap is exact: a window
  of k tokens joined by spaces has at least k space-separated pieces, so
  it can only equal a value of at least k words.
- Failed (part, token) states are memoized during backtracking. A state
  fails the same way on every visit, and its furthest-failure record is
  set on the first one, so every MatchResult field is unchanged.
"""

from __future__ import annotations

from .checks import fresh_ids
from .lexicon import WORD_RE, Lexicon, Token, analyze, split_sentences
from .model import (
    POS_CATEGORIES,
    AltPart,
    Diagnostic,
    FragmentRefPart,
    LinguisticRuleDecl,
    LitPart,
    PosPart,
    QuickFix,
    Record,
    TextEdit,
)
from .printer import pattern_atom, render_pattern
from .workspace import ResolvedModel


# --- matching ---------------------------------------------------------------------

def normalize(text: str) -> str:
    # Token surfaces come from the same WORD_RE, which makes the run cap exact.
    return " ".join(WORD_RE.findall(text.lower()))


def fragment_ref(part) -> FragmentRefPart | None:
    """The fragment reference a failing part expected: itself, or an alternation's first one."""
    if isinstance(part, AltPart):
        return next((o for o in part.options if isinstance(o, FragmentRefPart)), None)
    return part if isinstance(part, FragmentRefPart) else None


class MatchResult(Record):
    matched: bool
    prefix_len: int = 0  # tokens consumed on success
    fail_part_index: int = 0
    fail_token_index: int = 0
    expectation: object | None = None  # the unmet pattern part
    candidate: str | None = None  # suggested name for FragmentRef failures


class FragmentIndex:
    """Normalized fragment values of one element list, per (kind, fragment)."""

    def __init__(self, elements):
        self._elements = elements
        self._entries: dict[tuple[str, str], tuple[set[str], int]] = {}

    def values(self, kind: str, fragment: str) -> tuple[set[str], int]:
        """The normalized values and the largest word count among them."""
        key = (kind, fragment)
        entry = self._entries.get(key)
        if entry is None:
            values = set()
            for elem in self._elements:
                if elem.kind != kind:
                    continue
                value = elem.fragment_value(fragment)
                if value:
                    values.add(normalize(value))
            longest = max((len(v.split()) for v in values), default=0)
            entry = self._entries[key] = (values, longest)
        return entry


def _title(word: str) -> str:
    return word[:1].upper() + word[1:]


def _consume(part, tokens: list[Token], ti: int, index: FragmentIndex):
    """Yield token counts an atom can consume at ti; parse_pattern_part builds alternations of atoms only."""
    if ti >= len(tokens):
        return
    tok = tokens[ti]
    if isinstance(part, PosPart):
        if POS_CATEGORIES[part.category] in tok.tags:
            yield 1
    elif isinstance(part, LitPart):
        if tok.surface.lower() == part.text.lower():
            yield 1
    else:  # a FragmentRefPart
        targets, longest = index.values(part.element_kind, part.fragment)
        # Longest run first so plural/singular multi-word names win.
        for run in range(min(len(tokens) - ti, longest), 0, -1):
            window = tokens[ti : ti + run]
            surfaces = " ".join(t.surface.lower() for t in window)
            lemmas = " ".join(t.lemma for t in window)
            if surfaces in targets or lemmas in targets:
                yield run


def _walk(parts, tokens: list[Token], index: FragmentIndex, pi: int, ti: int, failed: set, best: list) -> int | None:
    """Tokens consumed when parts[pi:] match from ti, else None; failures go to `failed` and `best`."""
    if pi == len(parts):
        return ti
    if (pi, ti) in failed:
        return None
    part = parts[pi]
    options = part.options if isinstance(part, AltPart) else (part,)
    produced = False
    for option in options:
        for count in _consume(option, tokens, ti, index):
            produced = True
            result = _walk(parts, tokens, index, pi + 1, ti + count, failed, best)
            if result is not None:
                return result
    if not produced and [ti, pi] > best:
        best[:] = ti, pi
    failed.add((pi, ti))
    return None


def match_pattern(parts: tuple, tokens: list[Token], index: FragmentIndex) -> MatchResult:
    """Match pattern parts left to right against tokens (prefix semantics)."""
    best = [0, 0]  # furthest failure: token index, part index
    consumed = _walk(parts, tokens, index, 0, 0, set(), best)
    if consumed is not None:
        return MatchResult(True, prefix_len=consumed)

    fail_ti, fail_pi = best
    part = parts[fail_pi]
    candidate = None
    if fragment_ref(part) is not None:
        remaining = tokens[fail_ti : fail_ti + 3]
        if remaining:
            candidate = " ".join(_title(t.surface) for t in remaining)
    return MatchResult(
        False,
        fail_part_index=fail_pi,
        fail_token_index=fail_ti,
        expectation=part,
        candidate=candidate,
    )


# --- rule checking ----------------------------------------------------------------

ID_PREFIXES = {"DataEntity": "ec", "Actor": "a", "UseCase": "uc"}


def _camel(name: str) -> str:
    return "".join(w[:1].upper() + w[1:] for w in WORD_RE.findall(name))


def _expectation_line(result: MatchResult) -> str:
    part = result.expectation
    ref = fragment_ref(part)
    if ref is not None and result.candidate:
        noun = "name" if ref.fragment == "name" else ref.fragment
        return f"The word '{result.candidate}' is expected to be the {noun} of a/an '{ref.element_kind}'"
    if isinstance(part, LitPart):
        return f"Expected the word '{part.text}'"
    if isinstance(part, PosPart):
        return f"Expected a {part.category}"
    if isinstance(part, AltPart):
        names = " or ".join(f"'{o.text}'" if isinstance(o, LitPart) else pattern_atom(o) for o in part.options)
        return f"Expected a {names}"
    return f"Expected the {part.fragment} of a/an '{part.element_kind}'"  # a FragmentRefPart


def check_linguistic_rules(
    rm: ResolvedModel, rules: list[LinguisticRuleDecl], lex: Lexicon
) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    taken_ids = {e.id for e in rm.effective_elements}
    append_at = rm.model.end_span
    creations: dict[tuple[str, str], QuickFix] = {}  # reuse one fix per (kind, name)
    index = FragmentIndex(rm.effective_elements)

    for rule in rules:
        if rule.pattern is None:
            continue
        for elem in rm.effective_elements:
            if elem.kind != rule.target_kind or elem is rule:
                continue
            value = elem.fragment_value(rule.fragment)
            if not value:
                continue
            pieces = (
                split_sentences(value)
                if rule.fragment == "description"
                else [(0, value)]
            )
            # Several sentences: point at the failing one, where offsets map 1:1.
            exact = elem.exact_fragment_span(rule.fragment) if len(pieces) > 1 else None
            for offset, sentence in pieces:
                tokens = analyze(sentence, lex)
                if not tokens:
                    continue
                result = match_pattern(rule.pattern, tokens, index)
                if result.matched:
                    continue
                message = (
                    f"This text must follow the pattern '{render_pattern(rule.pattern)}'"
                    + "\n"
                    + _expectation_line(result)
                )
                fixes = ()
                ref = fragment_ref(result.expectation)
                if ref is not None and result.candidate and ref.fragment == "name" and append_at is not None:
                    key = (ref.element_kind, result.candidate)
                    if key not in creations:
                        prefix = ID_PREFIXES.get(ref.element_kind, "el")
                        new_id = next(fresh_ids(f"{prefix}_{_camel(result.candidate)}", taken_ids))
                        decl = f'{ref.element_kind} {new_id} "{result.candidate}" : Other []'
                        creations[key] = QuickFix(
                            f"Create '{ref.element_kind}' with name '{result.candidate}'",
                            (TextEdit(append_at.slice(0, 0), f"\n{decl}\n"),),
                        )
                    fixes = (creations[key],)
                if exact is not None:
                    lead = len(sentence) - len(sentence.lstrip())
                    span = exact.slice(offset + lead, offset + len(sentence.rstrip()))
                else:
                    span = elem.fragment_span(rule.fragment) or elem.span
                diags.append(Diagnostic(rule.severity, "RSL-L001", message, span, fixes=fixes))
    return diags
