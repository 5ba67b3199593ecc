"""Linguistic rule checking over element fragments.

For each rule and each element of the rule's target kind, the fragment
text is tagged and matched against the rule's pattern; failures become
diagnostics, and a missing element name yields a create-element quick fix.
"""

from __future__ import annotations

from .checks import fresh_id
from .lexicon import WORD_RE, Lexicon, analyze, split_sentences
from .matching import FragmentIndex, MatchResult, fragment_ref, match_pattern
from .model import (
    AltPart,
    Diagnostic,
    LinguisticRuleDecl,
    LitPart,
    PosPart,
    QuickFix,
    TextEdit,
)
from .printer import pattern_atom, render_pattern
from .workspace import ResolvedModel

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
                        new_id = fresh_id(f"{prefix}_{_camel(result.candidate)}", taken_ids)
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
