"""Lexicon-based tagging pipeline: tokenize, POS-tag, lemmatize.

Tokens carry candidate tag sets; a word is never forced into a single
POS, so matching stays lenient where dictionaries are ambiguous.
Out-of-vocabulary words fall back to suffix rules, then a capitalization
heuristic.

`Lexicon.tag` tags each distinct word once: its result is memoized in
the lexicon's `words` dict, keyed on the surface as written, and `add`
or loading suffix rules clears that memo. The capitalization heuristic
depends on the word's position, so it is applied by `analyze`, outside
the memo. When a surface has several lemmas, the shortest wins, and
among equally short ones the alphabetically first, so the pick never
depends on set order.
"""

from __future__ import annotations

import os
import re
from functools import cache

from .model import BUILTIN_LEXICONS, POS_CATEGORIES, Field, Record

UPOS_TAGS = frozenset(POS_CATEGORIES.values())

# The shipped lexicons, read by path: `importlib.resources` would import
# `inspect` (and `ast`, `dis`, `tokenize`) in every command on Python 3.12+.
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

WORD_RE = re.compile(r"\w+", re.UNICODE)
SENTENCE_SPLIT_RE = re.compile(r"[.!?]")

NUM, PROPN, NOUN = frozenset({"NUM"}), frozenset({"PROPN"}), frozenset({"NOUN"})


class LexiconFormatError(Exception):
    def __init__(self, path: str, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class SuffixRule(Record):
    suffix: str
    upos: str
    strip: str
    append: str

    def apply(self, word: str) -> tuple[str, str] | None:
        if not word.endswith(self.suffix):
            return None
        lemma = word
        if self.strip:
            if not word.endswith(self.strip):
                return None
            lemma = word[: -len(self.strip)]
        return self.upos, lemma + self.append


class Token(Record):
    surface: str
    lemma: str
    tags: frozenset[str]
    start: int  # offset within the analyzed fragment
    end: int

    @property
    def capitalized(self) -> bool:
        return self.surface[:1].isupper()


class Lexicon(Record):
    entries: dict = {}  # lower surface -> set[(upos, lemma)]
    suffix_rules: list = []
    words: dict = Field({})  # surface -> tag(surface)

    def add(self, surface: str, lemma: str, upos: str):
        self.entries.setdefault(surface.lower(), set()).add((upos, lemma.lower()))
        self.words.clear()

    def tag(self, surface: str) -> tuple[frozenset | None, str]:
        """(candidate tags, lemma) of one word; tags are None when no entry or suffix rule knows it."""
        tagged = self.words.get(surface)
        if tagged is None:
            lower = surface.lower()
            hits = self.entries.get(lower)
            if hits:
                tagged = frozenset(t for t, _ in hits), min((l for _, l in hits), key=lambda l: (len(l), l))
            elif surface.isdigit():
                tagged = NUM, surface
            else:
                tagged = None, lower
                for rule in self.suffix_rules:
                    hit = rule.apply(lower)
                    if hit is not None:
                        tagged = frozenset({hit[0]}), hit[1]
                        break
            self.words[surface] = tagged
        return tagged


def _tab_lines(text: str):
    """(line number, tab-separated fields) of each line that is neither blank nor a `#` comment.

    A byte-order mark at the start of the text is not data.
    """
    for line_no, line in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield line_no, line.split("\t")


def _parse_lexicon_lines(lex: Lexicon, text: str, path: str):
    for line_no, fields in _tab_lines(text):
        if len(fields) != 3:
            raise LexiconFormatError(path, line_no, "expected surface<TAB>lemma<TAB>UPOS")
        surface, lemma, upos = fields
        if upos not in UPOS_TAGS:
            raise LexiconFormatError(path, line_no, f"unknown UPOS tag '{upos}'")
        lex.add(surface, lemma, upos)


def _parse_suffix_lines(lex: Lexicon, text: str, path: str):
    for line_no, fields in _tab_lines(text):
        if len(fields) != 3 or not fields[0].startswith("-") or ":" not in fields[2]:
            raise LexiconFormatError(path, line_no, "expected -suffix<TAB>UPOS<TAB>strip:append")
        suffix, upos, rewrite = fields
        if upos not in UPOS_TAGS:
            raise LexiconFormatError(path, line_no, f"unknown UPOS tag '{upos}'")
        strip, _, append = rewrite.partition(":")
        lex.suffix_rules.append(SuffixRule(suffix[1:], upos, strip, append))
    lex.words.clear()


def load_lexicon(path: str, suffix_path: str | None = None) -> Lexicon:
    """Load a TSV lexicon, plus an optional suffix-rule file for OOV words."""
    lex = Lexicon()
    with open(path, encoding="utf-8") as f:
        _parse_lexicon_lines(lex, f.read(), path)
    if suffix_path is not None:
        with open(suffix_path, encoding="utf-8") as f:
            _parse_suffix_lines(lex, f.read(), suffix_path)
    return lex


@cache
def builtin_lexicon(language: str) -> Lexicon | None:
    """Shipped lexicon for a language, or None when we carry none.

    Loaded once per language for the life of the process and shared by
    every caller. Only the word memo of `Lexicon.tag` grows, so one
    tagging of a word serves every target and check pass.
    """
    code = BUILTIN_LEXICONS.get(language)
    if code is None:
        return None
    base = os.path.join(DATA_DIR, code)
    return load_lexicon(base + ".tsv", base + ".rules")


def split_sentences(text: str) -> list[tuple[int, str]]:
    """Split on sentence punctuation; returns (offset, sentence) pairs."""
    out = []
    start = 0
    for m in SENTENCE_SPLIT_RE.finditer(text):
        chunk = text[start : m.start()]
        if chunk.strip():
            out.append((start, chunk))
        start = m.end()
    tail = text[start:]
    if tail.strip():
        out.append((start, tail))
    return out


def analyze(text: str, lex: Lexicon) -> list[Token]:
    """Tokenize a fragment and tag every word with candidate UPOS tags."""
    tokens: list[Token] = []
    for index, m in enumerate(WORD_RE.finditer(text)):
        surface = m.group()
        tags, lemma = lex.tag(surface)
        if tags is None:  # unknown word: a proper noun when capitalized past the first word
            tags = PROPN if index > 0 and surface[:1].isupper() else NOUN
        tokens.append(Token(surface, lemma, tags, m.start(), m.end()))
    return tokens
