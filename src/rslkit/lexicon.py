"""Lexicon-based tagging pipeline: tokenize, POS-tag, lemmatize.

Tokens carry candidate tag sets; a word is never forced into a single
POS, so matching stays lenient where dictionaries are ambiguous.
Out-of-vocabulary words fall back to suffix rules, then a capitalization
heuristic.
"""

from __future__ import annotations

import os
import re
from functools import cache
from typing import Optional

from .model import Record

UPOS_TAGS = {"VERB", "NOUN", "PROPN", "ADJ", "ADV", "DET", "ADP", "PRON", "CCONJ", "NUM"}

BUILTIN_LEXICONS = {"English": "en", "Portuguese": "pt"}
# The shipped lexicons, read by path: `importlib.resources` would import
# `inspect` (and `ast`, `dis`, `tokenize`) in every command on Python 3.12+.
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

WORD_RE = re.compile(r"\w+", re.UNICODE)
SENTENCE_SPLIT_RE = re.compile(r"[.!?]")


class LexiconFormatError(Exception):
    def __init__(self, path: str, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class SuffixRule(Record, frozen=True):
    suffix: str
    upos: str
    strip: str
    append: str

    def apply(self, word: str) -> Optional[tuple[str, str]]:
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
    language: str = "English"
    entries: dict = {}  # lower surface -> set[(upos, lemma)]
    suffix_rules: list = []

    def add(self, surface: str, lemma: str, upos: str):
        self.entries.setdefault(surface.lower(), set()).add((upos, lemma.lower()))

    def lookup(self, surface: str) -> set[tuple[str, str]]:
        return self.entries.get(surface.lower(), set())


def _tab_lines(text: str):
    """(line number, tab-separated fields) of each line that is neither blank nor a `#` comment."""
    for line_no, line in enumerate(text.splitlines(), start=1):
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


def load_lexicon(path: str, suffix_path: Optional[str] = None, language: str = "English") -> Lexicon:
    """Load a TSV lexicon, plus an optional suffix-rule file for OOV words."""
    lex = Lexicon(language=language)
    with open(path, encoding="utf-8") as f:
        _parse_lexicon_lines(lex, f.read(), path)
    if suffix_path is not None:
        with open(suffix_path, encoding="utf-8") as f:
            _parse_suffix_lines(lex, f.read(), suffix_path)
    return lex


@cache
def builtin_lexicon(language: str) -> Optional[Lexicon]:
    """Shipped lexicon for a language, or None when we carry none.

    Loaded once per language for the life of the process and shared by
    every caller; nothing mutates a loaded Lexicon.
    """
    code = BUILTIN_LEXICONS.get(language)
    if code is None:
        return None
    base = os.path.join(DATA_DIR, code)
    return load_lexicon(base + ".tsv", base + ".rules", language=language)


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
        hits = lex.lookup(surface)
        if hits:
            tags = frozenset(t for t, _ in hits)
            # Several lemmas may coexist (rare); prefer the shortest.
            lemma = min((l for _, l in hits), key=len)
        else:
            tags, lemma = _oov(surface, index, lex)
        tokens.append(Token(surface, lemma, tags, m.start(), m.end()))
    return tokens


def _oov(surface: str, index: int, lex: Lexicon) -> tuple[frozenset, str]:
    if surface.isdigit():
        return frozenset({"NUM"}), surface
    lower = surface.lower()
    for rule in lex.suffix_rules:
        hit = rule.apply(lower)
        if hit is not None:
            upos, lemma = hit
            return frozenset({upos}), lemma
    if index > 0 and surface[:1].isupper():
        return frozenset({"PROPN"}), lower
    return frozenset({"NOUN"}), lower
