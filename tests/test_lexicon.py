"""Lexicon loading, tokenization, tagging, lemmatization."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rslkit
from oracles import oracle_analyze
from rslkit.lexicon import (
    UPOS_TAGS,
    Lexicon,
    LexiconFormatError,
    _parse_suffix_lines,
    analyze,
    builtin_lexicon,
    load_lexicon,
    split_sentences,
)
from rslkit.model import POS_CATEGORIES

EN = builtin_lexicon("English")
PT = builtin_lexicon("Portuguese")


def test_upos_tags_are_the_tags_of_the_pos_categories():
    assert UPOS_TAGS == set(POS_CATEGORIES.values())
    assert len(UPOS_TAGS) == len(POS_CATEGORIES)


class TestBuiltinEnglish:
    def test_plural_noun_lemmatized(self):
        (tok,) = analyze("invoices", EN)
        assert "NOUN" in tok.tags
        assert tok.lemma == "invoice"

    def test_verb_recognized(self):
        (tok,) = analyze("print", EN)
        assert "VERB" in tok.tags

    def test_ambiguous_word_keeps_candidates(self):
        # "print" works as a verb and a noun; neither reading is discarded.
        (tok,) = analyze("print", EN)
        assert {"VERB", "NOUN"} <= tok.tags

    def test_modal_shall(self):
        (tok,) = analyze("shall", EN)
        assert "VERB" in tok.tags

    def test_offsets(self):
        toks = analyze("Print Invoice", EN)
        assert [(t.start, t.end) for t in toks] == [(0, 5), (6, 13)]

    def test_capitalized_property(self):
        toks = analyze("print Invoice", EN)
        assert not toks[0].capitalized and toks[1].capitalized


class TestOov:
    def test_digits_are_numbers(self):
        (tok,) = analyze("42", EN)
        assert tok.tags == frozenset({"NUM"})

    def test_suffix_rule_applies(self):
        # Not in the dictionary; the -tion rule yields a noun reading.
        (tok,) = analyze("flobbergation", EN)
        assert "NOUN" in tok.tags

    def test_capitalized_mid_sentence_is_proper_noun(self):
        toks = analyze("send Xyzzyq", EN)
        assert toks[1].tags == frozenset({"PROPN"})

    def test_unknown_lowercase_defaults_to_noun(self):
        toks = analyze("a xyzzyq", EN)
        assert toks[1].tags == frozenset({"NOUN"})


class TestPortuguese:
    def test_verb(self):
        (tok,) = analyze("Criar", PT)
        assert "VERB" in tok.tags

    def test_noun_plural(self):
        (tok,) = analyze("faturas", PT)
        assert "NOUN" in tok.tags
        assert tok.lemma == "fatura"


class TestLoading:
    def test_unknown_language_has_no_builtin(self):
        assert builtin_lexicon("Japanese") is None

    def test_custom_lexicon_file(self, tmp_path):
        path = tmp_path / "mini.tsv"
        path.write_text("widget\twidget\tNOUN\nwidgets\twidget\tNOUN\n")
        lex = load_lexicon(str(path), language="English")
        (tok,) = analyze("Widgets", lex)
        assert tok.lemma == "widget" and "NOUN" in tok.tags

    def test_malformed_lexicon_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("only-two\tfields\n")
        with pytest.raises(LexiconFormatError):
            load_lexicon(str(path))

    def test_bad_upos_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("word\tword\tNOPE\n")
        with pytest.raises(LexiconFormatError):
            load_lexicon(str(path))

    def test_suffix_rules_file(self, tmp_path):
        lex_path = tmp_path / "l.tsv"
        lex_path.write_text("x\tx\tNOUN\n")
        rules_path = tmp_path / "l.rules"
        # The first rule's suffix matches "whizzz" but its strip text does not, so the second rule tags it.
        rules_path.write_text("-z\tADJ\tyz:\n-zzz\tVERB\tzzz:ze\n")
        lex = load_lexicon(str(lex_path), str(rules_path))
        (tok,) = analyze("whizzz", lex)
        assert tok.tags == frozenset({"VERB"})
        assert tok.lemma == "whize"


class TestWordMemo:
    def test_second_call_reads_the_memo(self):
        lex = fresh(EN)
        first = analyze("Print the invoices", lex)
        assert set(lex.words) == {"Print", "the", "invoices"}
        lex.entries.clear()  # the memo alone now answers
        assert analyze("Print the invoices", lex) == first

    def test_position_is_applied_outside_the_memo(self):
        lex = fresh(EN)
        assert analyze("Xyzzyq", lex)[0].tags == frozenset({"NOUN"})
        assert analyze("send Xyzzyq", lex)[1].tags == frozenset({"PROPN"})
        assert lex.tag("Xyzzyq") == (None, "xyzzyq")

    def test_add_retags_the_word(self):
        lex = fresh(EN)
        assert analyze("xyzzyq", lex)[0].tags == frozenset({"NOUN"})
        lex.add("xyzzyq", "xyz", "VERB")
        (tok,) = analyze("xyzzyq", lex)
        assert (tok.tags, tok.lemma) == (frozenset({"VERB"}), "xyz")

    def test_loading_suffix_rules_retags_the_word(self):
        lex = fresh(EN)
        assert analyze("whizzz", lex)[0].tags == frozenset({"NOUN"})
        _parse_suffix_lines(lex, "-zzz\tVERB\tzzz:ze\n", "extra.rules")
        assert analyze("whizzz", lex)[0].tags == frozenset({"VERB"})

    def test_memo_is_outside_equality_and_repr(self):
        lex = fresh(EN)
        before = repr(lex)
        analyze("Print the invoices", lex)
        assert lex == fresh(EN) and repr(lex) == before

    def test_equal_length_lemmas_tie_alphabetically_under_any_hash_seed(self, tmp_path):
        path = tmp_path / "tie.tsv"
        path.write_text("bills\tbill\tNOUN\nbills\tbilt\tVERB\n", encoding="utf-8")
        code = (
            "from rslkit.lexicon import analyze, load_lexicon; "
            f"print(analyze('bills', load_lexicon({str(path)!r}))[0].lemma)"
        )
        lemmas = []
        for seed in range(1, 7):
            env = {**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": str(seed)}
            out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
            lemmas.append(out.stdout.strip())
        assert lemmas == ["bill"] * 6


SRC = str(Path(rslkit.__file__).resolve().parents[1])


def fresh(lex: Lexicon) -> Lexicon:
    """A copy of `lex` with its own entries and an empty word memo."""
    return Lexicon(lex.language, {k: set(v) for k, v in lex.entries.items()}, list(lex.suffix_rules))


def word_pool(lex: Lexicon) -> list[str]:
    return sorted(w for w in lex.entries if w.isalpha())


OOV = st.text("bcdfghjklmnpqrstvwxz", min_size=1, max_size=8)
SUFFIXED = st.tuples(OOV, st.sampled_from(["ies", "tion", "ment", "ness", "ingly", "ly", "ing", "ed", "able", "ous", "s"]))
WORD = st.one_of(
    st.sampled_from(word_pool(EN) + word_pool(PT)),
    OOV,
    SUFFIXED.map("".join),
    st.integers(0, 10**6).map(str),
)


@st.composite
def fragments(draw):
    words = draw(st.lists(WORD, min_size=1, max_size=8))
    shaped = [draw(st.sampled_from([w, w.capitalize(), w.upper()])) for w in words]
    seps = draw(st.lists(st.sampled_from([" ", ", ", ". ", "-", " ("]), min_size=len(shaped), max_size=len(shaped)))
    return "".join(sep + w for sep, w in zip(seps, shaped))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(fragments(), st.data())
def test_tagger_matches_the_uncached_oracle(text, data):
    for base in (EN, PT):
        lex = fresh(base)
        expected = oracle_analyze(text, lex)
        assert analyze(text, lex) == expected
        assert analyze(text, lex) == expected  # from the memo
        # Adding an entry re-tags the word, memo or not.
        word = data.draw(st.sampled_from([t.surface for t in expected]))
        lex.add(word, "zz" + word.lower(), data.draw(st.sampled_from(["ADV", "VERB", "NOUN"])))
        expected = oracle_analyze(text, lex)
        assert analyze(text, lex) == expected
        assert analyze(text, lex) == expected


class TestSentences:
    def test_split(self):
        parts = split_sentences("First one. Second one! Third?")
        assert [s.strip() for _, s in parts] == ["First one", "Second one", "Third"]

    def test_offsets_point_into_text(self):
        text = "Alpha. Beta."
        for offset, sentence in split_sentences(text):
            assert text[offset : offset + len(sentence)] == sentence

    def test_no_terminator(self):
        assert split_sentences("just words") == [(0, "just words")]
