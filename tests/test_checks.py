"""Semantic checks: unique IDs, glossary consistency, hierarchy cycles."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, by_code, check_source, fixture_text
from modelgen import random_model
from oracles import nodes_on_simple_cycles, oracle_analyze, oracle_check_glossary, oracle_cycle_nodes
from rslkit import checks
from rslkit.checks import build_glossary, check_glossary, cycle_nodes, pick_lexicon, strongly_connected_components
from rslkit.lexicon import Lexicon
from rslkit.model import apply_edits
from rslkit.printer import print_model
from rslkit.workspace import Workspace, add_system, resolve


class TestUniqueIds:
    SRC = (
        'Actor user "Cashier" : User\n'
        'Actor user "Accountant" : User\n'
        'DataEntity user "User Record" : Other\n'
    )

    def test_every_occurrence_flagged(self):
        _, diags = check_source(self.SRC)
        v001 = by_code(diags, "RSL-V001")
        assert len(v001) == 3
        assert all(d.message == "Duplicate element ID 'user'" for d in v001)
        assert all(d.severity == "Error" for d in v001)

    def test_related_spans_point_at_siblings(self):
        _, diags = check_source(self.SRC)
        for d in by_code(diags, "RSL-V001"):
            assert len(d.related) == 2

    def test_rename_fixes_on_later_occurrences(self):
        _, diags = check_source(self.SRC)
        titles = [f.title for d in by_code(diags, "RSL-V001") for f in d.fixes]
        assert titles == ["Rename to 'user_2'", "Rename to 'user_3'"]

    def test_applying_rename_fixes_clears_duplicates(self):
        _, diags = check_source(self.SRC)
        edits = [e for d in by_code(diags, "RSL-V001") for f in d.fixes for e in f.edits]
        fixed = apply_edits(self.SRC, edits)
        _, diags2 = check_source(fixed)
        assert by_code(diags2, "RSL-V001") == []

    def test_no_false_positives(self):
        _, diags = check_source("Actor a_1 : User\nDataEntity e_1 : Other\n")
        assert by_code(diags, "RSL-V001") == []

    def test_rename_skips_an_id_already_in_use(self):
        src = "Actor a_X : User\nActor a_X : User\nActor a_X_2 : User\n"
        _, diags = check_source(src)
        fixes = [f for d in by_code(diags, "RSL-V001") for f in d.fixes]
        assert [f.title for f in fixes] == ["Rename to 'a_X_3'"]
        _, diags2 = check_source(apply_edits(src, [e for f in fixes for e in f.edits]))
        assert by_code(diags2, "RSL-V001") == []


GLOSSARY = 'Term t_Customer "Customer" : Noun [synonyms "Client"]\n'


class TestGlossary:
    def test_synonym_in_description_flagged(self):
        src = GLOSSARY + 'Actor a_1 "Buyer" : User [description "User that is a client"]\n'
        _, diags = check_source(src)
        (d,) = by_code(diags, "RSL-V002")
        assert d.severity == "Warning"
        assert d.message == "Replace the word 'client' by the main word 'Customer'"

    def test_fix_replaces_exact_word(self):
        src = GLOSSARY + 'Actor a_1 "Buyer" : User [description "User that is a client"]\n'
        _, diags = check_source(src)
        (d,) = by_code(diags, "RSL-V002")
        fixed = apply_edits(src, d.fixes[0].edits)
        assert '"User that is a Customer"' in fixed
        _, diags2 = check_source(fixed)
        assert by_code(diags2, "RSL-V002") == []

    def test_escaped_description_flags_the_whole_fragment_without_a_fix(self):
        """Escapes shift the offsets of the decoded text, so no word span can be edited safely."""
        src = GLOSSARY + 'Actor a_1 "Buyer" : User [description "Bills the \\"client\\" monthly"]\n'
        rm, diags = check_source(src)
        (d,) = by_code(diags, "RSL-V002")
        actor = next(e for e in rm.effective_elements if e.id == "a_1")
        assert d.message == "Replace the word 'client' by the main word 'Customer'"
        assert d.span == actor.description_span and d.fixes == ()
        assert src[d.span.offset : d.span.end_offset] == 'Bills the \\"client\\" monthly'

    def test_lemma_match_catches_plural(self):
        src = GLOSSARY + 'Actor a_1 "Buyer" : User [description "Clients pay invoices"]\n'
        _, diags = check_source(src)
        (d,) = by_code(diags, "RSL-V002")
        assert d.message == "Replace the word 'Clients' by the main word 'Customer'"

    def test_synonym_in_name_flagged(self):
        src = GLOSSARY + 'Actor a_1 "Client" : User\n'
        _, diags = check_source(src)
        assert len(by_code(diags, "RSL-V002")) == 1

    def test_main_word_itself_not_flagged(self):
        src = GLOSSARY + 'Actor a_1 "Customer" : User [description "The customer pays"]\n'
        _, diags = check_source(src)
        assert by_code(diags, "RSL-V002") == []

    def test_conflicting_synonym_config(self):
        src = (
            'Term t_1 "Customer" : Noun [synonyms "Client"]\n'
            'Term t_2 "Buyer" : Noun [synonyms "Client"]\n'
        )
        _, diags = check_source(src)
        assert by_code(diags, "RSL-C001")

    def test_synonym_equal_to_other_main_word(self):
        src = (
            'Term t_1 "Customer" : Noun\n'
            'Term t_2 "Buyer" : Noun [synonyms "Customer"]\n'
        )
        _, diags = check_source(src)
        assert by_code(diags, "RSL-C002")


def glossary_inputs(source: str, extra: dict | None = None):
    """(resolved model, glossary lexicon, glossary) as `run_all_checks` builds them."""
    ws = Workspace()
    model = add_system(ws, "Main", source, "main.rsl")
    for name, text in (extra or {}).items():
        add_system(ws, name, text, f"{name}.rsl")
    rm = resolve(model, ws)
    language = rm.model.language
    return rm, pick_lexicon(language) or Lexicon(language=language), build_glossary(rm)


def assert_glossary_matches_oracle(source: str, extra: dict | None = None) -> int:
    rm, lex, glossary = glossary_inputs(source, extra)
    got = check_glossary(rm, lex, glossary)
    assert got == oracle_check_glossary(rm, lex, glossary)
    return len(got)


class TestGlossaryScreen:
    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.rsl")))
    def test_fixtures_match_the_unscreened_oracle(self, name):
        extra = {"SystemRules": fixture_text("system_rules.rsl")} if name == "billing_include.rsl" else None
        assert_glossary_matches_oracle(fixture_text(name), extra)

    def test_generated_models_match_the_unscreened_oracle(self):
        hits = sum(assert_glossary_matches_oracle(print_model(random_model(seed))) for seed in range(300))
        assert hits > 50

    def test_spec_without_terms_analyzes_nothing(self, monkeypatch):
        analyzed = count_analyze(monkeypatch)
        _, diags = check_source('Actor a_1 "Client" : User [description "Clients pay bills"]\n')
        assert diags == [] and analyzed == []

    def test_only_fragments_with_a_hit_are_analyzed(self, monkeypatch):
        rm, lex, glossary = glossary_inputs(fixture_text("billing_defects.rsl"))
        with_hit = [
            value
            for elem in rm.effective_elements
            for value in map(elem.fragment_value, ("name", "description"))
            if value
            and any(
                t.surface.lower() in glossary.entries or t.lemma in glossary.entries
                for t in oracle_analyze(value, lex)
            )
        ]
        analyzed = count_analyze(monkeypatch)
        assert by_code(check_glossary(rm, lex, glossary), "RSL-V002")
        assert analyzed == with_hit


def count_analyze(monkeypatch) -> list:
    """Record the text of every `analyze` call that `checks` makes."""
    analyzed = []

    def counting(text, lex):
        analyzed.append(text)
        return real(text, lex)

    real = checks.analyze
    monkeypatch.setattr(checks, "analyze", counting)
    return analyzed


GLOSSARY_WORDS = [
    "client", "clients", "Client", "CLIENTS", "buyer", "Buyers", "bill", "bills", "Bills",
    "party", "parties", "Parties", "invoice", "invoices", "customer", "Customers",
    "payment", "xyzzy", "Xyzzies", "42", "the", "of", "fatura", "faturas",
]


@st.composite
def glossary_specs(draw):
    words = st.lists(st.sampled_from(GLOSSARY_WORDS), min_size=1, max_size=6).map(" ".join)
    chunks = []
    language = draw(st.sampled_from([None, "English", "Portuguese", "Japanese"]))
    if language:
        chunks.append(f"LinguisticLanguage l_1 : {language}")
    for i in range(draw(st.integers(0, 3))):
        main = draw(st.sampled_from(["Customer", "Payment", "Document", "Fatura"]))
        synonyms = draw(st.lists(st.sampled_from(["Client", "buyer", "bill", "party", "invoice", "xyzzy"]), max_size=3, unique=True))
        clause = " [synonyms " + ", ".join(f'"{w}"' for w in synonyms) + "]" if synonyms else ""
        chunks.append(f'Term t_{i} "{main}" : Noun{clause}')
    for i in range(draw(st.integers(1, 5))):
        clause = f' [description "{draw(words)}"]' if draw(st.booleans()) else ""
        chunks.append(f'Actor a_{i} "{draw(words)}" : User{clause}')
    return "\n".join(chunks) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(glossary_specs())
def test_glossary_screen_matches_the_unscreened_oracle(source):
    assert_glossary_matches_oracle(source)


CYCLIC = (
    'Actor a_1 "Customer" : User [isA a_2]\n'
    'Actor a_2 "Customer VIP" : User [isA a_1]\n'
)


class TestHierarchyCycles:
    def test_two_node_cycle(self):
        _, diags = check_source(CYCLIC)
        v003 = by_code(diags, "RSL-V003")
        assert {d.message for d in v003} == {
            "Cycle in hierarchy of Actor 'a_1'",
            "Cycle in hierarchy of Actor 'a_2'",
        }
        assert all(d.severity == "Error" for d in v003)

    def test_self_loop(self):
        _, diags = check_source("Actor a_1 : User [isA a_1]\n")
        assert len(by_code(diags, "RSL-V003")) == 1

    def test_fix_breaks_cycle(self):
        _, diags = check_source(CYCLIC)
        d = by_code(diags, "RSL-V003")[0]
        fixed = apply_edits(CYCLIC, d.fixes[0].edits)
        _, diags2 = check_source(fixed)
        assert by_code(diags2, "RSL-V003") == []

    def test_acyclic_chain_clean(self):
        src = (
            "Actor a_1 : User\n"
            "Actor a_2 : User [isA a_1]\n"
            "Actor a_3 : User [isA a_2]\n"
        )
        _, diags = check_source(src)
        assert by_code(diags, "RSL-V003") == []

    def test_is_a_and_part_of_are_independent_graphs(self):
        # e_1 isA e_2 and e_2 partOf e_1 is not a cycle: different relations.
        src = (
            "DataEntity e_1 : Other [isA e_2]\n"
            "DataEntity e_2 : Other [partOf e_1]\n"
        )
        _, diags = check_source(src)
        assert by_code(diags, "RSL-V003") == []

    def test_part_of_cycle_detected(self):
        src = (
            "DataEntity e_1 : Other [partOf e_2]\n"
            "DataEntity e_2 : Other [partOf e_1]\n"
        )
        _, diags = check_source(src)
        assert len(by_code(diags, "RSL-V003")) == 2

    def test_extends_is_not_a_hierarchy(self):
        # extends references another use case but forms no hierarchy: a loop is no V003.
        src = (
            "UseCase uc_1 : Other [extensionPoints xp_1 extends uc_2 onExtensionPoint xp_2]\n"
            "UseCase uc_2 : Other [extensionPoints xp_2 extends uc_1 onExtensionPoint xp_1]\n"
        )
        _, diags = check_source(src)
        assert by_code(diags, "RSL-R001") == []
        assert by_code(diags, "RSL-V003") == []


def random_graph(rng, max_nodes=12, density=0.5, outside=0):
    """Nodes 0..n-1 with random edges; `outside` more nodes that are successors only, not keys of the graph."""
    n = rng.randint(1, max_nodes)
    p = rng.uniform(0, density)
    graph = {i: [] for i in range(n)}
    for a in range(n):
        for b in range(n + outside):
            if rng.random() < p:
                graph[a].append(b)
    return graph


def random_dag(rng, max_nodes=12, density=0.5):
    graph = random_graph(rng, max_nodes, density)
    return {a: [b for b in succs if b > a] for a, succs in graph.items()}


class TestCycleDetector:
    def test_matches_reachability_oracle(self):
        rng = random.Random(1)
        for _ in range(300):
            # A successor outside the graph (a reference to no element) is skipped by both.
            graph = random_graph(rng, outside=3)
            assert cycle_nodes(graph) == oracle_cycle_nodes(graph)

    def test_oracles_agree_on_tiny_graphs(self):
        # The reachability oracle is itself cross-checked against
        # exhaustive simple-cycle enumeration where that is feasible.
        rng = random.Random(2)
        for _ in range(200):
            graph = random_graph(rng, max_nodes=6)
            assert oracle_cycle_nodes(graph) == nodes_on_simple_cycles(graph)

    def test_dags_never_flagged(self):
        rng = random.Random(3)
        for _ in range(300):
            assert cycle_nodes(random_dag(rng)) == set()

    def test_scc_partition(self):
        rng = random.Random(4)
        for _ in range(100):
            graph = random_graph(rng)
            sccs = strongly_connected_components(graph)
            seen = [n for scc in sccs for n in scc]
            assert sorted(seen) == sorted(graph), "SCCs must partition the nodes"
