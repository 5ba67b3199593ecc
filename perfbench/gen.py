"""Seeded inputs for the rslkit benchmark, with their expected results.

Nothing here imports rslkit: every expectation (diagnostic counts, exit
codes, element counts) follows from how the inputs are built, so the
program under test never serves as its own reference.

All words come from the shipped English lexicon, so their tags are
known: VERBS are tagged only VERB, NOUNS and ACTOR_NOUNS carry NOUN,
RESERVED nouns never occur in an element name (a use case or requirement
naming them references no data entity), and BAD_ACTORS are verbs, which
fail a noun-first actor rule.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

WORKLOADS = ("lint_single", "workspace_fanout", "fix_and_emit")

VERBS = (
    "Approve", "Reject", "Pay", "Browse", "Create", "Manage", "Confirm", "Cancel",
    "Send", "Receive", "Generate", "Add", "Edit", "Delete", "Update", "Remove",
    "Register", "Submit", "Export", "Validate", "Archive", "Track", "Monitor", "Audit",
)
NOUNS = (
    "Invoice", "Receipt", "Payment", "Document", "Account", "Order", "Product",
    "Amount", "Total", "Tax", "Status", "Address", "Email", "Company", "Supplier",
    "Vendor", "Employee", "Approval", "Rejection", "Notification", "Partner",
    "Balance", "Discount", "Category", "Service", "Template", "Project", "Task",
    "Result", "Output", "Input", "Data", "Information", "Month", "Year", "Week",
    "Period", "Business", "Table", "Row", "Column", "Section", "Chapter", "Page",
    "Line", "Message", "Format", "Language", "Detail", "History", "Log", "Date",
)
RESERVED = ("Glossary", "Hierarchy", "Synonym", "Constraint", "Stakeholder", "Fragment")
ACTOR_NOUNS = (
    "Operator", "Manager", "Cashier", "Accountant", "Administrator", "User",
    "Employee", "Supplier", "Vendor", "Partner",
)
BAD_ACTORS = ("Approve", "Reject", "Confirm", "Validate")
SYNONYM = "client"  # declared synonym of the Term "Customer"; plural "clients"

JSON_KEYS = {
    "DataEntity": "dataEntities",
    "Actor": "actors",
    "UseCase": "useCases",
    "Term": "terms",
    "FunctionalRequirement": "functionalRequirements",
    "LinguisticRule": "linguisticRules",
}

RULES = """\
LinguisticRule LR_1 "Use case name" : Syntax [
  property UseCase.name
  pattern Verb + (DataEntity.name)
  severity Error
  description "Use case names state an action on a data entity"
]

LinguisticRule LR_2 "Actor name" : Syntax [
  property Actor.name
  pattern (Noun | ProperNoun)
  severity Warning
  description "Actor names start with a noun or proper noun"
]

LinguisticRule LR_3 "Requirement text" : Syntax [
  property FunctionalRequirement.description
  pattern "System" + "shall" + (Verb) + (DataEntity.name)
  severity Error
  description "Requirements state what the system shall do to a data entity"
]
"""
RULE_COUNT = 3

ACTOR_RULE = """\
LinguisticRule LR_A "Actor name" : Syntax [
  property Actor.name
  pattern (Noun | ProperNoun)
  severity Warning
  description "Actor names start with a noun or proper noun"
]
"""

TERM = """\
Term t_Customer "Customer" : Noun [
  synonyms "Client"
]
"""

# Sections: header counts, then one line per element of each kind; the
# oracle counts lines by their first letter.
REPORT_TEMPLATE = """\
# Specification report ({upper(language)})
Counts: entities={length(dataEntities)} useCases={length(useCases)} actors={length(actors)} requirements={length(functionalRequirements)}
{#dataEntities}E {id} | {name} | {type.type} | {length(attributes)} attribute(s){#isA} | isA {this}{/isA}{#partOf} | partOf {this}{/partOf}
{/dataEntities}{#useCases}U {id} | {upper(name)} | actor={primaryActor.name} | entity={dataEntity.name} | {join(actions, ", ")}
{/useCases}{#actors}A {id} | {lower(name)} | {type.type}
{/actors}{#functionalRequirements}R {id} | {default(description, "-")}
{/functionalRequirements}{#terms}T {name}: {join(synonyms, ", ")}
{/terms}"""
TEMPLATE_LINE_KINDS = {"E": "DataEntity", "U": "UseCase", "A": "Actor", "R": "FunctionalRequirement", "T": "Term"}


@dataclass
class Workload:
    """Generated files plus the arguments and expected outcome of each command.

    Paths are relative to the run's work directory. check and gen run
    there. fix runs in FIX_DIR on the same arguments, after fix_files
    are copied there afresh.
    """

    name: str
    files: dict  # path -> text
    inputs: list  # arguments naming the defect inputs, for check and fix
    targets: list  # documents the check report must list
    codes: dict  # diagnostic code -> count reported by check
    fix_files: list
    fix_exit: int
    fix_absent: tuple  # codes whose defects the fix must remove
    fix_elements: dict  # path -> element count after the fix
    gen_inputs: list  # arguments naming the defect-free input of gen
    gen_system: str
    gen_kinds: dict  # element kind -> count in the gen input
    check_exit: int = 1  # every workload has Error diagnostics


FIX_DIR = "fix"
TEMPLATE_FILE = "report.tpl"
EMPTY_FILE = "empty.rsl"


class Spec:
    """Accumulates element declarations of one document."""

    def __init__(self):
        self.chunks: list[str] = []
        self.kinds: Counter = Counter()

    def raw(self, text: str, kinds: dict):
        self.chunks.append(text.rstrip("\n"))
        self.kinds.update(kinds)

    def element(self, kind: str, ident: str, name: str, type_: str, clauses=()):
        head = f'{kind} {ident} "{name}" : {type_}'
        if clauses:
            head += " [\n" + "".join(f"  {c}\n" for c in clauses) + "]"
        self.chunks.append(head)
        self.kinds[kind] += 1

    def text(self) -> str:
        return "\n\n".join(self.chunks) + "\n"


def _entity_names(rng: random.Random, count: int) -> list[str]:
    """Distinct two-word entity names built from NOUNS."""
    pairs = [(a, b) for a in NOUNS for b in NOUNS if a != b]
    return [f"{a} {b}" for a, b in rng.sample(pairs, count)]


def _bad_name(rng: random.Random) -> str:
    a, b = rng.sample(RESERVED, 2)
    return f"{a} {b}"


def _attributes(rng: random.Random, n: int) -> list[str]:
    out = ['attribute id "ID" : Integer [constraints (PrimaryKey)]']
    for k in range(n):
        dtype = rng.choice(("String", "Decimal", "Date", "Boolean"))
        out.append(f'attribute f{k} "{rng.choice(NOUNS)}" : {dtype}')
    return out


def _pick(rng: random.Random, population: range, k: int) -> set[int]:
    return set(rng.sample(population, k))


# --- lint_single -------------------------------------------------------------

def lint_single(seed: int, scale: float = 1.0) -> Workload:
    """One large spec; every rule sees every element of one effective list."""
    rng = random.Random(f"lint_single:{seed}")
    pairs = max(8, round(500 * scale))
    reqs = max(4, round(125 * scale))
    actors = 8
    bad_uc = _pick(rng, range(pairs), max(1, pairs // 25))
    bad_fr = _pick(rng, range(reqs), max(1, reqs // 25))
    bad_actor = _pick(rng, range(actors), 2)
    syn_uses = _pick(rng, range(pairs), max(1, pairs // 30))
    names = _entity_names(rng, pairs)

    def build(defects: bool) -> Spec:
        spec = Spec()
        spec.raw(RULES, {"LinguisticRule": RULE_COUNT})
        spec.raw(TERM, {"Term": 1})
        for i in range(actors):
            word = BAD_ACTORS[i % len(BAD_ACTORS)] if defects and i in bad_actor else ACTOR_NOUNS[i]
            spec.element("Actor", f"a_{i}", word, "User")
        for i, name in enumerate(names):
            desc = f"Record of one {name.split()[1].lower()}"
            if defects and i in syn_uses:
                desc += f" kept for the {SYNONYM}"
            spec.element(
                "DataEntity", f"e_{i}", name, "Document",
                _attributes(rng, 2) + [f'description "{desc}"'],
            )
            target = _bad_name(rng) if defects and i in bad_uc else name
            spec.element(
                "UseCase", f"uc_{i}", f"{rng.choice(VERBS)} {target}", "EntityManage",
                [f"primaryActor a_{rng.randrange(actors)}", f"dataEntity e_{i}", "actions aOpen, aClose"],
            )
        for j in range(reqs):
            target = _bad_name(rng) if defects and j in bad_fr else rng.choice(names)
            spec.element(
                "FunctionalRequirement", f"fr_{j}", f"Requirement {j}", "Functional",
                [f'description "System shall {rng.choice(VERBS).lower()} {target}."'],
            )
        return spec

    defect, clean = build(True), build(False)
    return Workload(
        name="lint_single",
        files=_with_common({"spec.rsl": defect.text(), "clean.rsl": clean.text()}),
        inputs=["spec.rsl"],
        targets=["spec.rsl"],
        codes={"RSL-L001": len(bad_uc) + len(bad_fr) + len(bad_actor), "RSL-V002": len(syn_uses)},
        # The synonym uses get fixed; the L001 errors have no automatic fix.
        fix_files=["spec.rsl"],
        fix_exit=1,
        fix_absent=("RSL-V002",),
        fix_elements={"spec.rsl": sum(defect.kinds.values())},
        gen_inputs=["clean.rsl"],
        gen_system="clean",
        gen_kinds=dict(clean.kinds),
    )


# --- workspace_fanout --------------------------------------------------------

def workspace_fanout(seed: int, scale: float = 1.0) -> Workload:
    """Many small files linked by Import, Include and IncludeAll."""
    rng = random.Random(f"workspace_fanout:{seed}")
    cores = 5
    features = max(2, round(45 * scale))
    core_entities = 12
    own = 6  # (entity, use case) pairs per feature
    catalogue = Spec()
    catalogue.raw(RULES, {"LinguisticRule": RULE_COUNT})
    catalogue.raw(TERM, {"Term": 1})
    files = {"catalogue.rsl": catalogue.text()}
    manifest = ["Catalogue=catalogue.rsl"]

    core_names = []
    for k in range(cores):
        spec = Spec()
        spec.raw("IncludeAll fromSystem Catalogue\n", {})
        for a in range(3):
            spec.element("Actor", f"a_c{k}_{a}", ACTOR_NOUNS[(k + a) % len(ACTOR_NOUNS)], "User")
        names = _entity_names(rng, core_entities)
        core_names.append(names)
        for j, name in enumerate(names):
            spec.element("DataEntity", f"e_c{k}_{j}", name, "Document", _attributes(rng, 2))
            spec.element(
                "UseCase", f"uc_c{k}_{j}", f"{rng.choice(VERBS)} {name}", "EntityManage",
                [f"primaryActor a_c{k}_{j % 3}", f"dataEntity e_c{k}_{j}"],
            )
        files[f"core{k}.rsl"] = spec.text()
        manifest.append(f"Core{k}=core{k}.rsl")

    # Feature 0 stays defect-free: gen runs on it.
    bad_uc = _pick(rng, range(1, features), max(1, features // 3))
    syn_uses = _pick(rng, range(1, features), max(1, features // 4))
    codes: Counter = Counter()
    targets = []
    fix_elements = {}
    gen_kinds: dict = {}
    for i in range(features):
        k = i % cores
        j = rng.randrange(core_entities)
        spec = Spec()
        spec.raw(
            f"Import fromSystem Core{k}\n\n"
            f"Include DataEntity fromSystem Core{k} element e_c{k}_{j}\n\n"
            "IncludeAll fromSystem Catalogue\n",
            {},
        )
        names = _entity_names(rng, own)
        for m, name in enumerate(names):
            desc = f"Local copy of one {name.split()[0].lower()}"
            if i in syn_uses and m == 0:
                desc += f" for the {SYNONYM}"
            spec.element(
                "DataEntity", f"e_f{i}_{m}", name, "Other",
                _attributes(rng, 1) + [f'description "{desc}"'],
            )
            target = _bad_name(rng) if i in bad_uc and m == 0 else name
            spec.element(
                "UseCase", f"uc_f{i}_{m}", f"{rng.choice(VERBS)} {target}", "EntityManage",
                [f"primaryActor a_c{k}_{m % 3}", f"dataEntity e_f{i}_{m}"],
            )
        spec.element(
            "UseCase", f"uc_f{i}_core", f"{rng.choice(VERBS)} {core_names[k][j]}", "EntityManage",
            [f"primaryActor a_c{k}_0", f"dataEntity e_c{k}_{j}"],
        )
        spec.element(
            "FunctionalRequirement", f"fr_f{i}", f"Requirement {i}", "Functional",
            [f'description "System shall {rng.choice(VERBS).lower()} {rng.choice(names)}."'],
        )
        path = f"feature{i:02d}.rsl"
        files[path] = spec.text()
        manifest.append(f"Feature{i}={path}")
        targets.append(path)
        codes["RSL-I001"] += 2  # the Include and the IncludeAll; Import pulls nothing
        codes["RSL-L001"] += i in bad_uc
        codes["RSL-V002"] += i in syn_uses
        # Inlining brings in the included entity and the whole catalogue.
        fix_elements[path] = sum(spec.kinds.values()) + 1 + RULE_COUNT + 1
        if i == 0:
            gen_kinds = dict(spec.kinds)
            gen_kinds["DataEntity"] += 1
            gen_kinds["LinguisticRule"] = RULE_COUNT
            gen_kinds["Term"] = 1

    files["manifest.txt"] = "\n".join(manifest) + "\n"
    return Workload(
        name="workspace_fanout",
        files=_with_common(files),
        inputs=["--manifest", "manifest.txt", *targets],
        targets=targets,
        codes={code: n for code, n in codes.items() if n},
        fix_files=sorted(files),
        fix_exit=1,
        fix_absent=("RSL-V002", "RSL-I001"),
        fix_elements=fix_elements,
        gen_inputs=["--manifest", "manifest.txt", targets[0]],
        gen_system="Feature0",
        gen_kinds=gen_kinds,
    )


# --- fix_and_emit ------------------------------------------------------------

def fix_and_emit(seed: int, scale: float = 1.0) -> Workload:
    """One large spec with fixable defects and a clean twin to generate from.

    Its only rule tests parts of speech, so no rule references element
    names and the matcher stays cheap.
    """
    rng = random.Random(f"fix_and_emit:{seed}")
    pairs = max(20, round(1000 * scale))
    reqs = max(4, round(100 * scale))
    actors = 10
    dup_groups = max(1, pairs // 100)  # pairs of DataEntities sharing one id
    syn_uses = _pick(rng, range(pairs), max(1, pairs // 30))
    cycle_sizes = (2, 2, 3)  # partOf cycles among entities
    names = _entity_names(rng, pairs + dup_groups)
    # Entities pointing backwards form a forest; cycles and duplicates use
    # disjoint entities so that each fix stands alone.
    order = rng.sample(range(pairs), pairs)
    cycles, pos = [], 0
    for size in cycle_sizes:
        cycles.append(order[pos : pos + size])
        pos += size
    dup_of = order[pos : pos + dup_groups]
    pos += dup_groups
    cyclic = {e for c in cycles for e in c}
    part_of = {}
    for c in cycles:
        for n, e in enumerate(c):
            part_of[e] = c[(n + 1) % len(c)]
    for i in range(1, pairs):
        if i not in cyclic and rng.random() < 0.2:
            parent = rng.randrange(i)
            if parent not in cyclic:
                part_of[i] = parent
    actor_cycle = (actors - 2, actors - 1)

    def build(defects: bool) -> Spec:
        spec = Spec()
        spec.raw(ACTOR_RULE, {"LinguisticRule": 1})
        spec.raw(TERM, {"Term": 1})
        for i in range(actors):
            clauses = []
            if defects and i in actor_cycle:
                other = actor_cycle[1] if i == actor_cycle[0] else actor_cycle[0]
                clauses.append(f"isA a_{other}")
            elif i > 0:
                clauses.append("isA a_0")
            spec.element("Actor", f"a_{i}", ACTOR_NOUNS[i], "User", clauses)
        for i in range(pairs):
            clauses = _attributes(rng, 3)
            parent = part_of.get(i)
            if parent is not None and (defects or i not in cyclic):
                clauses.append(f"partOf e_{parent}")
            desc = f"Stores one {names[i].split()[1].lower()}"
            if defects and i in syn_uses:
                desc += f" for the {SYNONYM}"
            clauses.append(f'description "{desc}"')
            spec.element("DataEntity", f"e_{i}", names[i], "Document", clauses)
            spec.element(
                "UseCase", f"uc_{i}", f"{rng.choice(VERBS)} {names[i]}", "EntityManage",
                [f"primaryActor a_{rng.randrange(actors)}", f"dataEntity e_{i}", "actions aOpen, aSave, aClose"],
            )
        for g, i in enumerate(dup_of):
            ident = f"e_{i}" if defects else f"e_x{g}"
            spec.element("DataEntity", ident, names[pairs + g], "Other", _attributes(rng, 1))
        for j in range(reqs):
            spec.element(
                "FunctionalRequirement", f"fr_{j}", f"Requirement {j}", "Functional",
                [f'description "System shall {rng.choice(VERBS).lower()} {rng.choice(names)}."'],
            )
        return spec

    defect, clean = build(True), build(False)
    return Workload(
        name="fix_and_emit",
        files=_with_common({"spec.rsl": defect.text(), "clean.rsl": clean.text()}),
        inputs=["spec.rsl"],
        targets=["spec.rsl"],
        codes={
            "RSL-V001": 2 * dup_groups,
            "RSL-V002": len(syn_uses),
            "RSL-V003": len(cyclic) + len(actor_cycle),
        },
        fix_files=["spec.rsl"],
        fix_exit=0,
        fix_absent=("RSL-V001", "RSL-V002", "RSL-V003"),
        fix_elements={"spec.rsl": sum(defect.kinds.values())},
        gen_inputs=["clean.rsl"],
        gen_system="clean",
        gen_kinds=dict(clean.kinds),
    )


def _with_common(files: dict) -> dict:
    """Adds the report template and the empty spec every workload uses."""
    return {**files, TEMPLATE_FILE: REPORT_TEMPLATE, EMPTY_FILE: ""}


def make(name: str, seed: int, scale: float = 1.0) -> Workload:
    """The named workload for a seed; scale multiplies its size."""
    generators = {"lint_single": lint_single, "workspace_fanout": workspace_fanout, "fix_and_emit": fix_and_emit}
    if name not in generators:
        raise ValueError(f"unknown workload '{name}' (choose from {', '.join(WORKLOADS)})")
    return generators[name](seed, scale)
