"""Seeded random model generator backing the round-trip and generator suites."""

import random

from rslkit.model import (
    Actor,
    AltPart,
    Attribute,
    CONSTRAINTS,
    DATA_TYPES,
    DataEntity,
    FRAGMENTS,
    FragmentRefPart,
    FunctionalRequirement,
    LANGUAGES,
    LinguisticLanguageDecl,
    LinguisticRuleDecl,
    LitPart,
    Model,
    POS_CATEGORIES,
    PosPart,
    SEVERITIES,
    Stakeholder,
    Term,
    UseCase,
)

WORDS = [
    "invoice", "receipt", "order", "payment", "customer", "manager",
    "report", "ledger", "account", "audit", "filter", "archive",
    "review", "approve", "create", "print", "export", "update",
]

TRICKY = ['say "hi"', "back\\slash", "mixed \"x\\y\" text", "trailing space "]


class ModelGen:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.counter = 0

    def ident(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}_{self.counter}"

    def word(self) -> str:
        return self.rng.choice(WORDS)

    def name(self) -> str:
        if self.rng.random() < 0.05:
            return self.rng.choice(TRICKY)
        count = self.rng.randint(1, 3)
        return " ".join(self.word().capitalize() for _ in range(count))

    def maybe_name(self):
        return self.name() if self.rng.random() < 0.8 else None

    def maybe_description(self):
        if self.rng.random() < 0.4:
            return " ".join(self.word() for _ in range(self.rng.randint(2, 6))) + "."
        return None

    def pattern_atom(self):
        roll = self.rng.random()
        if roll < 0.4:
            return PosPart(self.rng.choice(list(POS_CATEGORIES)))
        if roll < 0.7:
            return LitPart(self.word())
        return FragmentRefPart(
            self.rng.choice(["DataEntity", "Actor", "UseCase", "Term"]),
            self.rng.choice(FRAGMENTS),
        )

    def pattern(self) -> tuple:
        parts = []
        for _ in range(self.rng.randint(1, 4)):
            if self.rng.random() < 0.25:
                parts.append(
                    AltPart(tuple(self.pattern_atom() for _ in range(self.rng.randint(2, 3))))
                )
            else:
                parts.append(self.pattern_atom())
        return tuple(parts)

    def attribute(self, allow_key: bool) -> Attribute:
        pool = list(CONSTRAINTS) if allow_key else [c for c in CONSTRAINTS if c != "PrimaryKey"]
        return Attribute(
            id=self.ident("at"),
            name=self.name(),
            data_type=self.rng.choice(DATA_TYPES),
            constraints=tuple(self.rng.sample(pool, self.rng.randint(0, 2))),
            default_value=self.word() if self.rng.random() < 0.3 else None,
        )

    def generate(self) -> Model:
        model = Model()
        if self.rng.random() < 0.3:
            lang = LinguisticLanguageDecl(
                id=self.ident("l"), language=self.rng.choice(LANGUAGES)
            )
            model.elements.append(lang)
            model.language_decl = lang

        entities: list[DataEntity] = []
        actors: list[Actor] = []
        use_cases: list[UseCase] = []

        for _ in range(self.rng.randint(0, 5)):
            entity = DataEntity(
                id=self.ident("e"),
                name=self.maybe_name(),
                description=self.maybe_description(),
                entity_type=self.rng.choice(["Document", "Master", "Other"]),
                attributes=tuple(
                    self.attribute(allow_key=i == 0) for i in range(self.rng.randint(0, 3))
                ),
            )
            if entities and self.rng.random() < 0.3:
                entity.is_a = self.rng.choice(entities).id
            if entities and self.rng.random() < 0.3:
                entity.part_of = self.rng.choice(entities).id
            entities.append(entity)
            model.elements.append(entity)

        for _ in range(self.rng.randint(0, 4)):
            actor = Actor(
                id=self.ident("a"),
                name=self.maybe_name(),
                description=self.maybe_description(),
                actor_type=self.rng.choice(["User", "ExternalSystem", "Timer"]),
            )
            if actors and self.rng.random() < 0.3:
                actor.is_a = self.rng.choice(actors).id
            actors.append(actor)
            model.elements.append(actor)

        for _ in range(self.rng.randint(0, 4)):
            uc = UseCase(
                id=self.ident("uc"),
                name=self.maybe_name(),
                description=self.maybe_description(),
                uc_type=self.rng.choice(["EntityCreate", "EntityPrint", "EntitiesManage", "Other"]),
                actions=tuple(self.ident("act") for _ in range(self.rng.randint(0, 3))),
                extension_points=tuple(self.ident("xp") for _ in range(self.rng.randint(0, 2))),
            )
            if actors and self.rng.random() < 0.7:
                uc.primary_actor = self.rng.choice(actors).id
            if entities and self.rng.random() < 0.7:
                uc.data_entity = self.rng.choice(entities).id
            extendable = [u for u in use_cases if u.extension_points]
            if extendable and self.rng.random() < 0.3:
                target = self.rng.choice(extendable)
                uc.extends_target = target.id
                uc.extends_point = self.rng.choice(target.extension_points)
            if self.rng.random() < 0.3:
                uc.precondition = " ".join(self.word() for _ in range(3))
            use_cases.append(uc)
            model.elements.append(uc)

        for _ in range(self.rng.randint(0, 3)):
            name = self.name()
            synonyms = tuple(
                w.capitalize()
                for w in dict.fromkeys(self.word() for _ in range(self.rng.randint(0, 2)))
                if w.lower() != name.lower()  # a term may not list itself
            )
            model.elements.append(
                Term(
                    id=self.ident("t"),
                    name=name,
                    pos_category=self.rng.choice(list(POS_CATEGORIES)),
                    synonyms=synonyms,
                )
            )

        for _ in range(self.rng.randint(0, 2)):
            model.elements.append(
                Stakeholder(
                    id=self.ident("sh"),
                    name=self.maybe_name(),
                    stakeholder_type=self.rng.choice(["Organization", "Person", "Other"]),
                    stakeholder_subtype=self.rng.choice(["Department", "Team", None]),
                )
            )

        for _ in range(self.rng.randint(0, 2)):
            model.elements.append(
                FunctionalRequirement(
                    id=self.ident("fr"),
                    name=self.maybe_name(),
                    description=self.maybe_description(),
                    fr_type="Functional",
                )
            )

        for _ in range(self.rng.randint(0, 2)):
            model.elements.append(
                LinguisticRuleDecl(
                    id=self.ident("lr"),
                    name=self.maybe_name(),
                    target_kind=self.rng.choice(["DataEntity", "Actor", "UseCase"]),
                    fragment=self.rng.choice(FRAGMENTS),
                    pattern=self.pattern(),
                    severity=self.rng.choice(SEVERITIES),
                )
            )

        self.rng.shuffle(model.elements)
        # A language declaration must stay unique and is conventionally first.
        if model.language_decl is not None:
            model.elements.remove(model.language_decl)
            model.elements.insert(0, model.language_decl)
        return model


def random_model(seed: int) -> Model:
    return ModelGen(seed).generate()
