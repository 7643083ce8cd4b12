"""Randomized equivalence: the engine's semi-naive evaluation over
compiled plans must reach the fixpoint of the naive reference evaluator
(``tests/datalog_reference.py``) on generated stratified programs, with
and without provenance tracking, and record a first derivation for
exactly the derived facts; one compiled program evaluated over many
databases must match a fresh engine per database; DRed incremental repair
after random EDB add/retract batches must match a from-scratch fixpoint
over the mutated EDB."""

import random

from hypothesis import given, settings, strategies as st

from repro.datalog import (
    Atom,
    CompiledProgram,
    Database,
    Engine,
    Literal,
    Rule,
    Variable,
)
from repro.datalog.planner import compile_rule
from repro.datalog.terms import Filter
from tests import datalog_reference

# EDB relations are never rule heads and negation only targets them, so
# every generated program is stratifiable by construction.
EDB_ARITY = {"E": 2, "N": 1, "F": 2}
IDB_ARITY = {"P": 2, "Q": 1, "R": 1, "S": 1}
ARITY = {**EDB_ARITY, **IDB_ARITY}
CONSTANTS = ["a", "b", "c", 1, 2]
VARIABLES = [Variable("v%d" % i) for i in range(4)]


def _is_string(value) -> bool:
    """Deterministic filter predicate used by generated rules."""
    return isinstance(value, str)


@st.composite
def _rule(draw):
    body = []
    bound = []
    for _ in range(draw(st.integers(1, 3))):
        relation = draw(st.sampled_from(sorted(ARITY)))
        args = []
        for _ in range(ARITY[relation]):
            if draw(st.booleans()):
                variable = draw(st.sampled_from(VARIABLES))
                args.append(variable)
                if variable not in bound:
                    bound.append(variable)
            else:
                args.append(draw(st.sampled_from(CONSTANTS)))
        body.append(Literal(Atom(relation, *args)))
    if bound and draw(st.booleans()):
        relation = draw(st.sampled_from(sorted(EDB_ARITY)))
        args = [
            draw(st.sampled_from(bound)) if draw(st.booleans())
            else draw(st.sampled_from(CONSTANTS))
            for _ in range(EDB_ARITY[relation])
        ]
        body.append(Literal(Atom(relation, *args), negated=True))
    if bound and draw(st.booleans()):
        body.append(
            Filter(_is_string, draw(st.sampled_from(bound)), name="is_string")
        )
    head_relation = draw(st.sampled_from(sorted(IDB_ARITY)))
    head_args = [
        draw(st.sampled_from(bound)) if bound and draw(st.booleans())
        else draw(st.sampled_from(CONSTANTS))
        for _ in range(IDB_ARITY[head_relation])
    ]
    return Rule(Atom(head_relation, *head_args), body)


@st.composite
def _program(draw):
    rules = draw(st.lists(_rule(), min_size=1, max_size=6))
    facts = {}
    for relation, arity in EDB_ARITY.items():
        facts[relation] = draw(
            st.lists(
                st.tuples(*[st.sampled_from(CONSTANTS)] * arity),
                max_size=8,
            )
        )
    return rules, facts


def _load(facts) -> Database:
    database = Database()
    for relation, rows in facts.items():
        database.add_all(relation, rows)
    return database


def _naive(rules, facts) -> Database:
    """Reference fixpoint: naive bottom-up iteration, no deltas."""
    return datalog_reference.evaluate(rules, _load(facts))


def _semi_naive(rules, facts, track=False):
    database = _load(facts)
    engine = Engine(rules, track_provenance=track)
    engine.evaluate(database)
    return database, engine


def _snapshot(database: Database):
    return {
        relation: database.facts(relation)
        for relation in sorted(set(database.relations()) | set(IDB_ARITY))
    }


class TestEngineEquivalence:
    @given(_program())
    @settings(max_examples=60, deadline=None)
    def test_engine_matches_naive_reference(self, program):
        rules, facts = program
        reference = _snapshot(_naive(rules, facts))
        plain_db, _ = _semi_naive(rules, facts)
        tracking_db, _ = _semi_naive(rules, facts, track=True)
        assert _snapshot(plain_db) == reference
        assert _snapshot(tracking_db) == reference

    @given(_program())
    @settings(max_examples=40, deadline=None)
    def test_provenance_coverage_matches(self, program):
        """The engine records a first derivation for exactly the derived
        (IDB) facts of the reference fixpoint."""
        rules, facts = program
        _, engine = _semi_naive(rules, facts, track=True)
        reference = _naive(rules, facts)
        derived = {
            (relation, fact)
            for relation in IDB_ARITY
            for fact in reference.facts(relation)
        }
        assert set(engine.provenance) == derived

    @given(_program())
    @settings(max_examples=30, deadline=None)
    def test_compiled_stats_count_all_derivations(self, program):
        """Per-rule derivation counts sum to the number of IDB facts."""
        rules, facts = program
        database, engine = _semi_naive(rules, facts)
        derived = sum(
            len(database.facts(relation)) for relation in IDB_ARITY
        )
        assert engine.stats.derived_facts == derived
        assert sum(engine.stats.rule_derivations.values()) == derived


@st.composite
def _program_with_databases(draw):
    """A program plus 2-5 EDBs, each with a seed for its load order."""
    rules, facts = draw(_program())
    databases = [(facts, draw(st.integers(0, 2**16)))]
    for _ in range(draw(st.integers(1, 4))):
        _, more = draw(_program())
        databases.append((more, draw(st.integers(0, 2**16))))
    return rules, databases


def _load_shuffled(facts, seed) -> Database:
    """``facts`` loaded relation by relation and row by row in an order
    drawn from ``seed``, so constants intern to different ids."""
    shuffle = random.Random(seed).shuffle
    relations = sorted(facts)
    shuffle(relations)
    database = Database()
    for relation in relations:
        rows = list(facts[relation])
        shuffle(rows)
        database.add_all(relation, rows)
    return database


class TestSharedProgram:
    @given(_program_with_databases())
    @settings(max_examples=60, deadline=None)
    def test_one_program_many_databases_equals_fresh_engines(self, drawn):
        """Plan templates are shared and keyed by size ranks: evaluating
        one program over several databases (interning differently) must
        give each database exactly what a
        fresh engine gives it — fixpoint, provenance and every counter.
        A template that binding mutated would leak one database's ids or
        index references into the next."""
        rules, databases = drawn
        program = CompiledProgram(rules)
        for facts, seed in databases:
            shared_db = _load_shuffled(facts, seed)
            shared = Engine(program, track_provenance=True)
            shared.evaluate(shared_db)
            fresh_db = _load_shuffled(facts, seed)
            fresh = Engine(rules, track_provenance=True)
            fresh.evaluate(fresh_db)
            assert _snapshot(shared_db) == _snapshot(fresh_db)
            assert shared.provenance == fresh.provenance
            assert shared.stats.as_dict() == fresh.stats.as_dict()

    @given(_program_with_databases())
    @settings(max_examples=60, deadline=None)
    def test_cached_plans_equal_plans_for_actual_sizes(self, drawn):
        """The cache key keeps only the ranks of relation sizes; the plan
        it serves must be the one the planner builds from the sizes
        themselves, for every database and both delta shapes."""
        rules, databases = drawn
        program = CompiledProgram(rules)
        for facts, seed in databases:
            database = _load_shuffled(facts, seed)
            for all_deltas in (False, True):
                cached = program.plans(database.count, all_deltas=all_deltas)
                for level, stratum in enumerate(program.strata):
                    heads = program.stratum_heads[level]
                    for position, rule in enumerate(stratum):
                        deltas = heads
                        if all_deltas:
                            deltas = {
                                item.atom.relation
                                for item in rule.body
                                if isinstance(item, Literal) and not item.negated
                            }
                        direct = compile_rule(rule, deltas, database.count)
                        assert _shape(cached[level][position]) == _shape(direct)


def _shape(plan):
    """Everything about a compiled plan that evaluation depends on."""

    def guards(items):
        return [(type(guard).__name__, guard.orig_index) for guard in items]

    return [
        (
            variant.delta_position,
            guards(variant.prelude),
            [
                (
                    step.orig_index,
                    step.delta,
                    step.positions,
                    step.key_spec,
                    step.outs,
                    step.checks,
                    guards(step.guards),
                )
                for step in variant.steps
            ],
            variant.head_spec,
        )
        for variant in plan.variants()
    ]


@st.composite
def _program_with_changes(draw):
    """A program plus 1-3 EDB change batches (additions and retraction
    picks; picks index into the then-current EDB at apply time)."""
    rules, facts = draw(_program())
    batches = []
    for _ in range(draw(st.integers(1, 3))):
        additions = {}
        for relation, arity in EDB_ARITY.items():
            additions[relation] = draw(
                st.lists(
                    st.tuples(*[st.sampled_from(CONSTANTS)] * arity),
                    max_size=4,
                )
            )
        picks = draw(st.lists(st.integers(0, 10_000), max_size=5))
        batches.append((additions, picks))
    return rules, facts, batches


class TestIncrementalEquivalence:
    """DRed repair after random EDB mutation must match a from-scratch
    fixpoint over the mutated EDB — fact-for-fact, and (when tracking)
    provenance-coverage-for-coverage."""

    def _run(self, program, track=False):
        rules, facts, batches = program
        edb = {
            relation: set(rows)
            for relation, rows in facts.items()
        }
        database = _load(facts)
        engine = Engine(rules, track_provenance=track)
        engine.evaluate(database)
        for additions, picks in batches:
            pool = sorted(
                (
                    (relation, fact)
                    for relation, rows in edb.items()
                    for fact in rows
                ),
                key=repr,
            )
            added = {
                relation: set(rows) for relation, rows in additions.items()
            }
            retracted = {}
            for pick in picks:
                if not pool:
                    break
                relation, fact = pool[pick % len(pool)]
                if fact in added.get(relation, ()):
                    continue  # keep batches unambiguous: no add+retract
                retracted.setdefault(relation, set()).add(fact)
            engine.apply_changes(additions=added, retractions=retracted)
            for relation, rows in added.items():
                edb[relation] |= rows
            for relation, rows in retracted.items():
                edb[relation] -= rows
        cold_db, cold = _semi_naive(
            rules,
            {relation: sorted(rows, key=repr) for relation, rows in edb.items()},
            track=track,
        )
        return database, engine, cold_db, cold

    @given(_program_with_changes())
    @settings(max_examples=40, deadline=None)
    def test_compiled_repair_matches_cold_fixpoint(self, program):
        database, _, cold_db, _ = self._run(program)
        assert _snapshot(database) == _snapshot(cold_db)

    @given(_program_with_changes())
    @settings(max_examples=25, deadline=None)
    def test_repair_preserves_provenance_coverage(self, program):
        """After repair the warm engine explains exactly the facts a cold
        tracking engine derives — nothing stale, nothing missing."""
        database, engine, cold_db, cold = self._run(program, track=True)
        assert set(engine.provenance) == set(cold.provenance)
        derived = {
            (relation, fact)
            for relation in IDB_ARITY
            for fact in cold_db.facts(relation)
        }
        assert set(engine.provenance) == derived
