"""Randomized equivalence: the engine's semi-naive evaluation over
compiled plans must reach the fixpoint of the naive reference evaluator
(``tests/datalog_reference.py``) on generated stratified programs, with
and without provenance tracking, and record a first derivation for
exactly the derived facts; one compiled program evaluated over many
databases must match a fresh engine per database; and a Fig. 8 battery
row's Datalog counters must equal those of a sweep under its
configuration alone."""

import dataclasses
import random

from hypothesis import given, settings, strategies as st

from repro import api
from repro.corpus import generate_corpus
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
        themselves, for every database."""
        rules, databases = drawn
        program = CompiledProgram(rules)
        for facts, seed in databases:
            database = _load_shuffled(facts, seed)
            cached = program.plans(database.count)
            for level, stratum in enumerate(program.strata):
                heads = program.stratum_heads[level]
                for position, rule in enumerate(stratum):
                    direct = compile_rule(rule, heads, database.count)
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


class TestBatteryCounters:
    def test_battery_row_counters_equal_a_sweep_alone(self):
        """Every analysis evaluates its fixpoint from scratch, so a battery
        row's Datalog counters and warnings do not depend on the
        configuration that ran before it in the same process: the second
        configuration's summary equals a sweep under that configuration
        alone, contract for contract."""
        codes = [contract.runtime for contract in generate_corpus(40, seed=2020)]
        datalog = api.AnalysisConfig(engine="datalog")
        unguarded = dataclasses.replace(datalog, model_guards=False)
        _, in_battery = api.battery(codes, [datalog, unguarded], jobs=1)
        alone = api.sweep(codes, unguarded, jobs=1)
        assert len(in_battery.entries) == len(alone.entries) == len(codes)
        for ours, theirs in zip(in_battery.entries, alone.entries):
            assert ours.datalog and ours.datalog == theirs.datalog
            assert ours.warnings == theirs.warnings
