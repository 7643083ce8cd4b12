"""The Datalog engine's answers, pinned by digest.

For every input, :func:`canonical_run` renders what one evaluation
produces: each relation's fixpoint, :meth:`EngineStats.as_dict` (per-rule
maps included) and the provenance map (the rule and body facts of each
derived fact's *first* derivation).  Each input runs twice, once without
and once with provenance tracking.

``GOLDEN_DIGEST`` is a sha256 over those renderings for a fixed input set:

* ``generate_corpus(60, seed=2020)``, each contract's taint EDB evaluated
  on the default ruleset and on the reentrancy ruleset;
* the §4 rules (Fig. 3/4) over the abstract programs of
  ``benchmarks/test_datalog_engine_perf.py``;
* edge programs: facts-only rules, constant-only heads, negations and
  filters that run before any join step, filters and negations after one,
  repeated variables, wildcards, and recursion through two delta
  positions.

It was recorded from the engine as it stood before its join code was
generated, when it interpreted its plans.  Provenance keeps the first
derivation, so the digest also pins the order in which the executor
visits candidates.  Every database is loaded in a canonical order, which
makes the interned ids, and so that order, independent of string hashing.
A change to the rules, the corpus or the fact extraction changes the
inputs and may regenerate the digest; a change to the engine must not.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from benchmarks.test_datalog_engine_perf import _abstract_corpus
from repro.core.bytecode_datalog import _facts_to_edb, ruleset_key, ruleset_program
from repro.core.datalog_rules import ETHAINTER_RULES, facts_from_program
from repro.core.facts import extract_facts
from repro.core.guards import build_guard_model
from repro.core.ordering import build_call_order_model
from repro.core.storage_model import build_storage_model
from repro.core.taint import TaintOptions
from repro.corpus import generate_corpus
from repro.datalog import Atom, Database, Engine, Literal, Rule, parse_program, var
from repro.datalog.terms import Filter
from repro.decompiler import lift

GOLDEN_DIGEST = "a16918e0e25d4e3c7c5babcba2a977007078c827387abee6f730cf8428925245"


def canonical_database(relations) -> Database:
    """A database holding ``relations`` (name -> facts), loaded relation by
    relation and fact by fact in sorted order."""
    database = Database()
    for relation in sorted(relations):
        for fact in sorted(relations[relation], key=repr):
            database.add(relation, fact)
    return database


def canonical_run(program, relations, track: bool) -> list:
    """Fixpoint, counters and provenance of one evaluation, as plain
    JSON-ready lists."""
    database = canonical_database(relations)
    engine = Engine(program, track_provenance=track)
    engine.evaluate(database)
    fixpoint = [
        [relation, sorted(repr(fact) for fact in database.facts(relation))]
        for relation in sorted(database.relations())
    ]
    provenance = sorted(
        repr((key, repr(rule), support))
        for key, (rule, support) in engine.provenance.items()
    )
    return [fixpoint, engine.stats.as_dict(), provenance]


def _relations(database: Database) -> dict:
    return {
        relation: database.facts(relation) for relation in database.relations()
    }


def corpus_inputs() -> list:
    """``(program, relations)`` per corpus contract and ruleset."""
    options = TaintOptions()
    default = ruleset_program(ruleset_key(options))
    reentrancy = ruleset_program(ruleset_key(options, reentrancy=True))
    inputs = []
    for contract in generate_corpus(60, seed=2020):
        facts = extract_facts(lift(contract.runtime))
        storage = build_storage_model(facts)
        guards = build_guard_model(facts, storage)
        ordering = build_call_order_model(facts, storage, guards)
        edb = _facts_to_edb(facts, storage, guards, options, ordering=ordering)
        inputs.append((default, edb))
        inputs.append((reentrancy, edb))
    return inputs


def abstract_inputs() -> list:
    """``(rules, relations)`` for the §4 rules per abstract program."""
    rules = parse_program(ETHAINTER_RULES).rules
    return [
        (rules, _relations(facts_from_program(program)))
        for program in _abstract_corpus()
    ]


def _above(limit):
    return lambda value: isinstance(value, int) and value > limit


def _differ(left, right):
    return left != right


def edge_inputs() -> list:
    """Small programs that reach each executor path on purpose."""
    x, y, z = var("x y z")
    edges = {"E": {("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "d")}}
    numbers = {"N": {(value,) for value in range(6)}, "M": {(2,), (4,), (9,)}}
    inputs = []

    # Facts-only rules, a rule reading them, and a constant-only head.
    inputs.append((parse_program(
        'Seed("a", 1). Seed("b", 2). Seed("b", 2).\n'
        'Pair(x, y) :- Seed(x, n), Seed(y, n).\n'
        'Any("yes") :- Seed(_, _).\n'
        'Twice("t", 7) :- Pair(x, x), Any("yes").'
    ).rules, {}))

    # Negations and filters that run before any join step (every variable
    # they read is a constant), on both outcomes.
    prelude = [
        Rule(Atom("Open", x), [Literal(Atom("Blocked", "gate"), negated=True),
                               Literal(Atom("N", x))]),
        Rule(Atom("Shut", x), [Literal(Atom("Blocked", "door"), negated=True),
                               Literal(Atom("N", x))]),
        Rule(Atom("Lit", x), [Filter(_above(3), 5, name="above3"),
                              Literal(Atom("M", x))]),
        Rule(Atom("Dark", x), [Filter(_above(3), 1, name="above3"),
                               Literal(Atom("M", x))]),
        Rule(Atom("Const", "k"), [Filter(_above(0), 1, name="above0")]),
    ]
    inputs.append((prelude, {**numbers, "Blocked": {("door",)}}))

    # Filters and negations after a join step, a repeated variable, a
    # wildcard, and recursion through two delta positions with a
    # constant-keyed recursive literal.
    rules = [
        Rule(Atom("Big", x), [Literal(Atom("N", x)),
                              Filter(_above(2), x, name="above2")]),
        Rule(Atom("Odd", x), [Literal(Atom("N", x)),
                              Literal(Atom("M", x), negated=True)]),
        Rule(Atom("Loop", x), [Literal(Atom("E", x, x))]),
        Rule(Atom("HasOut", x), [Literal(Atom("E", x, var("_")[0]))]),
        Rule(Atom("T", x, y), [Literal(Atom("E", x, y))]),
        Rule(Atom("T", x, z), [Literal(Atom("T", x, y)), Literal(Atom("T", y, z)),
                               Filter(_differ, x, z, name="differ")]),
        Rule(Atom("Reach", "a", y), [Literal(Atom("E", "a", y))]),
        Rule(Atom("Reach", "a", z), [Literal(Atom("Reach", "a", y)),
                                     Literal(Atom("E", y, z)),
                                     Literal(Atom("Loop", z), negated=True)]),
        Rule(Atom("Cut", x), [Literal(Atom("Big", x)), Literal(Atom("Odd", x)),
                              Literal(Atom("Big", y)),
                              Filter(_differ, x, y, name="differ")]),
    ]
    inputs.append((rules, {**edges, **numbers}))

    # The hand-counted programs of tests/test_datalog_planner.py.
    inputs.append((parse_program(
        "Path(x, y) :- Edge(x, y).\nPath(x, z) :- Path(x, y), Edge(y, z)."
    ).rules, {"Edge": {("a", "b"), ("b", "c"), ("c", "d")}}))
    inputs.append((parse_program(
        'Owns("attacker", x) :- Grant(x).\n'
        'Owns("attacker", y) :- Owns("attacker", x), Edge(x, y).\n'
        'Safe(x) :- Node(x), !Owns("attacker", x).'
    ).rules, {
        "Edge": {("a", "b"), ("b", "c"), ("x", "y")},
        "Grant": {("a",)},
        "Node": {(node,) for node in "abcxy"},
    }))
    return inputs


def golden_digest(inputs) -> str:
    sha = hashlib.sha256()
    for program, relations in inputs:
        for track in (False, True):
            rendering = canonical_run(program, relations, track)
            sha.update(json.dumps(rendering, sort_keys=True).encode())
            sha.update(b"\n")
    return sha.hexdigest()


@pytest.fixture(scope="module")
def all_inputs():
    return edge_inputs() + abstract_inputs() + corpus_inputs()


def test_golden_digest(all_inputs):
    assert golden_digest(all_inputs) == GOLDEN_DIGEST


def test_edge_programs_reach_each_path():
    """The edge programs derive what they were written to derive, so the
    digest pins live paths, not empty relations."""
    (facts_only, f_rel), (prelude, p_rel), (rules, r_rel) = edge_inputs()[:3]
    database = canonical_database(f_rel)
    Engine(facts_only).evaluate(database)
    assert database.facts("Twice") == {("t", 7)}
    assert database.facts("Any") == {("yes",)}
    database = canonical_database(p_rel)
    Engine(prelude).evaluate(database)
    assert database.count("Open") == 6 and database.count("Shut") == 0
    assert database.count("Lit") == 3 and database.count("Dark") == 0
    assert database.facts("Const") == {("k",)}
    database = canonical_database(r_rel)
    Engine(rules).evaluate(database)
    assert database.facts("Loop") == {("d",)}
    assert database.facts("Cut") == {(3,), (5,)}
    assert ("a", "a") not in database.facts("T")
    assert database.facts("Reach") == {("a", "b"), ("a", "c"), ("a", "a")}
