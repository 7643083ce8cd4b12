"""Naive bottom-up Datalog evaluation: the test oracle for the engine.

Nested-loop joins built from :func:`repro.datalog.terms.match` and
:func:`~repro.datalog.terms.substitute`: positive body literals join in
source order, then filters and negated literals prune the finished
bindings (range restriction guarantees they bind every variable a guard
reads).  Strata come from :func:`repro.datalog.program.stratify`, and
each stratum re-runs every rule in full until a round derives nothing
new.  No plans, indexes or deltas, so nothing here shares code with the
engine's executor beyond the database and the stratifier.
"""

from __future__ import annotations

from typing import Iterable, Set, Tuple

from repro.datalog import Database, Rule
from repro.datalog.program import stratify
from repro.datalog.terms import Filter, Literal, Variable, match, substitute


def derive(rule: Rule, database: Database) -> Set[Tuple]:
    """Every head fact one application of ``rule`` yields over
    ``database``."""
    bindings = [{}]
    guards = []
    for item in rule.body:
        if isinstance(item, Literal) and not item.negated:
            facts = database.facts(item.atom.relation)
            bindings = [
                extended
                for binding in bindings
                for fact in facts
                for extended in (match(item.atom.args, fact, binding),)
                if extended is not None
            ]
        else:
            guards.append(item)
    for guard in guards:
        if isinstance(guard, Filter):
            bindings = [
                binding
                for binding in bindings
                if guard.predicate(
                    *[
                        binding[arg] if isinstance(arg, Variable) else arg
                        for arg in guard.args
                    ]
                )
            ]
        else:
            bindings = [
                binding
                for binding in bindings
                if not database.contains(
                    guard.atom.relation, substitute(guard.atom, binding)
                )
            ]
    return {substitute(rule.head, binding) for binding in bindings}


def evaluate(rules: Iterable[Rule], database: Database) -> Database:
    """Run ``rules`` to fixpoint over ``database`` (mutated and returned),
    stratum by stratum, naively."""
    for stratum in stratify(list(rules)):
        changed = True
        while changed:
            changed = False
            for rule in stratum:
                for fact in derive(rule, database):
                    if database.add(rule.head.relation, fact):
                        changed = True
    return database
