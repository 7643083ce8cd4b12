"""A Datalog engine with semi-naive evaluation and stratified negation.

Stands in for the Soufflé engine (Jordan et al., CAV'16) that executes the
Ethainter rules in the paper.  Supports:

* mutually recursive rules evaluated semi-naively (delta relations),
* stratified negation (negative dependencies may not occur inside a
  recursive component — checked at stratification time),
* compiled join plans (:mod:`repro.datalog.planner`): literals reordered
  by a sideways-information-passing heuristic, constants and facts
  interned to dense ints, indexes registered eagerly, per-rule
  :class:`~repro.datalog.planner.EngineStats` profiling,
* compile-once programs (:class:`CompiledProgram`): a ruleset is
  stratified and planned once, its plan templates cached by the ranks of
  the relation sizes they depend on, and shared by every evaluation,
* one way to reach a fixpoint: :meth:`Engine.evaluate` computes each one
  from scratch, as the paper's per-contract Soufflé runs do (an evaluated
  fixpoint is never repaired in place),
* wildcard ``_`` arguments, constants, and Python filter predicates,
* a textual parser for a Soufflé-like surface syntax (``:-``, ``!``, ``.``)
  with parse-time arity checking,
* a program linter (:mod:`repro.datalog.lint`) covering range restriction,
  negation safety, arity consistency, unused relations, and a
  stratification preview.

The engine is deliberately generic: the Ethainter core rules
(:mod:`repro.core.datalog_rules`) and the abstract-language formalism both
run on it, and its fixpoints are cross-checked against hand-written
fixpoint code and a naive reference evaluator in the test suite.
"""

from repro.datalog.terms import Atom, Literal, Rule, Variable, var
from repro.datalog.engine import Database, Engine
from repro.datalog.planner import EngineStats, PlanningError
from repro.datalog.program import CompiledProgram, StratificationError
from repro.datalog.parser import (
    DatalogSyntaxError,
    parse_program,
    parse_program_lenient,
    parse_rule,
)

__all__ = [
    "Variable",
    "var",
    "Atom",
    "Literal",
    "Rule",
    "CompiledProgram",
    "Database",
    "Engine",
    "EngineStats",
    "PlanningError",
    "StratificationError",
    "DatalogSyntaxError",
    "parse_program",
    "parse_program_lenient",
    "parse_rule",
]
