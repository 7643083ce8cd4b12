"""Engine performance: the compiled engine on the Fig. 3/4 rules.

The paper's whole-chain run (§6.3) rests on Soufflé *compiling* the rules.
On the Fig. 3/4 rule set this benchmark times the compiled engine over a
corpus of large abstract programs and checks every fixpoint against the
naive reference evaluator (``tests/datalog_reference.py``).
Compiled-plan regressions in the per-contract taint stage are the
e2ebench analyze-datalog workload's to catch.  Results are also written to
``BENCH_datalog.json`` (path overridable via the ``BENCH_DATALOG_JSON``
env var) so CI tracks the perf trajectory from artifact to artifact.
"""

from __future__ import annotations

import json
import os
import random
import time
from typing import Dict, List

import pytest

from benchmarks.conftest import print_table
from repro.core.datalog_rules import ETHAINTER_RULES, facts_from_program
from repro.core.lang import (
    AbstractProgram,
    Const,
    Guard,
    Hash,
    Input,
    Op,
    SLoad,
    SStore,
    Sink,
)
from repro.datalog import CompiledProgram, Engine
from repro.datalog.parser import parse_program
from tests import datalog_reference

# Program sizes where join work dominates engine setup (below ~200
# instructions per program the fixpoints are tiny).
ABSTRACT_PROGRAMS = 12
ABSTRACT_SIZE = (300, 900)

_RESULTS: Dict[str, Dict] = {}


@pytest.fixture(scope="module", autouse=True)
def _write_report():
    """Write ``BENCH_datalog.json`` after the module's benchmarks ran (even
    partially — a failed assertion still leaves the measured numbers)."""
    yield
    path = os.environ.get("BENCH_DATALOG_JSON", "BENCH_datalog.json")
    with open(path, "w") as handle:
        json.dump(_RESULTS, handle, indent=2, sort_keys=True)
    print("\ndatalog engine benchmark written to %s" % path)


# ------------------------------------------------- deterministic corpora


def _random_program(rng: random.Random, size: int) -> AbstractProgram:
    """A random abstract-language program (the tests' generator shape, but
    deterministic and larger so join work dominates engine setup)."""
    variables = ["v%d" % i for i in range(10)]
    slots = list(range(5))
    instructions = []
    for _ in range(size):
        kind = rng.randrange(8)
        x = rng.choice(variables)
        y = rng.choice(variables + ["sender"])
        z = rng.choice(variables + ["sender"])
        if kind == 0:
            instructions.append(Input(x=x))
        elif kind == 1:
            instructions.append(Const(x=x, value=rng.choice(slots)))
        elif kind == 2:
            instructions.append(Op(x=x, y=y, z=z, op=rng.choice(["OP", "EQ"])))
        elif kind == 3:
            instructions.append(Op(x=x, y=y, z=None))
        elif kind == 4:
            instructions.append(Hash(x=x, y=y))
        elif kind == 5:
            instructions.append(Guard(x=x, p=y, y=z))
        elif kind == 6:
            if rng.random() < 0.5:
                instructions.append(SStore(f=y, t=z))
            else:
                instructions.append(SLoad(f=y, t=x))
        else:
            instructions.append(Sink(x=y))
    return AbstractProgram(instructions=instructions)


def _abstract_corpus() -> List[AbstractProgram]:
    rng = random.Random(2020)
    return [
        _random_program(rng, rng.randint(*ABSTRACT_SIZE))
        for _ in range(ABSTRACT_PROGRAMS)
    ]


def _fixpoint(database) -> Dict[str, frozenset]:
    return {
        relation: database.facts(relation)
        for relation in sorted(database.relations())
    }


class TestCompiledEnginePerf:
    def test_fig34_rules_match_reference(self):
        """The compiled engine over every abstract program: one
        :class:`CompiledProgram` serves them all, and only evaluation is
        timed (not EDB setup or stratification, which is timed on its own),
        each fixpoint checked against the naive reference evaluator."""
        programs = _abstract_corpus()
        rules = parse_program(ETHAINTER_RULES).rules
        start = time.perf_counter()
        compiled = CompiledProgram(rules)
        compile_seconds = time.perf_counter() - start
        elapsed = 0.0
        derived = 0
        iterations = 0
        for program in programs:
            database = facts_from_program(program)
            engine = Engine(compiled)
            start = time.perf_counter()
            engine.evaluate(database)
            elapsed += time.perf_counter() - start
            reference = datalog_reference.evaluate(
                rules, facts_from_program(program)
            )
            assert _fixpoint(database) == _fixpoint(reference)
            derived += engine.stats.derived_facts
            iterations += engine.stats.iterations
        _RESULTS["abstract_corpus"] = {
            "programs": len(programs),
            "rule_set": "ETHAINTER_RULES (Fig. 3/4)",
            "compiled_seconds": round(elapsed, 4),
            "compile_seconds": round(compile_seconds, 6),
            "derived_facts": derived,
            "derivations_per_sec": int(derived / elapsed),
            "iterations": iterations,
            "fixpoints_match_reference": True,
        }
        print_table(
            "Datalog engine: Fig. 3/4 rules, %d abstract programs"
            % len(programs),
            ["engine", "seconds", "derivations/s"],
            [["compiled", "%.3f" % elapsed, int(derived / elapsed)]],
        )
