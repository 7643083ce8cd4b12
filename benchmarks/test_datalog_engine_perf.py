"""Engine performance: legacy interpreter vs compiled plans vs columnar.

The paper's whole-chain run (§6.3) rests on Soufflé *compiling* the rules;
this benchmark pins the equivalent claims for our engine tiers: on the
Fig. 3/4 rule set the planned/interned evaluator must be at least 2x
faster than the legacy closure-recursion interpreter, and on the bytecode
taint stage (the whole-corpus merged database, where batch joins have
enough rows to amortize) the columnar executor must be at least 1.5x
faster than the compiled engine — all while producing byte-identical
fixpoints, and on the bytecode corpus byte-identical warnings per
contract.  An incremental scenario additionally measures DRed repair
(append facts to an evaluated database) against a cold re-evaluation.
Results are also written to ``BENCH_datalog.json`` (path overridable via
the ``BENCH_DATALOG_JSON`` env var) so CI tracks the perf trajectory from
artifact to artifact.
"""

from __future__ import annotations

import json
import os
import random
import time
from typing import Dict, List

import pytest

from benchmarks.conftest import print_table
from repro import api
from repro.core.analysis import AnalysisConfig
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
from repro.core.pipeline import ArtifactCache
from repro.corpus import generate_corpus
from repro.datalog import Engine
from repro.datalog.parser import parse_program

MIN_SPEEDUP = 2.0
# Columnar vs compiled on the merged bytecode taint database: batch joins
# need enough rows per relation to amortize column materialization, which
# the per-contract fixpoints (a few hundred EDB rows) do not provide —
# the whole-corpus merged database (~30k rows) is the §6-scale shape.
MIN_COLUMNAR_SPEEDUP = 1.5
# Warm DRed repair of a small append vs re-evaluating the merged database
# from scratch (measured ~250x; pinned far below to absorb CI noise).
MIN_REPAIR_SPEEDUP = 5.0
# Program sizes where join work dominates engine setup: below ~200
# instructions per program the fixpoints are tiny and per-evaluation
# planning overhead flattens the comparison to ~1x.
ABSTRACT_PROGRAMS = 12
ABSTRACT_SIZE = (300, 900)
BYTECODE_CONTRACTS = 60

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


def _run_abstract(programs, rules, use_plans, columnar=None):
    """Evaluate the Fig. 3/4 rules over every program; returns (seconds,
    per-program fixpoints, derived facts, iterations).  Timing covers
    engine construction + evaluation (planning included), not EDB setup."""
    elapsed = 0.0
    fixpoints = []
    derived = 0
    iterations = 0
    for program in programs:
        database = facts_from_program(program)
        start = time.perf_counter()
        engine = Engine(rules, use_plans=use_plans, columnar=columnar)
        engine.evaluate(database)
        elapsed += time.perf_counter() - start
        fixpoints.append(
            {
                relation: database.facts(relation)
                for relation in sorted(database.relations())
            }
        )
        derived += engine.stats.derived_facts
        iterations += engine.stats.iterations
    return elapsed, fixpoints, derived, iterations


class TestCompiledEnginePerf:
    def test_fig34_rules_speedup_and_equivalence(self):
        programs = _abstract_corpus()
        rules = parse_program(ETHAINTER_RULES).rules
        legacy_s, legacy_fix, _, _ = _run_abstract(programs, rules, False)
        compiled_s, compiled_fix, derived, iters = _run_abstract(
            programs, rules, True
        )
        columnar_s, columnar_fix, _, _ = _run_abstract(
            programs, rules, True, columnar=True
        )
        assert legacy_fix == compiled_fix  # exact fixpoint equivalence
        assert columnar_fix == compiled_fix
        speedup = legacy_s / compiled_s
        _RESULTS["abstract_corpus"] = {
            "programs": len(programs),
            "rule_set": "ETHAINTER_RULES (Fig. 3/4)",
            "legacy_seconds": round(legacy_s, 4),
            "compiled_seconds": round(compiled_s, 4),
            "columnar_seconds": round(columnar_s, 4),
            "speedup": round(speedup, 2),
            "columnar_speedup": round(compiled_s / columnar_s, 2),
            "derived_facts": derived,
            "derivations_per_sec": int(derived / compiled_s),
            "iterations": iters,
        }
        print_table(
            "Datalog engine: Fig. 3/4 rules, %d abstract programs"
            % len(programs),
            ["engine", "seconds", "derivations/s"],
            [
                ["legacy", "%.3f" % legacy_s, int(derived / legacy_s)],
                ["compiled", "%.3f" % compiled_s, int(derived / compiled_s)],
                ["columnar", "%.3f" % columnar_s, int(derived / columnar_s)],
                ["compiled speedup", "%.2fx" % speedup, ""],
            ],
        )
        assert speedup >= MIN_SPEEDUP, (
            "compiled plans only %.2fx faster than the legacy engine"
            % speedup
        )

    def test_bytecode_corpus_identical_warnings(self):
        contracts = generate_corpus(BYTECODE_CONTRACTS, seed=2020)
        cache = ArtifactCache(max_entries=32 * BYTECODE_CONTRACTS)

        def sweep(engine_name):
            taint_seconds = 0.0
            warning_blobs = []
            derived = 0
            iterations = 0
            for contract in contracts:
                result = api.analyze(
                    contract.runtime,
                    AnalysisConfig(engine=engine_name),
                    cache=cache,
                )
                taint_seconds += result.stage_seconds().get("taint", 0.0)
                warning_blobs.append(
                    json.dumps(
                        [
                            {
                                "kind": w.kind,
                                "pc": w.pc,
                                "statement": w.statement,
                                "slot": w.slot,
                                "detail": w.detail,
                            }
                            for w in result.warnings
                        ],
                        sort_keys=True,
                    )
                )
                stats = result.datalog_stats or {}
                derived += stats.get("derived_facts", 0)
                iterations += stats.get("iterations", 0)
            return taint_seconds, warning_blobs, derived, iterations

        legacy_s, legacy_warnings, _, _ = sweep("datalog-legacy")
        compiled_s, compiled_warnings, derived, iters = sweep("datalog")
        columnar_s, columnar_warnings, _, _ = sweep("datalog-columnar")
        assert compiled_warnings == legacy_warnings  # byte-identical
        assert columnar_warnings == compiled_warnings
        speedup = legacy_s / compiled_s if compiled_s else float("inf")
        _RESULTS["bytecode_corpus"] = {
            "contracts": len(contracts),
            "rule_set": "CORE+WRITE2 (Fig. 5)",
            "legacy_taint_seconds": round(legacy_s, 4),
            "compiled_taint_seconds": round(compiled_s, 4),
            "columnar_taint_seconds": round(columnar_s, 4),
            "speedup": round(speedup, 2),
            "derived_facts": derived,
            "derivations_per_sec": int(derived / compiled_s) if compiled_s else 0,
            "iterations": iters,
            "warnings_identical": True,
        }
        print_table(
            "Datalog engine: bytecode corpus, %d contracts" % len(contracts),
            ["engine", "taint seconds"],
            [
                ["legacy", "%.3f" % legacy_s],
                ["compiled", "%.3f" % compiled_s],
                ["columnar", "%.3f" % columnar_s],
                ["compiled speedup", "%.2fx" % speedup],
            ],
        )


# ---------------------------------------------- merged whole-corpus stage


def _merged_corpus_edb():
    """The bytecode taint stage at §6 scale: every corpus contract's EDB
    merged into one database, idents namespaced per contract so the merge
    is a disjoint union (per-contract fixpoints, one evaluation)."""
    from repro.core.bytecode_datalog import _facts_to_edb
    from repro.core.facts import extract_facts
    from repro.core.guards import build_guard_model
    from repro.core.storage_model import build_storage_model
    from repro.core.taint import TaintOptions
    from repro.decompiler import lift

    options = TaintOptions()
    merged: List[Dict] = []
    for position, contract in enumerate(generate_corpus(BYTECODE_CONTRACTS, seed=2020)):
        facts = extract_facts(lift(contract.runtime))
        storage = build_storage_model(facts)
        guards = build_guard_model(facts, storage)
        edb = _facts_to_edb(facts, storage, guards, options)
        tag = "c%d" % position
        merged.append(
            {
                relation: {
                    tuple(
                        "%s/%s" % (tag, value)
                        if isinstance(value, str)
                        else "%s#%d" % (tag, value)
                        for value in fact
                    )
                    for fact in rows
                }
                for relation, rows in edb.items()
            }
        )
    return merged


def _load_merged(edbs, extra=None):
    from repro.datalog import Database

    database = Database()
    for edb in edbs:
        for relation, rows in edb.items():
            database.add_all(relation, rows)
    if extra:
        for relation, rows in extra.items():
            database.add_all(relation, rows)
    return database


def _taint_rules():
    """The default bytecode taint ruleset, as the shared compiled program
    every ``engine="datalog"`` analysis evaluates."""
    from repro.core.bytecode_datalog import _rules
    from repro.core.taint import TaintOptions

    return _rules(TaintOptions())


class TestColumnarEnginePerf:
    def test_merged_taint_stage_columnar_speedup(self):
        """Columnar vs compiled on the whole-corpus taint database:
        byte-identical fixpoints, >= MIN_COLUMNAR_SPEEDUP pinned."""
        merged = _merged_corpus_edb()
        rules = _taint_rules()

        def run(columnar):
            best = float("inf")
            snapshot = None
            derived = 0
            for _ in range(3):
                database = _load_merged(merged)
                start = time.perf_counter()
                engine = Engine(rules, columnar=columnar)
                engine.evaluate(database)
                best = min(best, time.perf_counter() - start)
                snapshot = {
                    relation: database.facts(relation)
                    for relation in sorted(database.relations())
                }
                derived = engine.stats.derived_facts
            return best, snapshot, derived

        compiled_s, compiled_fix, derived = run(False)
        columnar_s, columnar_fix, _ = run(True)
        assert columnar_fix == compiled_fix  # byte-identical fixpoints
        speedup = compiled_s / columnar_s
        rows = sum(len(rows) for edb in merged for rows in edb.values())
        _RESULTS["bytecode_taint_merged"] = {
            "contracts": BYTECODE_CONTRACTS,
            "edb_rows": rows,
            "rule_set": "CORE+WRITE2 (Fig. 5)",
            "compiled_seconds": round(compiled_s, 4),
            "columnar_seconds": round(columnar_s, 4),
            "columnar_speedup": round(speedup, 2),
            "derived_facts": derived,
            "fixpoints_identical": True,
        }
        print_table(
            "Datalog engine: merged taint stage, %d contracts / %d EDB rows"
            % (BYTECODE_CONTRACTS, rows),
            ["engine", "seconds"],
            [
                ["compiled", "%.3f" % compiled_s],
                ["columnar", "%.3f" % columnar_s],
                ["speedup", "%.2fx" % speedup],
            ],
        )
        assert speedup >= MIN_COLUMNAR_SPEEDUP, (
            "columnar executor only %.2fx faster than compiled plans on "
            "the merged taint stage" % speedup
        )

    def test_incremental_repair_vs_cold(self):
        """Append facts to an evaluated database: DRed repair must match
        the cold fixpoint and beat re-evaluation once plans are warm."""
        merged = _merged_corpus_edb()
        rules = _taint_rules()
        statement = sorted(merged[0]["Stmt"])[0][0]
        flows = sorted(merged[0]["Infoflow"])[:8]
        additions = {
            "Infoflow": {
                ("c0/bench-src%d" % k, destination, stmt)
                for k, (_, destination, stmt) in enumerate(flows)
            },
            "CALLDATALOAD": {(statement, "c0/bench-src0")},
        }

        database = _load_merged(merged)
        engine = Engine(rules, columnar=True)
        engine.evaluate(database)
        start = time.perf_counter()
        engine.apply_changes(additions=additions)
        first_repair = time.perf_counter() - start

        # Second append exercises the warm path (incremental plans built).
        second = {
            "Infoflow": {("c1/bench-x", "c1/bench-y", sorted(merged[1]["Stmt"])[0][0])}
        }
        start = time.perf_counter()
        engine.apply_changes(additions=second)
        warm_repair = time.perf_counter() - start

        cold_db = _load_merged(merged, extra=additions)
        for relation, rows in second.items():
            cold_db.add_all(relation, rows)
        cold_engine = Engine(rules, columnar=True)
        start = time.perf_counter()
        cold_engine.evaluate(cold_db)
        cold_seconds = time.perf_counter() - start

        relations = set(database.relations()) | set(cold_db.relations())
        assert all(
            database.facts(relation) == cold_db.facts(relation)
            for relation in relations
        )  # repaired fixpoint == cold fixpoint
        warm_speedup = cold_seconds / warm_repair if warm_repair else float("inf")
        _RESULTS["incremental_repair"] = {
            "contracts": BYTECODE_CONTRACTS,
            "appended_facts": sum(len(rows) for rows in additions.values())
            + sum(len(rows) for rows in second.values()),
            "first_repair_seconds": round(first_repair, 4),
            "warm_repair_seconds": round(warm_repair, 4),
            "cold_seconds": round(cold_seconds, 4),
            "warm_repair_speedup": round(warm_speedup, 2),
            "fixpoints_identical": True,
        }
        print_table(
            "Datalog engine: DRed repair vs cold fixpoint (%d contracts)"
            % BYTECODE_CONTRACTS,
            ["scenario", "seconds"],
            [
                ["cold evaluate", "%.3f" % cold_seconds],
                ["first repair (plan compile)", "%.3f" % first_repair],
                ["warm repair", "%.4f" % warm_repair],
                ["warm speedup", "%.1fx" % warm_speedup],
            ],
        )
        assert warm_speedup >= MIN_REPAIR_SPEEDUP, (
            "warm DRed repair only %.2fx faster than a cold fixpoint"
            % warm_speedup
        )
