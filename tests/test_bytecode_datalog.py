"""Declarative (Datalog) bytecode analysis vs the Python fixpoint.

The paper implements Ethainter as Datalog rules on Soufflé; this repository
keeps both a declarative specification (:mod:`repro.core.bytecode_datalog`)
and an imperative fast path (:mod:`repro.core.taint`).  These tests pin
them together: identical relations on canonical contracts, on a corpus
sample, and under every ablation configuration.
"""

import contextlib
import gc
import time
from types import SimpleNamespace

import pytest

from repro.core.analysis import AnalysisConfig
from repro.core.bytecode_datalog import (
    _facts_to_edb,
    _load_edb,
    _rules,
    analyze_with_datalog,
)
from repro.core.facts import extract_facts
from repro.core.guards import build_guard_model
from repro.core.linkage import analyze_bundle
from repro.core.pipeline import PipelineContext, _run_facts
from repro.core.storage_model import build_storage_model
from repro.core.taint import TaintAnalysis, TaintOptions
from repro.corpus import generate_corpus
from repro.corpus.bundles import proxy_pair
from repro.datalog import Engine
from repro.deadline import Deadline, DeadlineExceeded
from repro.decompiler import lift
from repro.ir.value_analysis import analyze_values

COMPARED_FIELDS = (
    "input_tainted",
    "storage_tainted",
    "tainted_slots",
    "reachable",
    "compromised_guards",
    "writable_mappings",
)

CONFIGS = [
    TaintOptions(),
    TaintOptions(model_guards=False),
    TaintOptions(model_storage_taint=False),
    TaintOptions(conservative_storage=True),
]


def both_results(runtime, options):
    facts = extract_facts(lift(runtime))
    storage = build_storage_model(facts)
    guards = build_guard_model(facts, storage)
    python_result = TaintAnalysis(facts, storage, guards, options).run()
    datalog_result = analyze_with_datalog(
        facts=facts, storage=storage, guards=guards, options=options
    )
    return python_result, datalog_result


def assert_equivalent(runtime, options):
    python_result, datalog_result = both_results(runtime, options)
    for field in COMPARED_FIELDS:
        assert getattr(python_result, field) == getattr(datalog_result, field), field


class TestCanonicalContracts:
    def test_victim_all_configs(self, victim_contract):
        for options in CONFIGS:
            assert_equivalent(victim_contract.runtime, options)

    def test_safe_all_configs(self, safe_contract):
        for options in CONFIGS:
            assert_equivalent(safe_contract.runtime, options)

    def test_tainted_owner(self, tainted_owner_contract):
        assert_equivalent(tainted_owner_contract.runtime, TaintOptions())

    def test_token(self, token_contract):
        for options in CONFIGS:
            assert_equivalent(token_contract.runtime, options)

    def test_storage_mediated_selfdestruct(self, tainted_sd_storage_contract):
        assert_equivalent(tainted_sd_storage_contract.runtime, TaintOptions())


class TestCorpusEquivalence:
    @pytest.mark.parametrize("seed", [3, 17])
    def test_corpus_sample_default_config(self, seed):
        for contract in generate_corpus(25, seed=seed):
            assert_equivalent(contract.runtime, TaintOptions())

    def test_corpus_sample_ablations(self):
        for contract in generate_corpus(12, seed=41):
            for options in CONFIGS[1:]:
                assert_equivalent(contract.runtime, options)


class TestDatalogEntryPoints:
    def test_from_raw_bytecode(self, victim_contract):
        result = analyze_with_datalog(victim_contract.runtime)
        assert result.writable_mappings == {0, 1}
        assert 2 in result.tainted_slots

    def test_requires_input(self):
        with pytest.raises(ValueError):
            analyze_with_datalog()

    def test_executor_parameters_accept_only_the_compiled_executor(
        self, victim_contract
    ):
        runtime = victim_contract.runtime
        baseline = analyze_with_datalog(runtime)
        for columnar in (None, False):
            result = analyze_with_datalog(
                runtime, use_plans=True, columnar=columnar
            )
            assert result.tainted_slots == baseline.tainted_slots
            assert result.engine_stats == baseline.engine_stats
        for bad in ({"use_plans": False}, {"columnar": True}):
            with pytest.raises(ValueError, match="compiled plans only"):
                analyze_with_datalog(runtime, **bad)

    def test_composite_reaches_fixpoint_in_datalog(self, victim_contract):
        """The escalation requires genuinely recursive evaluation: guards
        compromised by taint unlock reachability which creates taint."""
        result = analyze_with_datalog(victim_contract.runtime)
        python_result, _ = both_results(victim_contract.runtime, TaintOptions())
        assert result.compromised_guards == python_result.compromised_guards
        assert len(result.compromised_guards) == 4


def _memory_hop_chain(hops, words=None):
    """``CALLDATALOAD``, then ``hops`` ``PUSH2 a; MSTORE; PUSH2 a; MLOAD``
    round trips at distinct addresses (cycling over ``words`` memory words
    when given), then ``SELFDESTRUCT``: every hop's copy sources include
    every earlier hop, so the storage model's copy closure is quadratic
    (~8M source pairs at 2000 hops), and the taint fixpoint takes one
    semi-naive iteration per copy.  The chain has no mapping access, so no
    variable is mapping-confined."""
    code = bytearray(b"\x60\x04\x35")
    for hop in range(hops):
        address = (0x100 + 0x20 * (hop % (words or hops))).to_bytes(2, "big")
        code += b"\x61" + address + b"\x52\x61" + address + b"\x51"
    return bytes(code + b"\xff")


@pytest.fixture(scope="module")
def chain_facts():
    return extract_facts(lift(_memory_hop_chain(2000)))


@contextlib.contextmanager
def _without_collector():
    """Keep the cyclic collector out of a timed call: the chain's copy sets
    hold ~8M references, and one full collection over a test session's
    heap can take longer than the budgets pinned here."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class TestDeadlineBeforeFirstIteration:
    """The taint stage honors its budget while it builds and loads the EDB
    and seeds each stratum, not only between semi-naive iterations."""

    @pytest.fixture(scope="class")
    def chain_models(self, chain_facts):
        storage = build_storage_model(chain_facts)
        return chain_facts, storage, build_guard_model(chain_facts, storage)

    def test_large_edb_raises_within_budget(self, chain_models):
        facts, storage, guards = chain_models
        started = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            analyze_with_datalog(
                facts=facts, storage=storage, guards=guards, deadline=Deadline(0.05)
            )
        assert time.monotonic() - started < 0.5

    def test_spent_budget_stops_edb_load_and_seed_round(self):
        facts = extract_facts(lift(_memory_hop_chain(100)))
        storage = build_storage_model(facts)
        guards = build_guard_model(facts, storage)
        spent = Deadline(1e-9, started=0.0)
        with pytest.raises(DeadlineExceeded):
            _facts_to_edb(facts, storage, guards, TaintOptions(), deadline=spent)
        edb = _facts_to_edb(facts, storage, guards, TaintOptions())
        with pytest.raises(DeadlineExceeded):
            _load_edb(edb, spent)
        engine = Engine(_rules(TaintOptions()))
        with pytest.raises(DeadlineExceeded):
            engine.evaluate(_load_edb(edb), deadline=spent)
        assert engine.stats.iterations == 0

    def test_edb_build_skips_the_mapping_walk(self, chain_models):
        """No copy source is a mapping access, so the EDB build never walks
        the chain's ~8M (variable, copy source) pairs."""
        facts, storage, guards = chain_models
        assert not storage.mapping_accesses
        with _without_collector():
            edb = _facts_to_edb(
                facts, storage, guards, TaintOptions(), deadline=Deadline(0.3)
            )
        assert "MappingConfined" not in edb


class TestMappingConfined:
    def test_rows_are_the_variables_with_a_mapping_copy_source(self):
        confined_contracts = 0
        for contract in generate_corpus(30, seed=7):
            facts = extract_facts(lift(contract.runtime))
            storage = build_storage_model(facts)
            guards = build_guard_model(facts, storage)
            edb = _facts_to_edb(facts, storage, guards, TaintOptions())
            expected = {
                (variable,)
                for variable, sources in storage.copy_sources.items()
                if any(source in storage.mapping_accesses for source in sources)
            } | {(variable,) for variable in storage.mapping_accesses}
            assert edb.get("MappingConfined", set()) == expected
            confined_contracts += bool(expected)
        assert confined_contracts > 0


class TestStageDeadlines:
    """Every stage entry stops at a spent budget, and the facts and storage
    stages tick before their first full pass over a large lift."""

    @pytest.fixture(scope="class")
    def models(self):
        code = _memory_hop_chain(100)
        program = lift(code)
        facts = extract_facts(program)
        storage = build_storage_model(facts)
        guards = build_guard_model(facts, storage)
        edb = _facts_to_edb(facts, storage, guards, TaintOptions())
        return SimpleNamespace(
            code=code, program=program, facts=facts, storage=storage,
            guards=guards, edb=edb,
        )

    # Each stage entry, called on ``models`` under a ``spent`` budget.
    STAGES = {
        "lift": lambda m, spent: lift(m.code, deadline=spent),
        "extract_facts": lambda m, spent: extract_facts(m.program, deadline=spent),
        "_run_facts": lambda m, spent: _run_facts(
            PipelineContext(b"", AnalysisConfig(), spent, {"lift": m.program})
        ),
        "analyze_values": lambda m, spent: analyze_values(m.program, deadline=spent),
        "build_storage_model": lambda m, spent: build_storage_model(
            m.facts, deadline=spent
        ),
        "build_guard_model": lambda m, spent: build_guard_model(
            m.facts, m.storage, deadline=spent
        ),
        "_facts_to_edb": lambda m, spent: _facts_to_edb(
            m.facts, m.storage, m.guards, TaintOptions(), deadline=spent
        ),
        "_load_edb": lambda m, spent: _load_edb(m.edb, spent),
        "TaintAnalysis.run": lambda m, spent: TaintAnalysis(
            m.facts, m.storage, m.guards, TaintOptions(), deadline=spent
        ).run(),
        "analyze_with_datalog": lambda m, spent: analyze_with_datalog(
            facts=m.facts, storage=m.storage, guards=m.guards, deadline=spent
        ),
        "Engine.evaluate": lambda m, spent: Engine(_rules(TaintOptions())).evaluate(
            _load_edb(m.edb), deadline=spent
        ),
    }

    @pytest.mark.parametrize("stage", sorted(STAGES) + ["analyze_bundle"])
    def test_spent_budget_stops_the_stage(self, models, stage):
        spent = Deadline(1e-9, started=0.0)
        if stage == "analyze_bundle":
            # A bundle reports its timeout as a result, not an exception.
            result = analyze_bundle(proxy_pair().bundle, deadline=spent)
            assert result.error == "timeout" and result.deadline_exceeded
            assert result.cross_findings == []
            return
        with pytest.raises(DeadlineExceeded):
            self.STAGES[stage](models, spent)

    def test_copy_closure_raises_within_budget(self):
        """One closure call builds a whole chain's copy sets, so the stage
        must check its budget inside that call, not only between slices
        (at the parent it raised 0.28-0.67 s after a 0.05 s budget)."""
        facts = extract_facts(lift(_memory_hop_chain(2000)))
        with _without_collector(), pytest.raises(DeadlineExceeded):
            budget = Deadline(0.05)
            build_storage_model(facts, deadline=budget)
        assert budget.elapsed() < 0.25

    def test_large_lift_stops_facts_and_storage_before_a_full_pass(self):
        """A 50,000-hop chain over 2000 memory words (200,003 statements).
        Before these stages ticked ahead of their first full pass, a spent
        budget stopped ``extract_facts`` after 0.12 s and
        ``build_storage_model`` after 0.19 s.  The storage model is built
        only under a spent budget: its copy closure is quadratic."""
        program = lift(_memory_hop_chain(50_000, words=2000))
        assert sum(len(block.statements) for block in program.blocks.values()) == (
            200_003
        )
        with _without_collector():
            started = time.monotonic()
            with pytest.raises(DeadlineExceeded):
                extract_facts(program, deadline=Deadline(1e-9, started=0.0))
            assert time.monotonic() - started < 0.05
            facts = extract_facts(program)
            started = time.monotonic()
            with pytest.raises(DeadlineExceeded):
                build_storage_model(facts, deadline=Deadline(1e-9, started=0.0))
            assert time.monotonic() - started < 0.05
