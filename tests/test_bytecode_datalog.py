"""Declarative (Datalog) bytecode analysis vs the Python fixpoint.

The paper implements Ethainter as Datalog rules on Soufflé; this repository
keeps both a declarative specification (:mod:`repro.core.bytecode_datalog`)
and an imperative fast path (:mod:`repro.core.taint`).  These tests pin
them together: identical relations on canonical contracts, on a corpus
sample, and under every ablation configuration.
"""

import pytest

from repro.core.bytecode_datalog import analyze_with_datalog
from repro.core.facts import extract_facts
from repro.core.guards import build_guard_model
from repro.core.storage_model import build_storage_model
from repro.core.taint import TaintAnalysis, TaintOptions
from repro.corpus import generate_corpus
from repro.decompiler import lift

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
