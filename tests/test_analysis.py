"""Analysis orchestration: results, errors, timeouts, configuration."""

import pytest

from repro import api
from repro.core import AnalysisConfig, EthainterAnalysis


class TestResultShape:
    def test_counts_populated(self, victim_contract):
        result = api.analyze(victim_contract.runtime)
        assert result.block_count > 0
        assert result.statement_count > result.block_count
        assert result.elapsed_seconds >= 0

    def test_artifacts_exposed(self, victim_contract):
        result = api.analyze(victim_contract.runtime)
        assert result.program is not None
        assert result.facts is not None
        assert result.guards is not None
        assert result.storage is not None
        assert result.taint is not None

    def test_flagged_property(self, victim_contract, safe_contract):
        assert api.analyze(victim_contract.runtime).flagged
        assert not api.analyze(safe_contract.runtime).flagged

    def test_kinds_histogram_keys(self, safe_contract):
        counts = api.analyze(safe_contract.runtime).kinds()
        assert all(count == 0 for count in counts.values())


class TestErrorHandling:
    def test_empty_bytecode(self):
        result = api.analyze(b"")
        assert result.error is None
        assert result.warnings == []

    def test_junk_bytecode_does_not_crash(self):
        result = api.analyze(bytes(range(256)) * 4)
        assert result.error is None or result.error.startswith("lift-error")

    def test_timeout_reported(self, victim_contract):
        config = AnalysisConfig(timeout_seconds=0.0)
        result = api.analyze(victim_contract.runtime, config)
        assert result.timed_out

    def test_lift_cap_becomes_lift_error(self, victim_contract):
        config = AnalysisConfig(max_lift_states=2)
        result = api.analyze(victim_contract.runtime, config)
        assert result.error is not None and result.error.startswith("lift-error")


class TestConfig:
    def test_default_config_values(self):
        config = AnalysisConfig()
        assert config.model_guards and config.model_storage_taint
        assert not config.conservative_storage

    def test_taint_options_mirror_config(self):
        config = AnalysisConfig(
            model_guards=False, model_storage_taint=False, conservative_storage=True
        )
        options = config.taint_options()
        assert not options.model_guards
        assert not options.model_storage_taint
        assert options.conservative_storage

    def test_analyzer_reusable_across_contracts(self, victim_contract, safe_contract):
        analyzer = EthainterAnalysis()
        first = analyzer.analyze(victim_contract.runtime)
        second = analyzer.analyze(safe_contract.runtime)
        assert first.flagged and not second.flagged

    def test_deterministic(self, victim_contract):
        first = api.analyze(victim_contract.runtime)
        second = api.analyze(victim_contract.runtime)
        assert {(w.kind, w.pc) for w in first.warnings} == {
            (w.kind, w.pc) for w in second.warnings
        }


class TestEngineSelection:
    def test_datalog_engine_same_warnings(self, victim_contract, safe_contract):
        for contract in (victim_contract, safe_contract):
            python_result = api.analyze(contract.runtime)
            datalog_result = api.analyze(
                contract.runtime, AnalysisConfig(engine="datalog")
            )
            assert {(w.kind, w.pc) for w in python_result.warnings} == {
                (w.kind, w.pc) for w in datalog_result.warnings
            }

    def test_datalog_engine_with_ablation(self, token_contract):
        result = api.analyze(
            token_contract.runtime,
            AnalysisConfig(engine="datalog", conservative_storage=True),
        )
        assert result.has("tainted-owner-variable")

    def test_datalog_engine_slower_but_same_counts(self, victim_contract):
        python_result = api.analyze(victim_contract.runtime)
        datalog_result = api.analyze(
            victim_contract.runtime, AnalysisConfig(engine="datalog")
        )
        assert python_result.taint.tainted_slots == datalog_result.taint.tainted_slots
