"""Parallel batch analysis."""

import pytest

from repro import api
from repro.core import AnalysisConfig
from repro.corpus import generate_corpus


@pytest.fixture(scope="module")
def small_corpus():
    return generate_corpus(24, seed=13)


class TestSequential:
    def test_entries_ordered_and_complete(self, small_corpus):
        summary = api.sweep([c.runtime for c in small_corpus], jobs=1)
        assert summary.total == len(small_corpus)
        assert [entry.index for entry in summary.entries] == list(range(len(small_corpus)))

    def test_flag_counts_match_direct_analysis(self, small_corpus):
        summary = api.sweep([c.runtime for c in small_corpus], jobs=1)
        for contract, entry in zip(small_corpus, summary.entries):
            direct = api.analyze(contract.runtime)
            assert set(entry.kinds) == {w.kind for w in direct.warnings}

    def test_config_respected(self, small_corpus):
        default = api.sweep([c.runtime for c in small_corpus], jobs=1)
        no_guards = api.sweep(
            [c.runtime for c in small_corpus],
            AnalysisConfig(model_guards=False),
            jobs=1,
        )
        assert no_guards.flagged >= default.flagged

    def test_kind_counts(self, small_corpus):
        summary = api.sweep([c.runtime for c in small_corpus], jobs=1)
        counts = summary.kind_counts()
        assert sum(counts.values()) >= summary.flagged


class TestProfiling:
    def test_entries_carry_stage_profile(self, small_corpus):
        summary = api.sweep([c.runtime for c in small_corpus], jobs=1)
        totals = summary.stage_seconds()
        assert set(totals) == {"lift", "facts", "values", "storage", "guards", "ordering", "taint", "detect"}
        assert all(seconds >= 0 for seconds in totals.values())
        assert summary.deadline_exceeded == 0

    def test_battery_matches_per_config_runs(self, small_corpus):
        bytecodes = [c.runtime for c in small_corpus]
        configs = [AnalysisConfig(), AnalysisConfig(model_guards=False)]
        summaries = api.battery(bytecodes, configs, jobs=1)
        for config, summary in zip(configs, summaries):
            direct = api.sweep(bytecodes, config, jobs=1)
            assert [e.kinds for e in summary.entries] == [
                e.kinds for e in direct.entries
            ]

    def test_battery_parallel_matches_sequential(self, small_corpus):
        bytecodes = [c.runtime for c in small_corpus]
        configs = [AnalysisConfig(), AnalysisConfig(conservative_storage=True)]
        sequential = api.battery(bytecodes, configs, jobs=1)
        parallel = api.battery(bytecodes, configs, jobs=3)
        for left, right in zip(sequential, parallel):
            assert [e.kinds for e in left.entries] == [e.kinds for e in right.entries]

    def test_battery_requires_configs(self):
        with pytest.raises(ValueError):
            api.battery([b""], [], jobs=1)


class TestDegradedMode:
    def test_pool_failure_is_recorded_not_swallowed(self, small_corpus, monkeypatch):
        import repro.core.orchestrator as orchestrator_module

        class BrokenContext:
            def Pipe(self, *args, **kwargs):
                raise OSError("no forking allowed here")

            def Process(self, *args, **kwargs):
                raise OSError("no forking allowed here")

        monkeypatch.setattr(
            orchestrator_module.multiprocessing,
            "get_context",
            lambda *args, **kwargs: BrokenContext(),
        )
        bytecodes = [c.runtime for c in small_corpus]
        summary = api.sweep(bytecodes, jobs=4)
        assert summary.degraded
        assert "no forking allowed here" in summary.degraded_reason
        assert summary.total == len(bytecodes)

    def test_healthy_pool_is_not_degraded(self, small_corpus):
        summary = api.sweep([c.runtime for c in small_corpus], jobs=2)
        assert not summary.degraded
        assert summary.degraded_reason == ""


class TestParallel:
    def test_parallel_matches_sequential(self, small_corpus):
        bytecodes = [c.runtime for c in small_corpus]
        sequential = api.sweep(bytecodes, jobs=1)
        parallel = api.sweep(bytecodes, jobs=3)
        assert [e.kinds for e in sequential.entries] == [
            e.kinds for e in parallel.entries
        ]

    def test_empty_input(self):
        summary = api.sweep([], jobs=4)
        assert summary.total == 0

    def test_single_contract_stays_in_process(self, small_corpus):
        summary = api.sweep([small_corpus[0].runtime], jobs=8)
        assert summary.total == 1
