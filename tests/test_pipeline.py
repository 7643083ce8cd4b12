"""The staged pipeline: stages, deadlines, timings, terminal states."""

import pytest

from repro import api
from repro.core import AnalysisConfig
from repro.core.pipeline import (
    ArtifactCache,
    Deadline,
    DeadlineExceeded,
    PREFIX_STAGES,
    STAGE_NAMES,
    STAGES,
    run_pipeline,
    stage_fingerprints,
)
from repro.deadline import CHECK_INTERVAL


class CountingDeadline(Deadline):
    """A spent budget that records its clock reads instead of raising."""

    def __init__(self):
        super().__init__(1e-9, started=0.0)
        self.checks = 0

    def check(self):
        self.checks += 1


class TestDeadline:
    def test_unlimited_never_expires(self):
        deadline = Deadline()
        assert not deadline.expired()
        deadline.check()  # must not raise
        for _ in range(3 * CHECK_INTERVAL):
            deadline.tick()
        for _ in deadline.chunks(range(3 * CHECK_INTERVAL)):
            pass

    def test_zero_budget_expires(self):
        deadline = Deadline(0.0)
        assert deadline.expired()
        with pytest.raises(DeadlineExceeded):
            deadline.check()

    def test_first_tick_checks_then_once_per_interval(self):
        deadline = CountingDeadline()
        deadline.tick()
        assert deadline.checks == 1
        for _ in range(CHECK_INTERVAL - 1):
            deadline.tick()
        assert deadline.checks == 1
        deadline.tick()
        assert deadline.checks == 2
        deadline.tick(10 * CHECK_INTERVAL)  # one read however large the unit
        assert deadline.checks == 3

    def test_first_tick_raises_on_a_spent_budget(self):
        with pytest.raises(DeadlineExceeded):
            Deadline(1e-9, started=0.0).tick()

    def test_chunks_tick_once_per_slice(self):
        ticks = []

        class Recording(Deadline):
            def tick(self, work=1):
                ticks.append(work)

        items = list(range(2 * CHECK_INTERVAL + 1))
        slices = list(Recording().chunks(items))
        assert [item for chunk in slices for item in chunk] == items
        assert ticks == [len(chunk) for chunk in slices] == [
            CHECK_INTERVAL, CHECK_INTERVAL, 1,
        ]


class TestStageGraph:
    def test_stage_order(self):
        assert STAGE_NAMES == ("lift", "facts", "values", "storage", "guards", "ordering", "taint", "detect")

    def test_prefix_is_ablation_independent(self):
        """The Fig. 8 ablation flags must not fingerprint the prefix —
        that is the property the shared battery cache relies on."""
        default = stage_fingerprints(AnalysisConfig())
        for ablation in (
            AnalysisConfig(model_guards=False),
            AnalysisConfig(model_storage_taint=False),
            AnalysisConfig(conservative_storage=True),
            AnalysisConfig(engine="datalog"),
        ):
            fingerprints = stage_fingerprints(ablation)
            for name in PREFIX_STAGES:
                assert fingerprints[name] == default[name]
            assert fingerprints["taint"] != default["taint"]
            assert fingerprints["detect"] != default["detect"]

    def test_lift_cap_fingerprints_every_stage(self):
        default = stage_fingerprints(AnalysisConfig())
        changed = stage_fingerprints(AnalysisConfig(max_lift_states=7))
        for name in STAGE_NAMES:
            assert changed[name] != default[name]

    def test_budget_fields_do_not_fingerprint(self):
        default = stage_fingerprints(AnalysisConfig())
        budget = stage_fingerprints(AnalysisConfig(timeout_seconds=1.0))
        assert budget == default


class TestRunPipeline:
    def test_all_stages_timed_in_order(self, victim_contract):
        outcome = run_pipeline(victim_contract.runtime, AnalysisConfig())
        assert [timing.name for timing in outcome.timings] == list(STAGE_NAMES)
        assert all(timing.seconds >= 0 for timing in outcome.timings)
        assert all(timing.error is None for timing in outcome.timings)
        assert outcome.error is None and not outcome.deadline_exceeded
        assert set(outcome.artifacts) == set(STAGE_NAMES)

    def test_lift_error_stops_pipeline(self, victim_contract):
        outcome = run_pipeline(
            victim_contract.runtime, AnalysisConfig(max_lift_states=2)
        )
        assert outcome.error.startswith("lift-error")
        assert [timing.name for timing in outcome.timings] == ["lift"]
        assert outcome.timings[0].error is not None
        assert "detect" not in outcome.artifacts

    def test_pre_stage_abort_is_timeout(self, victim_contract):
        outcome = run_pipeline(
            victim_contract.runtime, AnalysisConfig(), deadline=Deadline(0.0)
        )
        assert outcome.error == "timeout"
        assert outcome.deadline_exceeded
        assert outcome.timings == []
        assert outcome.artifacts == {}

    def test_mid_stage_abort_is_cooperative(self, victim_contract):
        """A deadline firing *inside* the lifter worklist (not between
        stages) still terminates the run as a timeout."""

        class MidFlight(Deadline):
            def __init__(self):
                super().__init__(None)

            def expired(self):
                return False  # pre-stage polls pass

            def check(self):
                raise DeadlineExceeded("budget spent mid-stage")

        outcome = run_pipeline(
            victim_contract.runtime, AnalysisConfig(), deadline=MidFlight()
        )
        assert outcome.error == "timeout"
        assert outcome.deadline_exceeded
        assert outcome.timings[-1].error == "timeout"
        assert "detect" not in outcome.artifacts

    def test_late_finish_keeps_warnings(self, victim_contract):
        """A run that completes detection but crosses the budget is a *late
        finish*: warnings survive, error stays None, only
        deadline_exceeded is set (previously such runs carried both
        warnings and error='timeout' and were double-counted)."""

        class LateFinish(Deadline):
            def __init__(self):
                super().__init__(None)
                self.polls = 0

            def check(self):  # in-stage checks never fire
                pass

            def expired(self):
                # One poll before each stage passes; the final post-run
                # poll reports the budget crossed.
                self.polls += 1
                return self.polls > len(STAGES)

        outcome = run_pipeline(
            victim_contract.runtime, AnalysisConfig(), deadline=LateFinish()
        )
        assert outcome.error is None
        assert outcome.deadline_exceeded
        assert outcome.artifacts["detect"]  # findings kept


class TestArtifactCache:
    def test_lru_eviction_bound(self):
        cache = ArtifactCache(max_entries=2)
        cache.put(("a", "lift", "-"), 1)
        cache.put(("b", "lift", "-"), 2)
        cache.put(("c", "lift", "-"), 3)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.get(("a", "lift", "-")) is None  # evicted (oldest)
        assert cache.get(("c", "lift", "-")) == 3

    def test_get_refreshes_recency(self):
        cache = ArtifactCache(max_entries=2)
        cache.put(("a", "lift", "-"), 1)
        cache.put(("b", "lift", "-"), 2)
        assert cache.get(("a", "lift", "-")) == 1  # refresh "a"
        cache.put(("c", "lift", "-"), 3)  # evicts "b", not "a"
        assert cache.get(("a", "lift", "-")) == 1
        assert cache.get(("b", "lift", "-")) is None

    def test_counters(self):
        cache = ArtifactCache()
        assert cache.get(("x", "lift", "-")) is None
        cache.put(("x", "lift", "-"), object())
        assert cache.get(("x", "lift", "-")) is not None
        assert cache.hits == 1 and cache.misses == 1

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            ArtifactCache(max_entries=0)

    def test_second_run_hits_every_stage(self, victim_contract):
        cache = ArtifactCache()
        cold = api.analyze(victim_contract.runtime, cache=cache)
        assert cold.cache_hits == 0
        assert cold.cache_misses == len(STAGE_NAMES)
        warm = api.analyze(victim_contract.runtime, cache=cache)
        assert warm.cache_hits == len(STAGE_NAMES)
        assert warm.cache_misses == 0
        assert all(timing.cached for timing in warm.stage_timings)
        assert [(w.kind, w.pc) for w in warm.warnings] == [
            (w.kind, w.pc) for w in cold.warnings
        ]

    def test_ablation_shares_prefix_only(self, victim_contract):
        cache = ArtifactCache()
        api.analyze(victim_contract.runtime, cache=cache)
        ablated = api.analyze(
            victim_contract.runtime, AnalysisConfig(model_guards=False), cache=cache
        )
        cached_stages = {
            timing.name for timing in ablated.stage_timings if timing.cached
        }
        assert cached_stages == set(PREFIX_STAGES)


class TestFacadeIntegration:
    def test_result_exposes_stage_profile(self, victim_contract):
        result = api.analyze(victim_contract.runtime)
        profile = result.stage_seconds()
        assert set(profile) == set(STAGE_NAMES)
        assert result.elapsed_seconds >= sum(profile.values()) * 0.5

    def test_abort_sets_deadline_exceeded(self, victim_contract):
        result = api.analyze(
            victim_contract.runtime, AnalysisConfig(timeout_seconds=0.0)
        )
        assert result.timed_out
        assert result.deadline_exceeded
        assert result.warnings == []

    def test_datalog_engine_honors_cache(self, victim_contract):
        cache = ArtifactCache()
        cold = api.analyze(
            victim_contract.runtime, AnalysisConfig(engine="datalog"), cache=cache
        )
        warm = api.analyze(
            victim_contract.runtime, AnalysisConfig(engine="datalog"), cache=cache
        )
        assert warm.cache_hits == len(STAGE_NAMES)
        assert {(w.kind, w.pc) for w in warm.warnings} == {
            (w.kind, w.pc) for w in cold.warnings
        }
