"""The staged pipeline: stages, deadlines, timings, terminal states, and
the stage outputs the configurations of one task share."""

import dataclasses
import time
from collections import Counter

import pytest

from repro import api
from repro.core import AnalysisConfig
from repro.core import pipeline
from repro.core.pipeline import (
    Deadline,
    DeadlineExceeded,
    STAGE_NAMES,
    STAGES,
    run_pipeline,
)
from repro.corpus import generate_corpus
from repro.deadline import CHECK_INTERVAL

# The stages every Fig. 8 ablation shares: everything before taint.
PREFIX_STAGES = STAGE_NAMES[: STAGE_NAMES.index("taint")]

FIG8_CONFIGS = (
    {},
    {"model_storage_taint": False},
    {"model_guards": False},
    {"conservative_storage": True},
)


def _reused(outcome):
    return {timing.name for timing in outcome.timings if timing.cached}


@pytest.fixture
def stage_runs(monkeypatch):
    """Counts every stage run: a Counter of stage name -> calls."""
    runs = Counter()

    def counted(stage):
        def run(context):
            runs[stage.name] += 1
            return stage.run(context)

        return dataclasses.replace(stage, run=run)

    monkeypatch.setattr(pipeline, "STAGES", tuple(map(counted, STAGES)))
    return runs


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

    def test_prefix_is_ablation_independent(self, victim_contract):
        """The Fig. 8 ablation flags and the engine must not key the
        prefix: that is the property the battery's sharing relies on."""
        for ablation in (
            AnalysisConfig(model_guards=False),
            AnalysisConfig(model_storage_taint=False),
            AnalysisConfig(conservative_storage=True),
            AnalysisConfig(engine="datalog"),
        ):
            _, later = run_pipeline(
                victim_contract.runtime, [AnalysisConfig(), ablation]
            )
            assert _reused(later) == set(PREFIX_STAGES)

    def test_lift_cap_fingerprints_every_stage(self, victim_contract):
        _, changed = run_pipeline(
            victim_contract.runtime,
            [AnalysisConfig(), AnalysisConfig(max_lift_states=19_999)],
        )
        assert changed.error is None
        assert _reused(changed) == set()

    def test_budget_fields_do_not_fingerprint(self, victim_contract):
        default, budget = run_pipeline(
            victim_contract.runtime,
            [AnalysisConfig(), AnalysisConfig(timeout_seconds=60.0)],
        )
        assert _reused(budget) == set(STAGE_NAMES)
        assert budget.artifacts == default.artifacts


class TestRunPipeline:
    def test_all_stages_timed_in_order(self, victim_contract):
        (outcome,) = run_pipeline(victim_contract.runtime, [AnalysisConfig()])
        assert [timing.name for timing in outcome.timings] == list(STAGE_NAMES)
        assert all(timing.seconds >= 0 for timing in outcome.timings)
        assert all(timing.error is None for timing in outcome.timings)
        assert outcome.error is None and not outcome.deadline_exceeded
        assert set(outcome.artifacts) == set(STAGE_NAMES)

    def test_lift_error_stops_pipeline(self, victim_contract):
        (outcome,) = run_pipeline(
            victim_contract.runtime, [AnalysisConfig(max_lift_states=2)]
        )
        assert outcome.error.startswith("lift-error")
        assert [timing.name for timing in outcome.timings] == ["lift"]
        assert outcome.timings[0].error is not None
        assert "detect" not in outcome.artifacts

    def test_pre_stage_abort_is_timeout(self, victim_contract):
        (outcome,) = run_pipeline(
            victim_contract.runtime, [AnalysisConfig()], deadline=Deadline(0.0)
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

        (outcome,) = run_pipeline(
            victim_contract.runtime, [AnalysisConfig()], deadline=MidFlight()
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

        (outcome,) = run_pipeline(
            victim_contract.runtime, [AnalysisConfig()], deadline=LateFinish()
        )
        assert outcome.error is None
        assert outcome.deadline_exceeded
        assert outcome.artifacts["detect"]  # findings kept


class TestTaskShare:
    """Stage outputs are shared between the configurations of one task,
    and only there."""

    @pytest.mark.parametrize("engine", ["python", "datalog"])
    def test_fig8_battery_runs_the_prefix_once_per_contract(
        self, stage_runs, engine
    ):
        bytecodes = [c.runtime for c in generate_corpus(5, seed=11)]
        configs = [
            AnalysisConfig(engine=engine, **overrides) for overrides in FIG8_CONFIGS
        ]
        summaries = api.battery(bytecodes, configs, jobs=1)
        assert not any(e.error for summary in summaries for e in summary.entries)
        expected = {name: len(bytecodes) for name in PREFIX_STAGES}
        expected.update(taint=4 * len(bytecodes), detect=4 * len(bytecodes))
        assert dict(stage_runs) == expected

    def test_value_analysis_shares_only_lift_and_facts(self, stage_runs):
        bytecodes = [c.runtime for c in generate_corpus(5, seed=11)]
        api.battery(
            bytecodes, [AnalysisConfig(), AnalysisConfig(value_analysis=True)]
        )
        assert stage_runs["lift"] == stage_runs["facts"] == len(bytecodes)
        for name in STAGE_NAMES[2:]:
            assert stage_runs[name] == 2 * len(bytecodes), name

    def test_timed_out_stage_reruns_under_the_next_budget(
        self, monkeypatch, victim_contract
    ):
        """A lift the first configuration's budget aborts mid-stage is
        not shared: the second configuration lifts under its own budget."""
        lifts = []
        real_lift = pipeline.lift

        def slow_lift(*args, **kwargs):
            lifts.append(kwargs["deadline"])
            time.sleep(0.05)  # outlive the first budget, then tick it
            return real_lift(*args, **kwargs)

        monkeypatch.setattr(pipeline, "lift", slow_lift)
        aborted, rerun = run_pipeline(
            victim_contract.runtime,
            [AnalysisConfig(timeout_seconds=0.01), AnalysisConfig()],
        )
        assert aborted.error == "timeout"
        assert [(t.name, t.error) for t in aborted.timings] == [("lift", "timeout")]
        assert len(lifts) == 2 and lifts[0] is not lifts[1]
        assert rerun.error is None and not rerun.deadline_exceeded
        assert _reused(rerun) == set()
        assert rerun.artifacts["detect"]

    def test_reused_stage_is_timed_as_zero(self, victim_contract):
        _, later = run_pipeline(
            victim_contract.runtime,
            [AnalysisConfig(), AnalysisConfig(model_guards=False)],
        )
        for timing in later.timings:
            if timing.name in PREFIX_STAGES:
                assert (timing.seconds, timing.cached, timing.error) == (
                    0.0, True, None,
                )


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
