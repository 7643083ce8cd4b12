"""Fault tolerance of the supervised sweep orchestrator.

The paper's whole-chain run (§6) keeps 45 analysis processes busy for
days; the harness must survive worker crashes, hangs, and operator
restarts without losing more than the one contract at fault.  These tests
inject each failure mode via the test-only :class:`FaultPlan` worker hook
and assert the documented taxonomy (``worker_crashed`` /
``watchdog_killed`` / ``task_failed``), retry semantics, and resume from
the result cache — including the byte-identical report guarantee for a
sweep replayed from it.
"""

import gc
import json
import os
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.core.orchestrator import (
    FaultPlan,
    OrchestratorOptions,
    resolve_mp_context,
    run_sweep,
)
from repro.core.report import ContractReport, SweepReport
from repro.core.reuse import ResultCache, identity_key, sweep_fingerprint
from repro.corpus import generate_corpus


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(10, seed=3)


@pytest.fixture(scope="module")
def bytecodes(corpus):
    return [contract.runtime for contract in corpus]


def _report(corpus, summary):
    report = SweepReport()
    for contract, entry in zip(corpus, summary.entries):
        report.add(
            ContractReport.from_entry(
                entry, name=contract.name, bytecode_size=len(contract.runtime)
            )
        )
    return report


def _cache_path(cache_dir, bytecode, config=None):
    """The result-cache file of ``bytecode``'s identity under ``config``."""
    key = identity_key(bytecode, sweep_fingerprint((config or api.AnalysisConfig(),)))
    return ResultCache(cache_dir)._path(key)


def _stable_fields(report_json: str):
    """Per-contract fields that must survive a resume (timings
    legitimately differ across runs)."""
    payload = json.loads(report_json)
    volatile = {"elapsed_seconds", "stage_seconds"}
    return [
        {key: value for key, value in contract.items() if key not in volatile}
        for contract in payload["contracts"]
    ]


class TestCrashIsolation:
    def test_crash_costs_exactly_one_contract(self, bytecodes):
        summary = api.sweep(
            bytecodes,
            jobs=2,
            options=OrchestratorOptions(
                fault_plan=FaultPlan(crash_indices=(3,))
            ),
        )
        assert summary.total == len(bytecodes)
        errored = [entry for entry in summary.entries if entry.error]
        assert [entry.index for entry in errored] == [3]
        assert errored[0].error_kind == "worker_crashed"
        assert "exit code 13" in errored[0].error
        assert summary.orchestrator["crashes"] == 1
        # Every other contract completed normally.
        assert sum(1 for entry in summary.entries if not entry.error) == 9

    def test_crash_exit_code_recorded(self, bytecodes):
        summary = api.sweep(
            bytecodes[:4],
            jobs=2,
            options=OrchestratorOptions(
                fault_plan=FaultPlan(crash_indices=(1,), crash_exit_code=77)
            ),
        )
        errored = [entry for entry in summary.entries if entry.error]
        assert len(errored) == 1
        assert "exit code 77" in errored[0].error

    def test_multiple_crashes_each_cost_one(self, bytecodes):
        summary = api.sweep(
            bytecodes,
            jobs=2,
            options=OrchestratorOptions(
                fault_plan=FaultPlan(crash_indices=(2, 6))
            ),
        )
        errored = sorted(entry.index for entry in summary.entries if entry.error)
        assert errored == [2, 6]
        assert summary.orchestrator["crashes"] == 2
        assert summary.error_kind_counts() == {"worker_crashed": 2}


class TestWatchdog:
    def test_hang_is_killed_and_charged_once(self, bytecodes):
        summary = api.sweep(
            bytecodes,
            jobs=2,
            options=OrchestratorOptions(
                fault_plan=FaultPlan(hang_indices=(5,), hang_seconds=60.0),
                watchdog_seconds=0.5,
            ),
        )
        assert summary.total == len(bytecodes)
        errored = [entry for entry in summary.entries if entry.error]
        assert [entry.index for entry in errored] == [5]
        assert errored[0].error_kind == "watchdog_killed"
        assert summary.orchestrator["watchdog_kills"] == 1
        assert sum(1 for entry in summary.entries if not entry.error) == 9

    def test_watchdog_defaults_to_budget_times_grace(self):
        from repro.core.analysis import AnalysisConfig

        options = OrchestratorOptions(grace_factor=4.0)
        assert options.effective_watchdog(
            AnalysisConfig(timeout_seconds=30.0)
        ) == pytest.approx(120.0)
        assert OrchestratorOptions(watchdog_seconds=7.0).effective_watchdog(
            AnalysisConfig(timeout_seconds=30.0)
        ) == pytest.approx(7.0)


class TestRetries:
    def test_transient_failures_retried_to_success(self, bytecodes):
        on_events = []
        summary = api.sweep(
            bytecodes,
            jobs=2,
            on_event=on_events.append,
            options=OrchestratorOptions(
                fault_plan=FaultPlan(transient_failures={2: 2}),
                max_retries=2,
                backoff_seconds=0.01,
            ),
        )
        assert summary.errors == 0
        assert summary.orchestrator["retries"] == 2
        entry = next(e for e in summary.entries if e.index == 2)
        assert entry.attempts == 3
        assert sum(1 for event in on_events if event["event"] == "retry") == 2

    def test_retries_exhausted_becomes_task_failed(self, bytecodes):
        summary = api.sweep(
            bytecodes,
            jobs=2,
            max_retries=1,
            options=OrchestratorOptions(
                fault_plan=FaultPlan(transient_failures={2: 9}),
                backoff_seconds=0.01,
            ),
        )
        errored = [entry for entry in summary.entries if entry.error]
        assert [entry.index for entry in errored] == [2]
        assert errored[0].error_kind == "task_failed"
        assert "TransientTaskError" in errored[0].error
        assert errored[0].attempts == 2

    def test_deterministic_analysis_errors_not_retried(self, bytecodes):
        from repro.core.analysis import AnalysisConfig

        # lift-error entries come back inside *successful* rows: the task
        # completed, the analysis failed — no retry, attempts == 1.
        summary = api.sweep(
            bytecodes[:4], AnalysisConfig(max_lift_states=2), jobs=2
        )
        assert summary.errors == 4
        for entry in summary.entries:
            assert entry.error_kind == "lift-error"
            assert entry.attempts == 1
        assert summary.orchestrator["retries"] == 0


class TestRecycling:
    def test_workers_recycle_after_n_tasks(self, bytecodes):
        # 3x the corpus so retirements can't all race the sweep's own
        # completion (recycle messages sent just before the last results
        # may go unread once every task is accounted for).
        tasks = bytecodes * 3
        summary = api.sweep(
            tasks,
            jobs=2,
            options=OrchestratorOptions(recycle_after=2),
        )
        assert summary.errors == 0
        assert summary.total == len(tasks)
        # 30 tasks over workers retiring every 2 tasks: at least 3 retired.
        assert summary.orchestrator["recycles"] >= 3
        assert [entry.index for entry in summary.entries] == list(
            range(len(tasks))
        )

    def test_no_chunk_is_sent_past_a_workers_budget(self):
        # A worker that reaches recycle_after exits without reading
        # another chunk, so a chunk sent past its budget would be
        # requeued and dispatched twice.
        bytecodes = [c.runtime for c in generate_corpus(40, seed=5)]
        summary = api.sweep(
            bytecodes,
            jobs=2,
            options=OrchestratorOptions(recycle_after=4, dispatch_chunk=2),
        )
        assert summary.errors == 0
        assert summary.orchestrator["recycles"] >= 1
        assert summary.orchestrator["dispatched"] == summary.tasks_unique


class TestExecutors:
    def test_parallel_matches_serial(self, bytecodes):
        serial = api.sweep(bytecodes)
        parallel = api.sweep(bytecodes, jobs=3)
        assert [e.kinds for e in serial.entries] == [
            e.kinds for e in parallel.entries
        ]
        assert serial.orchestrator["mode"] == "serial"
        assert parallel.orchestrator["mode"] == "orchestrator"

    def test_spawn_context_smoke(self, bytecodes):
        summary = api.sweep(
            bytecodes[:4], jobs=2, mp_context="spawn"
        )
        assert summary.errors == 0
        assert summary.total == 4

    def test_resolve_mp_context_named(self):
        assert resolve_mp_context("spawn").get_start_method() == "spawn"
        with pytest.raises(ValueError):
            resolve_mp_context("no-such-method")

    def test_battery_through_orchestrator(self, bytecodes):
        from repro.core.analysis import AnalysisConfig

        configs = [AnalysisConfig(), AnalysisConfig(model_guards=False)]
        summaries = api.battery(bytecodes, configs, jobs=2)
        assert len(summaries) == 2
        assert summaries[1].flagged >= summaries[0].flagged
        for summary in summaries:
            assert summary.total == len(bytecodes)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_task_done_once_per_representative(self, bytecodes, jobs):
        # The corpus is duplicate-free, so its own indices are the
        # representatives; the four trailing resubmissions are fanned out.
        events = []
        summary = api.sweep(
            bytecodes + bytecodes[:4], jobs=jobs, on_event=events.append
        )
        assert summary.errors == 0 and summary.dedup_hits == 4
        done = [event["index"] for event in events if event["event"] == "task_done"]
        assert sorted(done) == list(range(len(bytecodes)))

    def test_in_process_exception_is_one_task_failed_row(
        self, bytecodes, monkeypatch, tmp_path
    ):
        from repro.core import orchestrator

        clean = api.sweep(bytecodes)
        analyze = orchestrator.analyze_configs

        def flaky(runtime, configs):
            if runtime == bytecodes[4]:
                raise RuntimeError("injected analysis bug")
            return analyze(runtime, configs)

        monkeypatch.setattr(orchestrator, "analyze_configs", flaky)
        cache_dir = str(tmp_path / "results")
        events = []
        summary = api.sweep(
            bytecodes,
            jobs=1,
            result_cache=cache_dir,
            on_event=events.append,
        )
        failed = [entry for entry in summary.entries if entry.error]
        assert [entry.index for entry in failed] == [4]
        assert failed[0].error_kind == "task_failed"
        assert "RuntimeError: injected analysis bug" in failed[0].error
        assert [
            event["index"] for event in events if event["event"] == "task_failed"
        ] == [4]
        for before, after in zip(clean.entries, summary.entries):
            if after.index != 4:
                assert (after.kinds, after.warnings) == (before.kinds, before.warnings)
        # Not cached: a later run retries the contract.
        monkeypatch.undo()
        resumed = api.sweep(bytecodes, result_cache=cache_dir)
        assert resumed.orchestrator["result_cache_hits"] == len(bytecodes) - 1
        assert resumed.orchestrator["dispatched"] == 1
        assert resumed.errors == 0

    @pytest.mark.parametrize("width", [1, 2])
    def test_in_process_sweep_keeps_no_earlier_program(
        self, bytecodes, monkeypatch, width
    ):
        """Stage outputs live for one task: when the next contract is
        lifted, no earlier contract's lifted program is still reachable."""
        from repro.core import pipeline

        real_lift = pipeline.lift
        programs = []
        alive_at_lift = []

        def tracked_lift(*args, **kwargs):
            gc.collect()
            alive_at_lift.append(sum(ref() is not None for ref in programs))
            program = real_lift(*args, **kwargs)
            programs.append(weakref.ref(program))
            return program

        monkeypatch.setattr(pipeline, "lift", tracked_lift)
        configs = [api.AnalysisConfig(), api.AnalysisConfig(model_guards=False)]
        summaries = api.battery(bytecodes, configs[:width], jobs=1)
        assert all(summary.errors == 0 for summary in summaries)
        assert len(programs) == len(bytecodes)  # one lift per contract
        assert alive_at_lift == [0] * len(bytecodes)

    def test_heartbeat_events(self, bytecodes):
        events = []
        summary = api.sweep(
            bytecodes,
            jobs=2,
            on_event=events.append,
            options=OrchestratorOptions(heartbeat_seconds=0.0),
        )
        beats = [event for event in events if event["event"] == "heartbeat"]
        assert beats and summary.orchestrator["heartbeats"] == len(beats)
        assert {"completed", "total", "in_flight", "throughput"} <= set(beats[-1])


class TestJournalResume:
    """Resume from the result cache, which a sweep writes as each row
    resolves.  (The class and test names predate the cache; the JSONL
    journal they were written for is gone.)"""

    def test_resume_from_complete_journal_is_byte_identical(
        self, corpus, bytecodes, tmp_path
    ):
        cache_dir = str(tmp_path / "results")
        first = api.sweep(bytecodes, jobs=2, result_cache=cache_dir)
        second = api.sweep(bytecodes, jobs=2, result_cache=cache_dir)
        assert second.orchestrator["result_cache_hits"] == len(bytecodes)
        assert second.orchestrator["dispatched"] == 0
        left, right = _report(corpus, first), _report(corpus, second)
        left.orchestrator = right.orchestrator = {}
        assert left.to_json() == right.to_json()

    def test_truncated_journal_reexecutes_only_remainder(
        self, corpus, bytecodes, tmp_path
    ):
        cache_dir = str(tmp_path / "results")
        full = api.sweep(bytecodes, jobs=2, result_cache=cache_dir)
        # Simulate an interruption: two rows never stored, a third torn.
        for bytecode in bytecodes[-3:-1]:
            os.remove(_cache_path(cache_dir, bytecode))
        torn = _cache_path(cache_dir, bytecodes[-1])
        os.truncate(torn, os.path.getsize(torn) // 2)
        resumed = api.sweep(bytecodes, jobs=2, result_cache=cache_dir)
        assert resumed.orchestrator["result_cache_hits"] == len(bytecodes) - 3
        assert resumed.orchestrator["dispatched"] == 3
        assert _stable_fields(_report(corpus, full).to_json()) == _stable_fields(
            _report(corpus, resumed).to_json()
        )

    def test_journal_discarded_on_config_change(self, bytecodes, tmp_path):
        from repro.core.analysis import AnalysisConfig

        cache_dir = str(tmp_path / "results")
        api.sweep(bytecodes, result_cache=cache_dir)
        resumed = api.sweep(
            bytecodes, AnalysisConfig(model_guards=False), result_cache=cache_dir
        )
        assert resumed.orchestrator["result_cache_hits"] == 0

    def test_resume_under_new_config_starts_a_fresh_journal(
        self, bytecodes, tmp_path
    ):
        """A sweep under another configuration stores its rows under their
        own identities: the next run under it replays every row, and the
        first configuration's rows stay."""
        from repro.core.analysis import AnalysisConfig

        cache_dir = str(tmp_path / "results")
        api.sweep(bytecodes, result_cache=cache_dir)
        other = AnalysisConfig(model_guards=False)
        first = api.sweep(bytecodes, other, result_cache=cache_dir)
        assert first.orchestrator["result_cache_hits"] == 0
        again = api.sweep(bytecodes, other, result_cache=cache_dir)
        assert again.orchestrator["result_cache_hits"] == len(bytecodes)
        assert [entry.kinds for entry in again.entries] == [
            entry.kinds for entry in first.entries
        ]
        default = api.sweep(bytecodes, result_cache=cache_dir)
        assert default.orchestrator["result_cache_hits"] == len(bytecodes)

    def test_budget_change_invalidates_journal(self, bytecodes, tmp_path):
        from repro.core.analysis import AnalysisConfig

        cache_dir = str(tmp_path / "results")
        api.sweep(
            bytecodes, AnalysisConfig(timeout_seconds=120.0), result_cache=cache_dir
        )
        resumed = api.sweep(
            bytecodes, AnalysisConfig(timeout_seconds=60.0), result_cache=cache_dir
        )
        assert resumed.orchestrator["result_cache_hits"] == 0

    def test_harness_faults_are_not_journaled(self, bytecodes, tmp_path):
        cache_dir = str(tmp_path / "results")
        crashed = api.sweep(
            bytecodes,
            jobs=2,
            result_cache=cache_dir,
            options=OrchestratorOptions(
                fault_plan=FaultPlan(crash_indices=(3,))
            ),
        )
        assert crashed.entries[3].error_kind == "worker_crashed"
        assert not os.path.exists(_cache_path(cache_dir, bytecodes[3]))
        # The re-run retries the crashed contract (no fault plan now) and
        # it succeeds.
        resumed = api.sweep(bytecodes, jobs=2, result_cache=cache_dir)
        assert resumed.orchestrator["result_cache_hits"] == len(bytecodes) - 1
        assert resumed.orchestrator["dispatched"] == 1
        assert resumed.errors == 0

    def test_journal_key_covers_bytecode_and_config(self, bytecodes):
        from repro.core.analysis import AnalysisConfig

        fp_a = sweep_fingerprint((AnalysisConfig(),))
        fp_b = sweep_fingerprint((AnalysisConfig(timeout_seconds=60.0),))
        assert fp_a != fp_b
        assert identity_key(bytecodes[0], fp_a) != identity_key(bytecodes[1], fp_a)
        assert identity_key(bytecodes[0], fp_a) != identity_key(bytecodes[0], fp_b)

    def test_entry_checks_cover_every_batch_entry_field(self):
        """A field without a check would be dropped on every result-cache
        hit."""
        import dataclasses

        from repro.core.batch import BatchEntry
        from repro.core.reuse import _ENTRY_FIELD_CHECKS

        assert set(_ENTRY_FIELD_CHECKS) == {
            field.name for field in dataclasses.fields(BatchEntry)
        }


class _Interrupted(Exception):
    """Raised by an ``on_event`` hook to stop a sweep part way."""


class TestInterruptedSweep:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("k", [1, 4])
    def test_interrupted_sweep_keeps_finished_rows(
        self, bytecodes, tmp_path, jobs, k
    ):
        """Rows reach the result cache as they resolve, so a sweep stopped
        after k ``task_done`` events leaves at least k identities stored,
        and re-running it analyzes only the rest."""
        cache_dir = str(tmp_path / "results")
        done = []

        def stop_after_k(event):
            if event["event"] == "task_done":
                done.append(event["index"])
                if len(done) == k:
                    raise _Interrupted()

        with pytest.raises(_Interrupted):
            api.sweep(
                bytecodes, jobs=jobs, result_cache=cache_dir, on_event=stop_after_k
            )
        stored = [
            bytecode
            for bytecode in bytecodes
            if os.path.exists(_cache_path(cache_dir, bytecode))
        ]
        assert len(stored) >= k
        for index in done:
            assert bytecodes[index] in stored
        resumed = api.sweep(bytecodes, jobs=jobs, result_cache=cache_dir)
        assert resumed.orchestrator["result_cache_hits"] == len(stored)
        assert resumed.orchestrator["dispatched"] == len(bytecodes) - len(stored)
        assert resumed.errors == 0


class TestResumeProperty:
    @settings(max_examples=8, deadline=None)
    @given(cut=st.integers(min_value=0, max_value=8))
    def test_resume_from_any_interruption_point(self, cut, tmp_path_factory):
        """Property: however many cached rows survive an interruption, the
        resumed sweep re-executes exactly the remainder and converges to
        the same verdicts as an uninterrupted run."""
        corpus = generate_corpus(8, seed=11)
        bytecodes = [contract.runtime for contract in corpus]
        cache_dir = str(tmp_path_factory.mktemp("resume") / "results")
        full = run_sweep(
            bytecodes,
            (api.AnalysisConfig(),),
            options=OrchestratorOptions(result_cache_path=cache_dir),
        )[0]
        for bytecode in bytecodes[cut:]:
            os.remove(_cache_path(cache_dir, bytecode))
        resumed = run_sweep(
            bytecodes,
            (api.AnalysisConfig(),),
            options=OrchestratorOptions(result_cache_path=cache_dir),
        )[0]
        assert resumed.orchestrator["result_cache_hits"] == cut
        assert resumed.orchestrator["dispatched"] == len(bytecodes) - cut
        assert [e.kinds for e in resumed.entries] == [
            e.kinds for e in full.entries
        ]
        assert [e.error for e in resumed.entries] == [
            e.error for e in full.entries
        ]
