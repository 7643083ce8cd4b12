"""Fault tolerance of the supervised sweep orchestrator.

The paper's whole-chain run (§6) keeps 45 analysis processes busy for
days; the harness must survive worker crashes, hangs, and operator
restarts without losing more than the one contract at fault.  These tests
inject each failure mode via the test-only :class:`FaultPlan` worker hook
and assert the documented taxonomy (``worker_crashed`` /
``watchdog_killed`` / ``task_failed``), retry semantics, and checkpoint
journal resume behavior — including the byte-identical report guarantee
for a sweep resumed from its journal.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.core.orchestrator import (
    FaultPlan,
    OrchestratorOptions,
    SweepJournal,
    _entry_to_dict,
    journal_key,
    resolve_mp_context,
    run_sweep,
    sweep_fingerprint,
)
from repro.core.report import ContractReport, SweepReport
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


def _stable_fields(report_json: str):
    """Per-contract fields that must survive a resume (timings and
    per-process cache counters legitimately differ across runs)."""
    payload = json.loads(report_json)
    volatile = {"elapsed_seconds", "stage_seconds", "cache_hits", "cache_misses"}
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
        analyze = orchestrator.EthainterAnalysis.analyze

        def flaky(self, runtime):
            if runtime == bytecodes[4]:
                raise RuntimeError("injected analysis bug")
            return analyze(self, runtime)

        monkeypatch.setattr(orchestrator.EthainterAnalysis, "analyze", flaky)
        journal = str(tmp_path / "sweep.jsonl")
        cache_dir = str(tmp_path / "results")
        events = []
        summary = api.sweep(
            bytecodes,
            jobs=1,
            journal=journal,
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
        # Neither journaled nor cached: a later run retries the contract.
        monkeypatch.undo()
        resumed = api.sweep(
            bytecodes, journal=journal, resume=True, result_cache=cache_dir
        )
        assert resumed.orchestrator["resumed"] == len(bytecodes) - 1
        assert resumed.orchestrator["result_cache_hits"] == 0
        assert resumed.orchestrator["dispatched"] == 1
        assert resumed.errors == 0

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
    def test_resume_from_complete_journal_is_byte_identical(
        self, corpus, bytecodes, tmp_path
    ):
        path = str(tmp_path / "sweep.jsonl")
        first = api.sweep(bytecodes, jobs=2, journal=path)
        second = api.sweep(bytecodes, jobs=2, journal=path, resume=True)
        assert second.orchestrator["resumed"] == len(bytecodes)
        assert second.orchestrator["dispatched"] == 0
        left, right = _report(corpus, first), _report(corpus, second)
        left.orchestrator = right.orchestrator = {}
        assert left.to_json() == right.to_json()

    def test_truncated_journal_reexecutes_only_remainder(
        self, corpus, bytecodes, tmp_path
    ):
        path = str(tmp_path / "sweep.jsonl")
        full = api.sweep(bytecodes, jobs=2, journal=path)
        lines = open(path).read().splitlines(True)
        # Simulate a kill mid-write: drop 3 rows and leave a torn line.
        with open(path, "w") as handle:
            handle.writelines(lines[:-3])
            handle.write('{"key": "torn')
        resumed = api.sweep(bytecodes, jobs=2, journal=path, resume=True)
        assert resumed.orchestrator["resumed"] == len(bytecodes) - 3
        assert resumed.orchestrator["dispatched"] == 3
        assert _stable_fields(_report(corpus, full).to_json()) == _stable_fields(
            _report(corpus, resumed).to_json()
        )

    def test_journal_discarded_on_config_change(self, bytecodes, tmp_path):
        from repro.core.analysis import AnalysisConfig

        path = str(tmp_path / "sweep.jsonl")
        api.sweep(bytecodes, journal=path)
        resumed = api.sweep(
            bytecodes,
            AnalysisConfig(model_guards=False),
            journal=path,
            resume=True,
        )
        assert resumed.orchestrator["resumed"] == 0

    def test_resume_under_new_config_starts_a_fresh_journal(
        self, bytecodes, tmp_path
    ):
        """Resuming under another configuration rewrites the journal under
        the new header, so the next resume under that configuration
        replays every row."""
        from repro.core.analysis import AnalysisConfig

        path = str(tmp_path / "sweep.jsonl")
        api.sweep(bytecodes, journal=path)
        other = AnalysisConfig(model_guards=False)
        first = api.sweep(bytecodes, other, journal=path, resume=True)
        assert first.orchestrator["resumed"] == 0
        again = api.sweep(bytecodes, other, journal=path, resume=True)
        assert again.orchestrator["resumed"] == len(bytecodes)
        assert [entry.kinds for entry in again.entries] == [
            entry.kinds for entry in first.entries
        ]

    def test_budget_change_invalidates_journal(self, bytecodes, tmp_path):
        from repro.core.analysis import AnalysisConfig

        path = str(tmp_path / "sweep.jsonl")
        api.sweep(bytecodes, AnalysisConfig(timeout_seconds=120.0), journal=path)
        resumed = api.sweep(
            bytecodes,
            AnalysisConfig(timeout_seconds=60.0),
            journal=path,
            resume=True,
        )
        assert resumed.orchestrator["resumed"] == 0

    def test_harness_faults_are_not_journaled(self, bytecodes, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        crashed = api.sweep(
            bytecodes,
            jobs=2,
            journal=path,
            options=OrchestratorOptions(
                fault_plan=FaultPlan(crash_indices=(3,))
            ),
        )
        assert crashed.entries[3].error_kind == "worker_crashed"
        # The resumed run retries the crashed contract (no fault plan now)
        # and it succeeds.
        resumed = api.sweep(bytecodes, jobs=2, journal=path, resume=True)
        assert resumed.orchestrator["resumed"] == len(bytecodes) - 1
        assert resumed.orchestrator["dispatched"] == 1
        assert resumed.errors == 0

    def test_journal_key_covers_bytecode_and_config(self, bytecodes):
        from repro.core.analysis import AnalysisConfig

        fp_a = sweep_fingerprint((AnalysisConfig(),))
        fp_b = sweep_fingerprint((AnalysisConfig(timeout_seconds=60.0),))
        assert fp_a != fp_b
        assert journal_key(bytecodes[0], fp_a) != journal_key(bytecodes[1], fp_a)
        assert journal_key(bytecodes[0], fp_a) != journal_key(bytecodes[0], fp_b)

    def test_journal_load_tolerates_garbage_then_stops(self, tmp_path):
        from repro.core.batch import BatchEntry

        path = str(tmp_path / "sweep.jsonl")
        fingerprint = "fp"
        journal = SweepJournal(path, fingerprint)
        entry = BatchEntry(
            index=0, kinds=(), error=None, elapsed_seconds=0.0, statement_count=0
        )
        journal.record("abc:fp", 0, (entry,))
        journal.close()
        with open(path, "a") as handle:
            handle.write("{not json")
        reloaded = SweepJournal(path, fingerprint, resume=True)
        reloaded.close()
        assert "abc:fp" in reloaded.completed

    def test_entry_checks_cover_every_batch_entry_field(self):
        """A field without a check would be dropped on every journal
        replay and result-cache hit."""
        import dataclasses

        from repro.core.batch import BatchEntry
        from repro.core.orchestrator import _ENTRY_FIELD_CHECKS

        assert set(_ENTRY_FIELD_CHECKS) == {
            field.name for field in dataclasses.fields(BatchEntry)
        }

    @pytest.mark.parametrize(
        "bad_line",
        [
            b"[1]\n",
            b"\xff\xfe not utf-8\n",
            b'{"key": 5, "index": 1, "entries": []}\n',
            b'{"key": "bad:fp", "index": 1, "entries": 5}\n',
            b'{"key": "bad:fp", "index": 1, "entries": [1]}\n',
            b'{"key": "bad:fp", "index": 1, "entries": [{"index": "0"}]}\n',
        ],
    )
    def test_damaged_line_ends_the_valid_prefix(self, bad_line, tmp_path):
        """A damaged line and everything after it are dropped on resume,
        and the file is cut back to the valid prefix before new rows are
        appended, so a second resume still reads every good row."""
        from repro.core.batch import BatchEntry

        path = str(tmp_path / "sweep.jsonl")
        entry = BatchEntry(
            index=0, kinds=(), error=None, elapsed_seconds=0.0, statement_count=0
        )
        journal = SweepJournal(path, "fp")
        journal.record("a:fp", 0, (entry,))
        journal.close()
        after = {"key": "c:fp", "index": 2, "entries": [_entry_to_dict(entry)]}
        with open(path, "ab") as handle:
            handle.write(bad_line + json.dumps(after).encode() + b"\n")
        resumed = SweepJournal(path, "fp", resume=True)
        resumed.record("b:fp", 1, (entry,))
        resumed.close()
        assert set(resumed.completed) == {"a:fp", "b:fp"}
        again = SweepJournal(path, "fp", resume=True)
        again.close()
        assert set(again.completed) == {"a:fp", "b:fp"}


class TestResumeProperty:
    @settings(max_examples=8, deadline=None)
    @given(cut=st.integers(min_value=0, max_value=8))
    def test_resume_from_any_interruption_point(self, cut, tmp_path_factory):
        """Property: however many journal rows survive an interruption, the
        resumed sweep re-executes exactly the remainder and converges to
        the same verdicts as an uninterrupted run."""
        corpus = generate_corpus(8, seed=11)
        bytecodes = [contract.runtime for contract in corpus]
        path = str(tmp_path_factory.mktemp("resume") / "sweep.jsonl")
        full = run_sweep(
            bytecodes,
            (api.AnalysisConfig(),),
            options=OrchestratorOptions(journal_path=path),
        )[0]
        lines = open(path).read().splitlines(True)
        header, rows = lines[0], lines[1:]
        with open(path, "w") as handle:
            handle.writelines([header] + rows[:cut])
        resumed = run_sweep(
            bytecodes,
            (api.AnalysisConfig(),),
            options=OrchestratorOptions(journal_path=path, resume=True),
        )[0]
        assert resumed.orchestrator["resumed"] == cut
        assert resumed.orchestrator["dispatched"] == len(bytecodes) - cut
        assert [e.kinds for e in resumed.entries] == [
            e.kinds for e in full.entries
        ]
        assert [e.error for e in resumed.entries] == [
            e.error for e in full.entries
        ]
