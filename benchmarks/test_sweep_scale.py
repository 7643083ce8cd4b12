"""Blockchain-scale sweep: throughput scales with unique bytecode.

Ethainter's headline scalability claim rests on deduplication — ~38M
deployed mainnet contracts collapse to ~240K unique bytecodes (§6.1), so
whole-chain analysis pays per *unique* contract, not per *deployed*
contract.  This benchmark pins our reproduction of that claim: a deduped
sweep over a synthetic mainnet (Zipf-like duplication over the template
corpus, >=80% duplicate rate) must beat the naive per-submission path by
``MIN_SPEEDUP`` in contracts/sec while producing byte-identical
per-submission entries (modulo timing fields).

Measurement discipline: both sides run the supervised orchestrator with
``jobs=JOBS``.  Workers keep nothing of one task for the next, so the
naive path pays full analysis per submission, as it would at real
blockchain scale, where the unique set (~240K) dwarfs any in-memory store.
The serial number is still measured and recorded in the JSON as
informational context.

Results are written to ``BENCH_sweep_scale.json`` (path overridable via
``BENCH_SWEEP_SCALE_JSON``; scale via ``BENCH_SWEEP_SCALE_TOTAL`` /
``BENCH_SWEEP_SCALE_UNIQUE``) so CI tracks contracts/sec, unique/sec,
dedup ratio, and IPC batch sizes from artifact to artifact.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from typing import Dict

import pytest

from benchmarks.conftest import print_table
from repro import api
from repro.corpus import generate_mainnet

MIN_SPEEDUP = 5.0  # deduped contracts/sec >= 5x naive contracts/sec
TOTAL = int(os.environ.get("BENCH_SWEEP_SCALE_TOTAL", "600"))
UNIQUE = int(os.environ.get("BENCH_SWEEP_SCALE_UNIQUE", "60"))
SEED = 2020
DUP_SEED = 7
JOBS = 2

# Fields that vary run to run without changing the verdict (same set the
# orchestrator equivalence tests ignore).
VOLATILE_FIELDS = {"elapsed_seconds", "stage_seconds"}

_RESULTS: Dict[str, Dict] = {}


@pytest.fixture(scope="module", autouse=True)
def _write_report():
    """Write ``BENCH_sweep_scale.json`` after the module's benchmarks ran
    (even partially — a failed assertion still leaves the measured numbers)."""
    yield
    path = os.environ.get("BENCH_SWEEP_SCALE_JSON", "BENCH_sweep_scale.json")
    with open(path, "w") as handle:
        json.dump(_RESULTS, handle, indent=2, sort_keys=True)
    print("\nsweep scale benchmark written to %s" % path)


@pytest.fixture(scope="module")
def mainnet():
    net = generate_mainnet(TOTAL, unique=UNIQUE, seed=SEED, duplication_seed=DUP_SEED)
    assert net.manifest["duplicate_rate"] >= 0.80, net.manifest
    return net


def _stable_entries(summary):
    rows = []
    for entry in summary.entries:
        row = dataclasses.asdict(entry)
        for name in VOLATILE_FIELDS:
            row.pop(name, None)
        rows.append(row)
    return rows


def _timed_sweep(bytecodes, **kwargs):
    start = time.perf_counter()
    summary = api.sweep(bytecodes, **kwargs)
    elapsed = time.perf_counter() - start
    assert not summary.degraded, summary.degraded_reason
    assert summary.errors == 0, summary.error_kind_counts()
    return summary, elapsed


class TestSweepScale:
    def test_dedup_throughput_and_identity(self, mainnet):
        bytecodes = mainnet.bytecodes()
        total = len(bytecodes)

        # Controlled comparison: the orchestrator on both sides.
        naive, naive_s = _timed_sweep(bytecodes, jobs=JOBS, dedup=False)
        deduped, dedup_s = _timed_sweep(bytecodes, jobs=JOBS)

        assert _stable_entries(naive) == _stable_entries(deduped)
        assert deduped.tasks_total == total
        assert deduped.tasks_unique == len({bc for bc in bytecodes})
        assert deduped.dedup_hits == total - deduped.tasks_unique
        assert naive.dedup_hits == 0

        naive_cps = total / naive_s
        dedup_cps = total / dedup_s
        speedup = dedup_cps / naive_cps

        # Informational context: the same sweep, serially.
        _, serial_s = _timed_sweep(bytecodes, jobs=1)

        orchestrator = dict(deduped.orchestrator)
        _RESULTS["synthetic_mainnet"] = {
            "manifest": {
                key: value
                for key, value in mainnet.manifest.items()
                if key != "template_mix"
            },
            "jobs": JOBS,
            "naive_seconds": round(naive_s, 4),
            "dedup_seconds": round(dedup_s, 4),
            "contracts_per_second_naive": round(naive_cps, 2),
            "contracts_per_second_dedup": round(dedup_cps, 2),
            "unique_per_second": round(deduped.tasks_unique / dedup_s, 2),
            "speedup": round(speedup, 2),
            "min_speedup": MIN_SPEEDUP,
            "dedup_ratio": round(total / deduped.tasks_unique, 2),
            "tasks_total": deduped.tasks_total,
            "tasks_unique": deduped.tasks_unique,
            "dedup_hits": deduped.dedup_hits,
            "ipc_batches": orchestrator.get("ipc_batches", 0),
            "dispatched": orchestrator.get("dispatched", 0),
            "mean_ipc_batch_size": round(
                orchestrator.get("dispatched", 0)
                / max(1, orchestrator.get("ipc_batches", 0)),
                2,
            ),
            "entries_identical": True,
            "informational": {"serial_seconds": round(serial_s, 4)},
        }
        print_table(
            "Sweep scale: %d submissions / %d unique (dup rate %.0f%%), %d workers"
            % (
                total,
                deduped.tasks_unique,
                100 * mainnet.manifest["duplicate_rate"],
                JOBS,
            ),
            ["path", "seconds", "contracts/s"],
            [
                ["naive", "%.3f" % naive_s, "%.1f" % naive_cps],
                ["dedup", "%.3f" % dedup_s, "%.1f" % dedup_cps],
                ["speedup", "", "%.2fx" % speedup],
            ],
        )
        assert speedup >= MIN_SPEEDUP, (
            "dedup sweep only %.2fx faster than naive (budget %.1fx)"
            % (speedup, MIN_SPEEDUP)
        )

    def test_result_cache_warm_run(self, mainnet, tmp_path):
        """A warm re-sweep resolves every identity from the cross-run disk
        cache — the daemon-style workload where most submissions repeat."""
        bytecodes = mainnet.bytecodes()
        cache_dir = str(tmp_path / "result-cache")

        cold, cold_s = _timed_sweep(bytecodes, jobs=JOBS, result_cache=cache_dir)
        warm, warm_s = _timed_sweep(bytecodes, jobs=JOBS, result_cache=cache_dir)

        assert cold.result_cache_hits == 0
        assert warm.result_cache_hits == warm.tasks_unique
        assert _stable_entries(cold) == _stable_entries(warm)

        _RESULTS["result_cache"] = {
            "cold_seconds": round(cold_s, 4),
            "warm_seconds": round(warm_s, 4),
            "warm_speedup": round(cold_s / warm_s, 2),
            "result_cache_hits": warm.result_cache_hits,
            "tasks_unique": warm.tasks_unique,
        }
        print_table(
            "Cross-run result cache: %d submissions / %d unique"
            % (len(bytecodes), warm.tasks_unique),
            ["run", "seconds"],
            [
                ["cold", "%.3f" % cold_s],
                ["warm", "%.3f" % warm_s],
                ["speedup", "%.2fx" % (cold_s / warm_s)],
            ],
        )
        assert warm_s < cold_s
