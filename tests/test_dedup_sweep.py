"""Content-addressed task coalescing and the cross-run result cache.

The paper's scalability hinges on deduplication (§6.1: ~38M deployed
contracts collapse to ~240K unique bytecodes).  These tests pin the sweep
path that reproduces it: duplicate submissions (same ``sha256(bytecode) +
config fingerprint`` identity) run once and fan out to the whole group,
the outcome — success, analysis error, or harness fault — propagates to
every member with exactly one retry budget per group, the disk-backed
:class:`ResultCache` resolves repeated sweeps without analysis, and the
naive ``dedup=False`` reference plus a Hypothesis property guarantee the
deduped sweep is byte-identical (modulo timings) to the naive one,
including a re-run over a cache that holds any subset of the rows.
"""

import dataclasses
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.core.batch import BatchEntry
from repro.core.orchestrator import FaultPlan, OrchestratorOptions, run_sweep
from repro.core.reuse import ResultCache, identity_key, sweep_fingerprint
from repro.corpus import generate_corpus, generate_mainnet

VOLATILE_FIELDS = {"elapsed_seconds", "stage_seconds"}


@pytest.fixture(scope="module")
def uniques():
    return [contract.runtime for contract in generate_corpus(6, seed=3)]


@pytest.fixture(scope="module")
def duplicated(uniques):
    # 13 submissions over 6 uniques; duplicates interleaved, not clustered.
    return [
        uniques[0], uniques[1], uniques[0], uniques[2], uniques[3],
        uniques[1], uniques[4], uniques[0], uniques[5], uniques[2],
        uniques[5], uniques[1], uniques[0],
    ]


def _stable(summary):
    rows = []
    for entry in summary.entries:
        row = dataclasses.asdict(entry)
        for name in VOLATILE_FIELDS:
            row.pop(name, None)
        rows.append(row)
    return rows


class TestCoalescing:
    def test_counters_and_identity_serial(self, duplicated, uniques):
        naive = api.sweep(duplicated, dedup=False)
        deduped = api.sweep(duplicated)
        assert _stable(naive) == _stable(deduped)
        assert deduped.tasks_total == len(duplicated)
        assert deduped.tasks_unique == len(uniques)
        assert deduped.dedup_hits == len(duplicated) - len(uniques)
        assert naive.dedup_hits == 0
        assert deduped.orchestrator["dispatched"] == len(uniques)
        assert naive.orchestrator["dispatched"] == len(duplicated)

    def test_counters_and_identity_parallel(self, duplicated, uniques):
        naive = api.sweep(duplicated, jobs=2, dedup=False)
        deduped = api.sweep(duplicated, jobs=2)
        assert _stable(naive) == _stable(deduped)
        assert deduped.tasks_unique == len(uniques)
        assert deduped.dedup_hits == len(duplicated) - len(uniques)

    def test_indices_preserved_in_order(self, duplicated):
        summary = api.sweep(duplicated)
        assert [entry.index for entry in summary.entries] == list(
            range(len(duplicated))
        )

    def test_dedup_hit_events_name_representative(self, duplicated):
        events = []
        api.sweep(duplicated, on_event=events.append)
        hits = [event for event in events if event["event"] == "dedup_hit"]
        assert len(hits) == 7
        # duplicated[2] is a copy of duplicated[0]: index 0 represents it.
        by_index = {event["index"]: event["representative"] for event in hits}
        assert by_index[2] == 0
        assert by_index[12] == 0
        assert by_index[10] == 8

    def test_battery_identity_spans_all_configs(self, duplicated):
        configs = [api.AnalysisConfig(), api.AnalysisConfig(model_guards=False)]
        naive = api.battery(duplicated, configs, dedup=False)
        deduped = api.battery(duplicated, configs)
        for naive_summary, dedup_summary in zip(naive, deduped):
            assert _stable(naive_summary) == _stable(dedup_summary)
        assert deduped[0].dedup_hits == 7


class TestGroupFaultPropagation:
    def test_crash_propagates_to_whole_group_once(self, duplicated):
        """A crash on the representative charges the whole group one
        outcome: every duplicate reports ``worker_crashed``, but the crash
        and retry machinery ran once — not once per duplicate."""
        # Representative of the uniques[0] group is submission index 0.
        summary = api.sweep(
            duplicated,
            jobs=2,
            options=OrchestratorOptions(fault_plan=FaultPlan(crash_indices=(0,))),
        )
        errored = [entry for entry in summary.entries if entry.error]
        assert sorted(entry.index for entry in errored) == [0, 2, 7, 12]
        assert {entry.error_kind for entry in errored} == {"worker_crashed"}
        assert len({entry.error for entry in errored}) == 1
        assert summary.orchestrator["crashes"] == 1
        assert summary.error_kind_counts() == {"worker_crashed": 4}

    def test_transient_retry_budget_is_per_group(self, duplicated):
        summary = api.sweep(
            duplicated,
            jobs=2,
            options=OrchestratorOptions(
                fault_plan=FaultPlan(transient_failures={0: 2}),
                max_retries=2,
                backoff_seconds=0.01,
            ),
        )
        assert summary.errors == 0
        assert summary.orchestrator["retries"] == 2
        group = [entry for entry in summary.entries if entry.index in (0, 2, 7, 12)]
        assert {entry.attempts for entry in group} == {3}
        others = [entry for entry in summary.entries if entry.index not in (0, 2, 7, 12)]
        assert {entry.attempts for entry in others} == {1}

    def test_no_dedup_restores_per_submission_faults(self, duplicated):
        """The escape hatch really is naive: with dedup off only the
        crashed submission errors, its duplicates analyze normally."""
        summary = api.sweep(
            duplicated,
            jobs=2,
            dedup=False,
            options=OrchestratorOptions(fault_plan=FaultPlan(crash_indices=(0,))),
        )
        errored = [entry.index for entry in summary.entries if entry.error]
        assert errored == [0]


# Any JSON value, for damaged-file properties.
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@st.composite
def _damage(draw):
    """A function that damages a result-cache file's bytes: truncates them,
    flips one bit, or replaces them with arbitrary JSON — alone, or as the
    entries of a record that is otherwise well formed, digest included."""
    kind = draw(st.sampled_from(("truncate", "flip", "json", "entries")))
    fraction = draw(st.floats(0, 1, exclude_max=True))
    bit = draw(st.integers(0, 7))
    value = draw(_JSON)

    def apply(data: bytes) -> bytes:
        position = int(fraction * len(data))
        if kind == "truncate":
            return data[:position]
        if kind == "flip":
            flipped = bytearray(data)
            flipped[position] ^= 1 << bit
            return bytes(flipped)
        if kind == "json":
            return json.dumps(value).encode()
        record = json.loads(data)
        record["entries"] = value
        record["digest"] = ResultCache._digest(value)
        return json.dumps(record).encode()

    return apply


def _damage_files(root, damage):
    for directory, _, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, "rb") as handle:
                data = handle.read()
            with open(path, "wb") as handle:
                handle.write(damage(data))


def _row(index=0, kinds=("x",)):
    """A one-entry row, as the sweep stores it."""
    return (
        BatchEntry(
            index=index, kinds=kinds, error=None, elapsed_seconds=0.0, statement_count=0
        ),
    )


class TestResultCache:
    def _key(self, bytecode, config=None):
        fingerprint = sweep_fingerprint((config or api.AnalysisConfig(),))
        return identity_key(bytecode, fingerprint)

    def test_round_trip_and_counters(self, tmp_path):
        cache = ResultCache(str(tmp_path / "rc"))
        assert cache.get("k") is None
        assert cache.misses == 1
        cache.put("k", _row())
        assert cache.get("k") == _row()
        assert cache.hits == 1

    def test_put_never_overwrites(self, tmp_path):
        cache = ResultCache(str(tmp_path / "rc"))
        cache.put("k", _row(index=0))
        cache.put("k", _row(index=999))
        assert cache.get("k")[0].index == 0

    def test_corrupt_and_mismatched_files_read_as_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "rc"))
        cache.put("k", _row())
        path = cache._path("k")
        with open(path, "w") as handle:
            handle.write("{torn json")
        assert cache.get("k") is None
        with open(path, "w") as handle:
            json.dump({"version": ResultCache.VERSION, "key": "other", "entries": []}, handle)
        assert cache.get("k") is None

    @settings(max_examples=80, deadline=None)
    @given(damage=_damage())
    def test_damaged_files_read_as_misses(self, damage, tmp_path_factory):
        """Truncated, bit-flipped and arbitrary-JSON files are misses, never
        exceptions or wrong entries, and the next put replaces them."""
        cache = ResultCache(str(tmp_path_factory.mktemp("rc")))
        cache.put("k", _row())
        _damage_files(cache.root, damage)
        assert cache.get("k") is None
        assert (cache.hits, cache.misses) == (0, 1)
        cache.put("k", _row())
        assert cache.get("k") == _row()

    @settings(max_examples=4, deadline=None)
    @given(damage=_damage())
    def test_sweep_over_damaged_cache_matches_clean_run(
        self, damage, duplicated, uniques, tmp_path_factory
    ):
        cache_dir = str(tmp_path_factory.mktemp("rc"))
        clean = api.sweep(duplicated, result_cache=cache_dir)
        _damage_files(cache_dir, damage)
        damaged = api.sweep(duplicated, result_cache=cache_dir)
        assert damaged.result_cache_hits == 0
        assert _stable(damaged) == _stable(clean)
        # The damaged sweep rewrote every file.
        repaired = api.sweep(duplicated, result_cache=cache_dir)
        assert repaired.result_cache_hits == len(uniques)
        assert _stable(repaired) == _stable(clean)

    def test_warm_sweep_resolves_every_identity(self, duplicated, uniques, tmp_path):
        cache_dir = str(tmp_path / "rc")
        cold = api.sweep(duplicated, result_cache=cache_dir)
        warm = api.sweep(duplicated, result_cache=cache_dir)
        assert cold.result_cache_hits == 0
        assert warm.result_cache_hits == len(uniques)
        assert warm.orchestrator["dispatched"] == 0
        assert _stable(cold) == _stable(warm)

    def test_config_change_misses(self, duplicated, tmp_path):
        cache_dir = str(tmp_path / "rc")
        api.sweep(duplicated, result_cache=cache_dir)
        other = api.sweep(
            duplicated, api.AnalysisConfig(model_guards=False), result_cache=cache_dir
        )
        assert other.result_cache_hits == 0

    def test_harness_faults_never_cached(self, duplicated, tmp_path):
        cache_dir = str(tmp_path / "rc")
        api.sweep(
            duplicated,
            jobs=2,
            result_cache=cache_dir,
            options=OrchestratorOptions(fault_plan=FaultPlan(crash_indices=(0,))),
        )
        # Re-sweeping resolves the clean identities from disk but re-runs
        # the previously crashed group (now clean).
        again = api.sweep(duplicated, jobs=2, result_cache=cache_dir)
        assert again.errors == 0
        assert again.result_cache_hits == 5
        key = self._key(duplicated[0])
        assert ResultCache(cache_dir).get(key) is not None  # stored by clean run


class TestBatchedDispatch:
    def test_chunked_dispatch_matches_single(self, duplicated):
        single = api.sweep(
            duplicated, jobs=2, options=OrchestratorOptions(dispatch_chunk=1)
        )
        chunked = api.sweep(
            duplicated, jobs=2, options=OrchestratorOptions(dispatch_chunk=4)
        )
        assert _stable(single) == _stable(chunked)
        assert chunked.orchestrator["ipc_batches"] <= single.orchestrator["ipc_batches"]

    def test_crash_mid_batch_costs_one_task(self, uniques):
        # Eight unique tasks in batches of 4: the crash charges only the
        # in-flight head task; queued batch-mates are requeued and finish.
        bytecodes = (uniques * 2)[:8]
        summary = api.sweep(
            bytecodes,
            jobs=2,
            dedup=False,
            options=OrchestratorOptions(
                dispatch_chunk=4, fault_plan=FaultPlan(crash_indices=(2,))
            ),
        )
        errored = [entry.index for entry in summary.entries if entry.error]
        assert errored == [2]
        assert sum(1 for entry in summary.entries if not entry.error) == 7

    def test_auto_chunk_scales_with_corpus(self, uniques):
        from repro.core.orchestrator import Orchestrator

        orch = Orchestrator.__new__(Orchestrator)
        orch.options = OrchestratorOptions()
        orch.jobs = 2
        assert orch._effective_chunk(10) == 1
        assert orch._effective_chunk(600) == 32
        orch.options = OrchestratorOptions(recycle_after=8)
        assert orch._effective_chunk(600) == 8


class TestMainnetGenerator:
    def test_deterministic_and_manifest_complete(self):
        first = generate_mainnet(60, unique=6, seed=11, duplication_seed=5)
        second = generate_mainnet(60, unique=6, seed=11, duplication_seed=5)
        assert first.assignments == second.assignments
        assert first.bytecodes() == second.bytecodes()
        manifest = first.manifest
        for key in (
            "total", "unique", "unique_bytecodes", "seed", "duplication_seed",
            "zipf_s", "dedup_ratio", "duplicate_rate", "template_mix",
        ):
            assert key in manifest, key
        assert manifest["total"] == 60
        assert manifest["duplicate_rate"] == pytest.approx(0.9)
        assert sum(manifest["template_mix"].values()) == 6

    def test_duplication_seed_independent_of_content_seed(self):
        base = generate_mainnet(60, unique=6, seed=11, duplication_seed=5)
        redraw = generate_mainnet(60, unique=6, seed=11, duplication_seed=6)
        assert [c.runtime for c in base.uniques] == [c.runtime for c in redraw.uniques]
        assert base.assignments != redraw.assignments

    def test_every_unique_deployed_at_least_once(self):
        net = generate_mainnet(40, unique=8, seed=11)
        assert set(net.assignments) == set(range(8))

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_mainnet(0)
        with pytest.raises(ValueError):
            generate_mainnet(5, unique=9)


class TestDedupEquivalenceProperty:
    @settings(max_examples=6, deadline=None)
    @given(
        kept=st.sets(st.integers(min_value=0, max_value=5)),
        tear=st.integers(min_value=0, max_value=10_000),
        dup_seed=st.integers(0, 3),
    )
    def test_dedup_naive_and_resume_converge(
        self, kept, tear, dup_seed, tmp_path_factory
    ):
        """Property: over any duplicated corpus, the deduped sweep equals
        the naive sweep (stable fields), and when any k of its identities
        are still cached (the others lost, one of them torn mid-write) a
        re-run dispatches exactly the rest and converges to the same
        report; a further re-run dispatches nothing."""
        net = generate_mainnet(14, unique=6, seed=11, duplication_seed=dup_seed)
        bytecodes = net.bytecodes()
        naive = run_sweep(
            bytecodes, (api.AnalysisConfig(),),
            options=OrchestratorOptions(dedup=False),
        )[0]
        cache_dir = str(tmp_path_factory.mktemp("dedup") / "rc")
        options = OrchestratorOptions(result_cache_path=cache_dir)
        deduped = run_sweep(bytecodes, (api.AnalysisConfig(),), options=options)[0]
        assert _stable(naive) == _stable(deduped)

        cache = ResultCache(cache_dir)
        identities = list(dict.fromkeys(
            identity_key(bytecode, sweep_fingerprint((api.AnalysisConfig(),)))
            for bytecode in bytecodes
        ))
        assert len(identities) == deduped.tasks_unique
        lost = [key for position, key in enumerate(identities) if position not in kept]
        for position, key in enumerate(lost):
            path = cache._path(key)
            if position == 0:
                # A kill mid-write leaves a strict prefix of the file.
                with open(path, "rb") as handle:
                    data = handle.read()
                with open(path, "wb") as handle:
                    handle.write(data[: tear % len(data)])
            else:
                os.remove(path)
        resumed = run_sweep(bytecodes, (api.AnalysisConfig(),), options=options)[0]
        assert _stable(resumed) == _stable(deduped)
        assert resumed.orchestrator["dispatched"] == len(lost)
        assert resumed.result_cache_hits == len(identities) - len(lost)
        again = run_sweep(bytecodes, (api.AnalysisConfig(),), options=options)[0]
        assert _stable(again) == _stable(deduped)
        assert again.result_cache_hits == len(identities)
        assert again.orchestrator["dispatched"] == 0
