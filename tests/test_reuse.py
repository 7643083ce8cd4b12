"""The reuse funnel shared by sweeps and the daemon (repro.core.reuse).

Unit tests of :class:`ReuseFunnel`'s claim order (memory, disk, in
flight), its copy-on-hit rows, its storage rule and its bounded memory,
plus a stress test of the daemon's backend, which shares one funnel
between request threads and the pool thread.
"""

import json
import os
import sys
import threading

from repro import api
from repro.core import reuse
from repro.core.batch import BatchEntry
from repro.core.report import ContractReport
from repro.core.orchestrator import PersistentPool
from repro.core.reuse import DISK, JOINED, MEMORY, ReuseFunnel
from repro.corpus import generate_corpus
from repro.serve.backend import ServingBackend


# A default-configuration result-cache record of WALLET_RUNTIME (an owner
# set by an unguarded initOwner, then checked by kill's selfdestruct), as
# written while every entry still carried the per-stage cache counters
# ``cache_hits``/``cache_misses``; ``json.dumps`` of it gives the bytes of
# that file.
WALLET_RUNTIME = bytes.fromhex(
    '60003560e01c806303836d881461001d578063026e69f31461002d57005b60043560'
    '805261002b610037565b005b610035610044565b005b608051600055600060405256'
    '5b60005433146100535760006000fd5b600054ff600060405256'
)
WALLET_RECORD = json.loads(
    """
    {
        "cache": "repro-sweep-results",
        "version": 3,
        "key": "22ad437cd5fb96de066d33db4eb34767a37d186afffb30b2f1e96dac67e0d215:bc629bd601022909",
        "digest": "d4b57526c5c82b843d4da6f887c5832b794029816c73cc995f11e375562bddab",
        "entries": [
            {
                "index": 0,
                "kinds": [
                    "accessible-selfdestruct",
                    "tainted-owner-variable",
                    "tainted-selfdestruct"
                ],
                "error": null,
                "elapsed_seconds": 0.0018387009913567454,
                "statement_count": 57,
                "deadline_exceeded": false,
                "stage_seconds": {
                    "lift": 0.0008767649997025728,
                    "facts": 0.00011370900028850883,
                    "values": 3.3039978006854653e-06,
                    "storage": 0.00015418398834299296,
                    "guards": 0.00016171800962183625,
                    "ordering": 8.417991921305656e-06,
                    "taint": 0.0001952310121851042,
                    "detect": 2.9185001039877534e-05
                },
                "cache_hits": 0,
                "cache_misses": 8,
                "datalog": {},
                "block_count": 10,
                "warnings": [
                    {
                        "kind": "accessible-selfdestruct",
                        "pc": 87,
                        "statement": "B53_1_4",
                        "slot": null,
                        "detail": "SELFDESTRUCT reachable by attacker"
                    },
                    {
                        "kind": "tainted-selfdestruct",
                        "pc": 87,
                        "statement": "B53_1_4",
                        "slot": null,
                        "detail": "beneficiary v21 carries storage taint"
                    },
                    {
                        "kind": "tainted-owner-variable",
                        "pc": -1,
                        "statement": "B1d_1_2",
                        "slot": 0,
                        "detail": "owner-comparison slot 0 is attacker-taintable"
                    }
                ],
                "precision": {
                    "value_tracked_vars": 0,
                    "resolved_store_indices": 1,
                    "unresolved_store_indices": 0,
                    "resolved_load_indices": 2,
                    "unresolved_load_indices": 0,
                    "mapping_accesses": 0,
                    "value_resolved_mappings": 0
                },
                "attempts": 1
            }
        ]
    }
    """
)


def _row(index=0, error=None):
    return (
        BatchEntry(
            index=index,
            kinds=("tainted-owner-variable",),
            error=error,
            elapsed_seconds=0.5,
            statement_count=7,
            warnings=[{"kind": "tainted-owner-variable"}],
        ),
    )


class TestClaims:
    def test_claim_order_memory_then_disk_then_in_flight(self, tmp_path):
        cache_dir = str(tmp_path / "rc")
        ReuseFunnel(cache_dir).resolve("on-disk", _row())
        funnel = ReuseFunnel(cache_dir)
        assert funnel.claim("new", 1) is None
        led = funnel.lead("new")
        joined = funnel.claim("new", 1)
        assert joined.source == JOINED and joined.future is led
        assert funnel.claim("on-disk", 1).source == DISK
        assert funnel.claim("on-disk", 1).source == MEMORY
        funnel.resolve("new", _row(3))
        assert led.result() == _row(3)
        assert funnel.inflight == 0
        assert funnel.claim("new", 1).source == MEMORY

    def test_hits_are_private_copies(self):
        funnel = ReuseFunnel()
        funnel.resolve("k", _row())
        first = funnel.claim("k", 1).future.result()
        first[0].warnings.append({"kind": "edited"})
        first[0].stage_seconds["lift"] = 9.0
        assert funnel.claim("k", 1).future.result() == _row()

    def test_harness_fault_resolves_waiters_but_is_not_stored(self, tmp_path):
        funnel = ReuseFunnel(str(tmp_path / "rc"))
        waiting = funnel.lead("k")
        fault = _row(error="worker_crashed: exit code 9")
        funnel.resolve("k", fault)
        assert waiting.result() == fault
        assert funnel.claim("k", 1) is None
        assert ReuseFunnel(str(tmp_path / "rc")).claim("k", 1) is None

    def test_abandon_cancels_waiters(self):
        funnel = ReuseFunnel()
        waiting = funnel.lead("k")
        funnel.abandon("k")
        assert waiting.cancelled()
        assert funnel.claim("k", 1) is None

    def test_memory_is_bounded(self, monkeypatch):
        monkeypatch.setattr(reuse, "MEMORY_ENTRIES", 2)
        funnel = ReuseFunnel()
        for key in ("a", "b", "c"):
            funnel.resolve(key, _row())
        assert funnel.claim("a", 1) is None
        assert funnel.claim("c", 1).source == MEMORY

    def test_disk_row_of_another_width_is_a_miss(self, tmp_path):
        cache_dir = str(tmp_path / "rc")
        ReuseFunnel(cache_dir).resolve("k", _row())
        assert ReuseFunnel(cache_dir).claim("k", 2) is None


class TestIdentity:
    def test_identity_of_a_stored_record_is_unchanged(self):
        key = WALLET_RECORD["key"]
        config = api.AnalysisConfig()
        assert reuse.identity_key(
            WALLET_RUNTIME, reuse.sweep_fingerprint((config,))
        ) == key
        assert reuse.identity_key(
            WALLET_RUNTIME, reuse.analysis_fingerprint(config)
        ) == key
        assert api.AnalyzeRequest(bytecode=WALLET_RUNTIME).identity() == key

    def test_record_with_cache_counters_hits_and_replays(self, tmp_path):
        cache_dir = str(tmp_path / "rc")
        path = reuse.ResultCache(cache_dir)._path(WALLET_RECORD["key"])
        os.makedirs(os.path.dirname(path))
        with open(path, "w") as handle:
            json.dump(WALLET_RECORD, handle)
        replayed = api.sweep([WALLET_RUNTIME], result_cache=cache_dir)
        fresh = api.sweep([WALLET_RUNTIME])
        assert (replayed.result_cache_hits, fresh.result_cache_hits) == (1, 0)

        def report(summary):
            payload = json.loads(ContractReport.from_entry(summary.entries[0]).to_json())
            del payload["elapsed_seconds"], payload["stage_seconds"]
            return payload

        assert report(replayed) == report(fresh)
        assert report(fresh)["warnings"]


class TestBatchClaims:
    def test_first_position_leads_and_later_ones_join(self, tmp_path):
        cache_dir = str(tmp_path / "rc")
        ReuseFunnel(cache_dir).resolve("cached", _row())
        claims = ReuseFunnel(cache_dir).claim_batch(
            ["a", "cached", "a", "b", "cached"], 1
        )
        assert claims.leads == [0, 3]
        assert claims.joined == {2: 0, 4: 1}
        assert list(claims.found) == [1]
        assert claims.found[1][0].index == 1

    def test_naive_batch_leads_every_unfinished_position(self, tmp_path):
        cache_dir = str(tmp_path / "rc")
        ReuseFunnel(cache_dir).resolve("cached", _row())
        claims = ReuseFunnel(cache_dir).claim_batch(
            ["a", "cached", "a", "cached"], 1, coalesce=False
        )
        assert claims.leads == [0, 2]
        assert claims.joined == {}
        assert sorted(claims.found) == [1, 3]


class TestBackendStress:
    def test_concurrent_duplicates_analyze_each_identity_once(self):
        """Eight threads submit the same identities in the same order while
        the pool thread resolves them: every request gets its identity's
        row, each identity is analyzed once, and every request is counted
        once.  A claim and a lead that were not atomic would let two
        threads lead one identity."""
        corpus = [c.runtime for c in generate_corpus(2, seed=3)]
        tiny = [bytes([0x60, value, 0x00]) for value in range(48)]
        bytecodes = corpus + tiny
        expected = {
            runtime: [w.kind for w in api.analyze(runtime).warnings]
            for runtime in bytecodes
        }
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with PersistentPool(jobs=0) as pool:
                backend = ServingBackend(pool, max_queue=10_000)
                results = []
                lock = threading.Lock()

                def client():
                    for runtime in bytecodes * 2:
                        future = backend.submit(runtime, api.AnalysisConfig())
                        row = future.result(timeout=60)
                        with lock:
                            results.append((runtime, row))

                threads = [threading.Thread(target=client) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(120)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 8 * 2 * len(bytecodes)
        for runtime, row in results:
            assert [w["kind"] for w in row[0].warnings] == expected[runtime]
        stats = backend.stats
        assert stats.analyzed == len(bytecodes)
        assert stats.analyzed + stats.coalesced + stats.report_cache_hits == len(
            results
        )
        assert stats.rejections == 0
        assert backend.inflight_identities == 0
