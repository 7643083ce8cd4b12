"""The serving backend: admission in front of the reuse funnel and the
warm pool.

Every request is claimed from a :class:`~repro.core.reuse.ReuseFunnel` by
its ``sha256(bytecode) + config fingerprint`` identity, the one
:func:`repro.core.orchestrator.run_sweep` claims by:

1. **completed-work reuse** — an identity already served resolves from
   the funnel's in-memory LRU (``report_cache_hits``), or from the
   optional disk :class:`~repro.core.reuse.ResultCache`
   (``result_cache_hits``) — the very directory a ``repro sweep
   --result-cache`` run populates, so a sweep warms the daemon and vice
   versa;
2. **in-flight coalescing** — a duplicate of a request currently being
   analyzed shares its future instead of queueing twice
   (``coalesced``), the §6.1 duplicate-heavy regime where throughput
   must scale with *unique* bytecode;
3. **bounded admission** — at most ``max_queue`` submissions may be
   open; past that, :class:`QueueFull` (the daemon's HTTP 429).  Reuse
   and coalescing come first, so a duplicate is never rejected;
4. **warm pool** — misses dispatch to the
   :class:`~repro.core.orchestrator.PersistentPool`, whose worker
   processes stay up across requests but keep nothing of one request for
   the next: every analysis runs from its bytecode, so a reply never
   depends on what the worker served before.

Thread-safe by a single lock: the asyncio handler threads submit, the
pool's supervision thread resolves.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Optional

from repro.core.analysis import AnalysisConfig
from repro.core.orchestrator import PersistentPool
from repro.core.reuse import (
    DISK,
    MEMORY,
    ReuseFunnel,
    Row,
    analysis_fingerprint,
    identity_key,
)

__all__ = ["QueueFull", "ServingBackend", "BackendStats"]


class QueueFull(Exception):
    """Admission rejected: too many open requests (HTTP 429)."""


@dataclass
class BackendStats:
    """Serving-funnel counters, rendered into ``/metrics``."""

    analyzed: int = 0  # requests that actually dispatched to the pool
    coalesced: int = 0  # shared an in-flight duplicate's future
    report_cache_hits: int = 0  # resolved from the in-memory LRU
    result_cache_hits: int = 0  # resolved from the cross-run disk cache
    rejections: int = 0  # QueueFull (HTTP 429)


class ServingBackend:
    """Admission over the reuse funnel and a warm pool."""

    def __init__(
        self,
        pool: PersistentPool,
        max_queue: int = 64,
        result_cache: Optional[str] = None,
    ):
        self.pool = pool
        self.max_queue = max(1, max_queue)
        self.funnel = ReuseFunnel(result_cache)
        self.stats = BackendStats()
        self._lock = threading.Lock()

    def submit(self, runtime: bytes, config: AnalysisConfig) -> "Future[Row]":
        """Resolve one request, reusing completed or in-flight work.

        Returns a future of the entry row (1-tuple).  Raises
        :class:`QueueFull` when admission is at capacity — cached and
        coalesced resolutions are *never* rejected: a duplicate costs no
        pool capacity, so it is always admitted.
        """
        identity = identity_key(runtime, analysis_fingerprint(config))
        with self._lock:
            claim = self.funnel.claim(identity, 1)
            if claim is not None:
                if claim.source == MEMORY:
                    self.stats.report_cache_hits += 1
                elif claim.source == DISK:
                    self.stats.result_cache_hits += 1
                else:
                    self.stats.coalesced += 1
                return claim.future
            if self.pool.outstanding >= self.max_queue:
                self.stats.rejections += 1
                raise QueueFull(
                    "analysis queue is full (%d open request(s), max %d)"
                    % (self.pool.outstanding, self.max_queue)
                )
            self.stats.analyzed += 1
            dispatched = self.pool.submit(runtime, config)
            future = self.funnel.lead(identity)
        # Outside the lock: a future already done runs the callback here.
        dispatched.add_done_callback(lambda done: self._resolved(identity, done))
        return future

    @property
    def open_requests(self) -> int:
        return self.pool.outstanding

    @property
    def inflight_identities(self) -> int:
        with self._lock:
            return self.funnel.inflight

    def _resolved(self, identity: str, dispatched: "Future[Row]") -> None:
        """Pool-thread callback: hand the row to the funnel, or cancel the
        waiters of a request the pool dropped."""
        with self._lock:
            if dispatched.cancelled() or dispatched.exception() is not None:
                self.funnel.abandon(identity)
            else:
                self.funnel.resolve(identity, dispatched.result())
