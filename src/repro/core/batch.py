"""Batch analysis data model.

The paper analyzes the whole chain with "45 concurrent analysis processes"
(§6).  The supervised driver for that workload lives in
:mod:`repro.core.orchestrator` (watchdog, crash isolation, retries, worker
recycling, result-cache reuse); this module keeps the wire/data model —
:class:`BatchEntry` / :class:`BatchSummary` — that workers, the in-process
path and every report builder share.

Worker processes return compact :class:`BatchEntry` summaries rather than
full :class:`~repro.core.analysis.AnalysisResult` objects — the heavyweight
artifacts (TAC program, taint sets) do not pickle cheaply; entries carry
just the verdicts (kinds plus warning records), the per-stage timing
profile, and scalar counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.analysis import AnalysisResult


@dataclass
class BatchEntry:
    """Per-contract summary from a batch run.

    ``error`` carries a taxonomy prefix before the first ``:`` —
    ``timeout`` and ``lift-error`` come from the analysis itself;
    ``worker_crashed``, ``watchdog_killed`` and ``task_failed`` come from
    the orchestrator (see :attr:`error_kind`).
    """

    index: int
    kinds: Tuple[str, ...]
    error: Optional[str]
    elapsed_seconds: float
    statement_count: int
    deadline_exceeded: bool = False
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    # Datalog engine counters (derived_facts, join_probes, iterations, ...)
    # when a datalog engine ran the taint stage — the full
    # ``EngineStats.as_dict()`` payload, non-scalar members (per-rule
    # derivation maps, per-stratum iteration lists) included, so a report
    # built from an entry is byte-identical to one built from the
    # in-process result.  Aggregators sum only the int-valued counters.
    datalog: Dict[str, object] = field(default_factory=dict)
    block_count: int = 0
    # Full warning records ({kind, pc, statement, slot, detail}) so sweep
    # reports built from batch entries match single-contract reports.
    warnings: List[Dict] = field(default_factory=list)
    precision: Dict[str, int] = field(default_factory=dict)
    # How many dispatch attempts this task took (orchestrator retries).
    attempts: int = 1

    @property
    def flagged(self) -> bool:
        return bool(self.kinds)

    @property
    def error_kind(self) -> Optional[str]:
        """The error taxonomy bucket: the prefix before the first ``:``."""
        if not self.error:
            return None
        return self.error.split(":", 1)[0].strip()


@dataclass
class BatchSummary:
    entries: List[BatchEntry] = field(default_factory=list)
    # Set when the process pool could not be used and the batch fell back
    # to in-process execution (previously this degradation was silent).
    degraded: bool = False
    degraded_reason: str = ""
    # Orchestrator counters (crashes, watchdog_kills, retries, recycles,
    # dedup_hits, ...) for the sweep that produced this summary.  See
    # OrchestratorStats.as_dict().
    orchestrator: Dict[str, object] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return len(self.entries)

    @property
    def flagged(self) -> int:
        return sum(1 for entry in self.entries if entry.flagged)

    @property
    def errors(self) -> int:
        return sum(1 for entry in self.entries if entry.error)

    @property
    def deadline_exceeded(self) -> int:
        """Runs that crossed the budget (aborted *or* late-finished)."""
        return sum(1 for entry in self.entries if entry.deadline_exceeded)

    def _orchestrator_count(self, name: str) -> int:
        value = self.orchestrator.get(name, 0)
        return int(value) if isinstance(value, (int, float)) else 0

    @property
    def tasks_total(self) -> int:
        """Submissions in the sweep (duplicates included)."""
        return self._orchestrator_count("tasks_total")

    @property
    def tasks_unique(self) -> int:
        """Unique sweep identities (sha256(bytecode) + config fingerprint)."""
        return self._orchestrator_count("tasks_unique")

    @property
    def dedup_hits(self) -> int:
        """Duplicate submissions resolved by fanning out a representative."""
        return self._orchestrator_count("dedup_hits")

    @property
    def result_cache_hits(self) -> int:
        """Identities resolved from the cross-run disk result cache."""
        return self._orchestrator_count("result_cache_hits")

    def kind_counts(self) -> Dict[str, int]:
        from repro.core.vulnerabilities import VULNERABILITY_KINDS

        counts = {kind: 0 for kind in VULNERABILITY_KINDS}
        for entry in self.entries:
            for kind in entry.kinds:
                counts[kind] = counts.get(kind, 0) + 1
        return counts

    def error_kind_counts(self) -> Dict[str, int]:
        """Errored entries bucketed by taxonomy prefix."""
        counts: Dict[str, int] = {}
        for entry in self.entries:
            kind = entry.error_kind
            if kind:
                counts[kind] = counts.get(kind, 0) + 1
        return counts

    def stage_seconds(self) -> Dict[str, float]:
        """Aggregate wall-clock per pipeline stage across all entries."""
        totals: Dict[str, float] = {}
        for entry in self.entries:
            for name, seconds in entry.stage_seconds.items():
                totals[name] = totals.get(name, 0.0) + seconds
        return totals

    def datalog_totals(self) -> Dict[str, int]:
        """Summed Datalog engine counters across all entries (empty when
        the batch ran on the Python fixpoint) — slow contracts are
        diagnosable from derivation/probe volume without rerunning.
        Non-scalar stats members (per-rule maps, per-stratum lists) are
        per-entry detail and are skipped here."""
        totals: Dict[str, int] = {}
        for entry in self.entries:
            for name, value in entry.datalog.items():
                if isinstance(value, int):
                    totals[name] = totals.get(name, 0) + value
        return totals

    @property
    def total_analysis_seconds(self) -> float:
        return sum(entry.elapsed_seconds for entry in self.entries)


def _entry_from_result(index: int, result: AnalysisResult) -> BatchEntry:
    stats = result.datalog_stats or {}
    return BatchEntry(
        index=index,
        kinds=tuple(sorted({warning.kind for warning in result.warnings})),
        error=result.error,
        elapsed_seconds=result.elapsed_seconds,
        statement_count=result.statement_count,
        deadline_exceeded=result.deadline_exceeded,
        stage_seconds=result.stage_seconds(),
        datalog=dict(stats),
        block_count=result.block_count,
        warnings=[
            {
                "kind": warning.kind,
                "pc": warning.pc,
                "statement": warning.statement,
                "slot": warning.slot,
                "detail": warning.detail,
            }
            for warning in result.warnings
        ],
        precision=result.precision.as_dict(),
    )
