"""Structured reporting: JSON-serializable analysis reports (schema v2).

The live deployment the paper describes (contract-library.com) publishes
per-contract vulnerability reports and chain-level statistics; this module
provides the equivalent report objects for single contracts and batch
sweeps, used by the CLI's ``analyze --json`` and ``sweep`` commands.

Schema v2 contract: both report shapes carry ``"schema_version": 2`` and
use the same key names for the shared blocks — ``stage_seconds``,
``precision``, ``datalog`` — plus the sweep-level ``orchestrator`` block
(crash/watchdog/retry/dedup counters from
:mod:`repro.core.orchestrator`).  :meth:`ContractReport.from_json` and
:meth:`SweepReport.from_json` reconstruct reports losslessly, so
downstream tooling can parse and re-emit reports without touching analyzer
internals: ``from_json(report.to_json()).to_json()`` is byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields as dataclass_fields
from typing import Dict, List, Optional, Union

from repro.core.analysis import AnalysisResult
from repro.core.batch import BatchEntry, _entry_from_result
from repro.core.vulnerabilities import VULNERABILITY_KINDS

SCHEMA_VERSION = 2

# Every schema version from_json can still parse, oldest first.  The
# unsupported-version error interpolates this tuple, so the message stays
# correct as versions are added without touching the format string.
SUPPORTED_SCHEMA_VERSIONS = (1, SCHEMA_VERSION)


def _parse_payload(data: Union[str, Dict], kind: str) -> Dict:
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise ValueError("%s payload must be a JSON object" % kind)
    version = data.get("schema_version", 1)
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        raise ValueError(
            "unsupported %s schema_version %r (supported: %s)"
            % (
                kind,
                version,
                ", ".join(str(v) for v in SUPPORTED_SCHEMA_VERSIONS),
            )
        )
    return data


@dataclass
class ContractReport:
    """One contract's analysis, ready for serialization."""

    schema_version: int = SCHEMA_VERSION
    name: str = ""
    bytecode_size: int = 0
    block_count: int = 0
    statement_count: int = 0
    elapsed_seconds: float = 0.0
    error: Optional[str] = None
    deadline_exceeded: bool = False
    warnings: List[Dict] = field(default_factory=list)
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    precision: Dict[str, int] = field(default_factory=dict)
    # Datalog engine counters when a datalog engine ran the taint stage;
    # None for the tuned Python fixpoint.  Reports built from a full
    # AnalysisResult carry EngineStats.as_dict() (including per-rule
    # derivation counts); reports built from compact batch entries carry
    # the scalar counters only.
    datalog: Optional[Dict] = None

    @classmethod
    def from_result(
        cls, result: AnalysisResult, name: str = "", bytecode_size: int = 0
    ) -> "ContractReport":
        return cls.from_entry(
            _entry_from_result(0, result), name=name, bytecode_size=bytecode_size
        )

    @classmethod
    def from_entry(
        cls, entry: BatchEntry, name: str = "", bytecode_size: int = 0
    ) -> "ContractReport":
        """Build a report from a compact batch entry (sweep workers return
        entries, not full results)."""
        return cls(
            name=name,
            bytecode_size=bytecode_size,
            block_count=entry.block_count,
            statement_count=entry.statement_count,
            elapsed_seconds=round(entry.elapsed_seconds, 6),
            error=entry.error,
            deadline_exceeded=entry.deadline_exceeded,
            warnings=[dict(warning) for warning in entry.warnings],
            stage_seconds={
                name: round(seconds, 6)
                for name, seconds in entry.stage_seconds.items()
            },
            precision=dict(entry.precision),
            datalog=dict(entry.datalog) if entry.datalog else None,
        )

    @classmethod
    def from_json(cls, data: Union[str, Dict]) -> "ContractReport":
        """Reconstruct a report from :meth:`to_json` output (round-trip
        lossless: re-serializing yields byte-identical JSON)."""
        payload = _parse_payload(data, "ContractReport")
        known = {f.name for f in dataclass_fields(cls)}
        report = cls(**{k: v for k, v in payload.items() if k in known})
        report.schema_version = SCHEMA_VERSION
        return report

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(asdict(self), indent=indent)


@dataclass
class SweepReport:
    """Aggregate over a batch of contracts (the §6.2 statistics shape)."""

    schema_version: int = SCHEMA_VERSION
    total_contracts: int = 0
    analyzed: int = 0
    errors: int = 0
    flagged: int = 0
    deadline_exceeded: int = 0
    kind_counts: Dict[str, int] = field(
        default_factory=lambda: {kind: 0 for kind in VULNERABILITY_KINDS}
    )
    total_elapsed_seconds: float = 0.0
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    precision: Dict[str, int] = field(default_factory=dict)
    # Summed Datalog engine counters over contracts that ran a datalog
    # engine (derived_facts, join_probes, iterations, ...).
    datalog: Dict[str, int] = field(default_factory=dict)
    # Sweep-executor health counters (OrchestratorStats.as_dict()):
    # crashes, watchdog_kills, retries, recycles, plus the dedup
    # accounting (tasks_total/tasks_unique/dedup_hits/result_cache_hits)
    # — round-tripped verbatim by from_json.
    orchestrator: Dict[str, object] = field(default_factory=dict)
    contracts: List[ContractReport] = field(default_factory=list)
    # Parsed ``error_kind_counts`` kept as a fallback so a summary-only
    # report (``include_contracts=False``) still round-trips the error
    # taxonomy; recomputed from ``contracts`` whenever they are present.
    error_kind_fallback: Dict[str, int] = field(default_factory=dict)

    def add(self, report: ContractReport) -> None:
        self.total_contracts += 1
        self.total_elapsed_seconds += report.elapsed_seconds
        for name, seconds in report.stage_seconds.items():
            self.stage_seconds[name] = self.stage_seconds.get(name, 0.0) + seconds
        for name, count in report.precision.items():
            self.precision[name] = self.precision.get(name, 0) + count
        if report.datalog:
            for name, value in report.datalog.items():
                if isinstance(value, int):
                    self.datalog[name] = self.datalog.get(name, 0) + value
        if report.deadline_exceeded:
            self.deadline_exceeded += 1
        if report.error:
            # Aborted run (timeout mid-stage, lift failure, worker crash):
            # no valid warnings.  Late finishes arrive with error=None and
            # deadline_exceeded=True and are counted as analyzed — they are
            # never double-counted as both flagged and errored.
            self.errors += 1
            self.contracts.append(report)
            return
        self.analyzed += 1
        if report.warnings:
            self.flagged += 1
        for warning in report.warnings:
            self.kind_counts[warning["kind"]] = (
                self.kind_counts.get(warning["kind"], 0) + 1
            )
        self.contracts.append(report)

    @property
    def flag_rate(self) -> float:
        return self.flagged / self.analyzed if self.analyzed else 0.0

    def error_kind_counts(self) -> Dict[str, int]:
        """Errored contracts bucketed by taxonomy prefix (``timeout``,
        ``lift-error``, ``worker_crashed``, ``watchdog_killed``, ...)."""
        counts: Dict[str, int] = {}
        for report in self.contracts:
            if report.error:
                kind = report.error.split(":", 1)[0].strip()
                counts[kind] = counts.get(kind, 0) + 1
        if not counts and not self.contracts:
            return dict(self.error_kind_fallback)
        return counts

    def summary(self) -> Dict:
        total_elapsed = round(self.total_elapsed_seconds, 6)
        return {
            "schema_version": self.schema_version,
            "total_contracts": self.total_contracts,
            "analyzed": self.analyzed,
            "errors": self.errors,
            "error_kind_counts": self.error_kind_counts(),
            "flagged": self.flagged,
            "deadline_exceeded": self.deadline_exceeded,
            "flag_rate": round(self.flag_rate, 4),
            "kind_counts": dict(self.kind_counts),
            "total_elapsed_seconds": total_elapsed,
            "avg_elapsed_seconds": round(
                total_elapsed / max(self.total_contracts, 1), 6
            ),
            "stage_seconds": {
                name: round(seconds, 6)
                for name, seconds in sorted(self.stage_seconds.items())
            },
            "precision": {
                name: count for name, count in sorted(self.precision.items())
            },
            "datalog": {
                name: count for name, count in sorted(self.datalog.items())
            },
            "orchestrator": dict(self.orchestrator),
        }

    @classmethod
    def from_json(cls, data: Union[str, Dict]) -> "SweepReport":
        """Reconstruct a sweep report from :meth:`to_json` output
        (round-trip lossless when contracts were included)."""
        payload = _parse_payload(data, "SweepReport")
        report = cls(
            total_contracts=payload.get("total_contracts", 0),
            analyzed=payload.get("analyzed", 0),
            errors=payload.get("errors", 0),
            flagged=payload.get("flagged", 0),
            deadline_exceeded=payload.get("deadline_exceeded", 0),
            kind_counts=dict(payload.get("kind_counts") or {}),
            total_elapsed_seconds=payload.get("total_elapsed_seconds", 0.0),
            stage_seconds=dict(payload.get("stage_seconds") or {}),
            precision=dict(payload.get("precision") or {}),
            datalog=dict(payload.get("datalog") or {}),
            orchestrator=dict(payload.get("orchestrator") or {}),
            contracts=[
                ContractReport.from_json(contract)
                for contract in payload.get("contracts") or []
            ],
            error_kind_fallback=dict(payload.get("error_kind_counts") or {}),
        )
        return report

    def to_json(self, indent: int = 2, include_contracts: bool = True) -> str:
        payload = self.summary()
        if include_contracts:
            payload["contracts"] = [asdict(report) for report in self.contracts]
        return json.dumps(payload, indent=indent)


@dataclass
class BundleReport:
    """A multi-contract bundle's analysis (:mod:`repro.core.linkage`).

    Carries one :class:`ContractReport` per bundle contract (keyed by hex
    address) plus the cross-contract layer: the resolved call graph and the
    merged-fixpoint verdicts, and the bundle's terminal state (``error``,
    ``deadline_exceeded``: see :class:`~repro.core.linkage.BundleResult`).
    A *single-contract* bundle renders as that contract's plain
    :class:`ContractReport` JSON — byte-identical to ``repro analyze
    --json`` on the same contract, with no cross block.
    """

    schema_version: int = SCHEMA_VERSION
    contracts: List[ContractReport] = field(default_factory=list)
    addresses: List[str] = field(default_factory=list)
    error: Optional[str] = None
    deadline_exceeded: bool = False
    call_edges: List[Dict] = field(default_factory=list)
    cross_warnings: List[Dict] = field(default_factory=list)
    datalog: Optional[Dict] = None

    @classmethod
    def from_result(cls, result: "BundleResult") -> "BundleReport":
        contracts: List[ContractReport] = []
        addresses: List[str] = []
        for contract in result.bundle.contracts:
            addresses.append("0x%x" % contract.address)
            contracts.append(
                ContractReport.from_result(
                    result.results[contract.address],
                    name=contract.label(),
                    bytecode_size=len(contract.runtime()),
                )
            )
        return cls(
            contracts=contracts,
            addresses=addresses,
            error=result.error,
            deadline_exceeded=result.deadline_exceeded,
            call_edges=[
                {
                    "caller": "0x%x" % edge.caller,
                    "site": edge.site,
                    "pc": edge.pc,
                    "kind": edge.kind,
                    "callee": (
                        "0x%x" % edge.callee if edge.callee is not None else None
                    ),
                    "slot": edge.slot,
                }
                for edge in result.call_edges
            ],
            cross_warnings=[
                {
                    "kind": finding.kind,
                    "address": "0x%x" % finding.address,
                    "pc": finding.pc,
                    "statement": finding.statement,
                    "slot": finding.slot,
                    "via": (
                        "0x%x" % finding.via if finding.via is not None else None
                    ),
                    "detail": finding.detail,
                }
                for finding in result.cross_findings
            ],
            datalog=result.engine_stats,
        )

    @classmethod
    def from_json(cls, data: Union[str, Dict]) -> "BundleReport":
        payload = _parse_payload(data, "BundleReport")
        known = {f.name for f in dataclass_fields(cls)}
        report = cls(
            **{
                k: v
                for k, v in payload.items()
                if k in known and k != "contracts"
            }
        )
        report.contracts = [
            ContractReport.from_json(contract)
            for contract in payload.get("contracts") or []
        ]
        report.schema_version = SCHEMA_VERSION
        return report

    @property
    def flagged(self) -> bool:
        return bool(self.cross_warnings) or any(
            report.warnings for report in self.contracts
        )

    def to_json(self, indent: int = 2) -> str:
        if len(self.contracts) == 1 and not self.cross_warnings:
            # Single-contract bundles degrade to the exact per-contract
            # report shape (the byte-identity contract with `repro
            # analyze --json`).
            return self.contracts[0].to_json(indent=indent)
        payload = {
            "schema_version": self.schema_version,
            "addresses": list(self.addresses),
            "error": self.error,
            "deadline_exceeded": self.deadline_exceeded,
            "contracts": [asdict(report) for report in self.contracts],
            "call_edges": list(self.call_edges),
            "cross_warnings": list(self.cross_warnings),
            "datalog": self.datalog,
        }
        return json.dumps(payload, indent=indent)
