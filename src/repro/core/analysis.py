"""The Ethainter analysis facade.

:class:`EthainterAnalysis` drives the staged pipeline in
:mod:`repro.core.pipeline`:

    bytecode --lift--> TAC --extract--> facts --static strata--> storage/guard
    models --fixpoint--> taint --detect--> findings

with a per-contract wall-clock budget (the paper uses a combined 120 s
decompile+analyze cutoff; §6) enforced cooperatively inside the fixpoints,
the Figure 8 ablation switches on :class:`AnalysisConfig`, and an optional
shared :class:`~repro.core.pipeline.ArtifactCache` that lets ablation
sweeps re-use the configuration-independent lift+extract prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.facts import ContractFacts
from repro.core.guards import GuardModel
from repro.core.ordering import CallOrderModel
from repro.core.pipeline import ArtifactCache, StageTiming, run_pipeline
from repro.core.storage_model import StorageModel
from repro.core.taint import TaintOptions, TaintResult
from repro.core.vulnerabilities import Finding, VULNERABILITY_KINDS
from repro.ir.tac import TACProgram


@dataclass
class AnalysisConfig:
    """Analysis switches; defaults reproduce the paper's tuned design.

    The three ablation flags correspond to Figure 8:

    * ``model_storage_taint=False`` — 8a "No Storage Modeling" (completeness
      drops: composite, multi-transaction chains are lost),
    * ``model_guards=False`` — 8b "No Guard Modeling" (precision collapses:
      every owner-guarded operation looks attacker-reachable),
    * ``conservative_storage=True`` — 8c "Conservative Storage Modeling"
      (precision drops: unknown-address stores smear taint over all slots).

    ``value_analysis`` enables the bounded value-set stratum
    (:mod:`repro.ir.value_analysis`): computed storage indices resolve to
    small candidate sets, shrinking the StorageWrite-2 blast radius and
    recovering mapping accesses whose base slot is not directly constant.
    Off by default so the battery can measure its precision delta.
    """

    model_guards: bool = True
    model_storage_taint: bool = True
    conservative_storage: bool = False
    value_analysis: bool = False
    timeout_seconds: float = 120.0
    max_lift_states: int = 20_000
    # Which fixpoint engine runs the taint rules: the tuned Python fixpoint
    # (default) or the declarative Datalog rules on compiled join plans
    # ("datalog"; paper-faithful, cross-checked equal in the test suite).
    # The Datalog path does not reconstruct per-variable witnesses, so
    # warning detail text is terser.  The valid set lives in
    # :data:`repro.core.pipeline.ENGINE_CHOICES`.
    engine: str = "python"
    # Optional restriction of reported warnings to a subset of
    # :data:`repro.core.vulnerabilities.VULNERABILITY_KINDS` (the CLI
    # ``--kinds`` flag).  ``None`` reports every family; unknown names
    # raise :class:`repro.core.vulnerabilities.UnknownKindError` before
    # any stage runs.
    kinds: Optional[Tuple[str, ...]] = None

    def taint_options(self) -> TaintOptions:
        return TaintOptions(
            model_guards=self.model_guards,
            model_storage_taint=self.model_storage_taint,
            conservative_storage=self.conservative_storage,
        )


@dataclass
class PrecisionCounters:
    """Resolution statistics for one contract (``--profile`` / JSON report)."""

    value_tracked_vars: int = 0  # vars with a bounded value set
    resolved_store_indices: int = 0  # constant or value-set bounded
    unresolved_store_indices: int = 0
    resolved_load_indices: int = 0
    unresolved_load_indices: int = 0
    mapping_accesses: int = 0
    value_resolved_mappings: int = 0  # recovered only via value analysis

    def as_dict(self) -> Dict[str, int]:
        return {
            "value_tracked_vars": self.value_tracked_vars,
            "resolved_store_indices": self.resolved_store_indices,
            "unresolved_store_indices": self.unresolved_store_indices,
            "resolved_load_indices": self.resolved_load_indices,
            "unresolved_load_indices": self.unresolved_load_indices,
            "mapping_accesses": self.mapping_accesses,
            "value_resolved_mappings": self.value_resolved_mappings,
        }


@dataclass
class Warning:
    """User-facing warning: a finding plus contract context."""

    kind: str
    pc: int
    statement: str
    detail: str
    slot: Optional[int] = None

    @classmethod
    def from_finding(cls, finding: Finding) -> "Warning":
        return cls(
            kind=finding.kind,
            pc=finding.pc,
            statement=finding.statement,
            detail=finding.detail,
            slot=finding.slot,
        )


@dataclass
class AnalysisResult:
    """Everything produced for one contract.

    Terminal states are explicit and never overlap:

    * ``error == "timeout"`` — a stage was *aborted* by the budget; there
      are no warnings (``deadline_exceeded`` is also True).
    * ``error is None`` and ``deadline_exceeded`` — the run *completed*
      (warnings are valid) but crossed the budget late; it must be counted
      as analyzed, not errored.
    * ``error == "lift-error: ..."`` — decompilation failed.
    """

    warnings: List[Warning] = field(default_factory=list)
    error: Optional[str] = None  # "timeout" | "lift-error: ..." | None
    deadline_exceeded: bool = False
    elapsed_seconds: float = 0.0
    block_count: int = 0
    statement_count: int = 0
    stage_timings: List[StageTiming] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    precision: PrecisionCounters = field(default_factory=PrecisionCounters)
    # Datalog EngineStats.as_dict() when a datalog engine ran the taint
    # stage (per-rule derivation counts, join/index probes, iterations).
    datalog_stats: Optional[Dict] = None
    taint: Optional[TaintResult] = None
    facts: Optional[ContractFacts] = None
    guards: Optional[GuardModel] = None
    storage: Optional[StorageModel] = None
    ordering: Optional[CallOrderModel] = None
    program: Optional[TACProgram] = None

    @property
    def timed_out(self) -> bool:
        """True when the budget *aborted* the run (late finishes are not
        timeouts: their warnings are valid and they count as analyzed)."""
        return self.error == "timeout"

    @property
    def flagged(self) -> bool:
        return bool(self.warnings)

    def stage_seconds(self) -> Dict[str, float]:
        """Per-stage wall-clock seconds (the ``--profile`` breakdown)."""
        return {timing.name: timing.seconds for timing in self.stage_timings}

    def kinds(self) -> Dict[str, int]:
        counts = {kind: 0 for kind in VULNERABILITY_KINDS}
        for warning in self.warnings:
            counts[warning.kind] = counts.get(warning.kind, 0) + 1
        return counts

    def has(self, kind: str) -> bool:
        return any(warning.kind == kind for warning in self.warnings)


class EthainterAnalysis:
    """Analyzes one contract's runtime bytecode.

    Passing a shared :class:`ArtifactCache` makes repeated analyses of the
    same bytecode (and ablation sweeps over it) re-use every stage output
    whose configuration fingerprint matches.
    """

    def __init__(
        self,
        config: Optional[AnalysisConfig] = None,
        cache: Optional[ArtifactCache] = None,
        warm: Optional[object] = None,
    ):
        self.config = config or AnalysisConfig()
        self.cache = cache
        # Optional WarmEngineCache shared across analyses so the datalog
        # tiers repair a live fixpoint instead of recomputing (Fig. 8
        # ablation batteries, repeated api.analyze calls).
        self.warm = warm

    def analyze(self, runtime_bytecode: bytes) -> AnalysisResult:
        """Run the staged pipeline (lift, model, fixpoint, detect)."""
        outcome = run_pipeline(
            runtime_bytecode, self.config, cache=self.cache, warm=self.warm
        )
        result = AnalysisResult(
            error=outcome.error,
            deadline_exceeded=outcome.deadline_exceeded,
            elapsed_seconds=outcome.elapsed_seconds,
            stage_timings=outcome.timings,
            cache_hits=outcome.cache_hits,
            cache_misses=outcome.cache_misses,
        )
        artifacts = outcome.artifacts
        program = artifacts.get("lift")
        if program is not None:
            result.program = program
            result.block_count = len(program.blocks)
            result.statement_count = sum(
                len(block.statements) for block in program.blocks.values()
            )
        # Downstream consumers see the (possibly) value-enriched facts.
        result.facts = artifacts.get("values", artifacts.get("facts"))
        result.storage = artifacts.get("storage")
        result.guards = artifacts.get("guards")
        result.ordering = artifacts.get("ordering")
        result.taint = artifacts.get("taint")
        result.datalog_stats = getattr(result.taint, "engine_stats", None)
        findings = artifacts.get("detect")
        if findings is not None:
            result.warnings = [
                Warning.from_finding(finding) for finding in findings
            ]
        _fill_precision(result)
        return result


def _fill_precision(result: AnalysisResult) -> None:
    """Populate :class:`PrecisionCounters` from the finished artifacts."""
    counters = result.precision
    facts, storage = result.facts, result.storage
    if facts is not None:
        counters.value_tracked_vars = len(facts.variable_values)
    if storage is not None:
        for store in storage.facts.storage_stores:
            if (
                store.const_slot is not None
                or store.statement.ident in storage.resolved_store_slots
            ):
                counters.resolved_store_indices += 1
            else:
                counters.unresolved_store_indices += 1
        for load in storage.facts.storage_loads:
            if (
                load.const_slot is not None
                or load.statement.ident in storage.resolved_load_slots
            ):
                counters.resolved_load_indices += 1
            else:
                counters.unresolved_load_indices += 1
        counters.mapping_accesses = len(storage.mapping_accesses)
        counters.value_resolved_mappings = storage.value_resolved_mappings
