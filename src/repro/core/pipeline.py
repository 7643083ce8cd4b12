"""Staged analysis pipeline with artifact caching and per-stage profiling.

The paper's deployment (§6) analyzes the whole chain under a combined 120 s
decompile+analyze budget per contract, and the evaluation re-runs the same
corpus under four ablation configurations (Fig. 8).  This module makes the
pipeline structure explicit so both workloads are cheap:

* :class:`Stage` — one named step of ``lift -> facts -> storage -> guards ->
  taint -> detect``.  Each stage declares which :class:`AnalysisConfig`
  fields its output actually depends on, so ablation sweeps can tell that
  the expensive lift+extract prefix is configuration-independent.
* :class:`Deadline` — a shared wall-clock budget checked *cooperatively*
  inside the long-running fixpoints (the lifter worklist, the taint
  fixpoint, the Datalog strata), not just between stages.  A runaway
  fixpoint no longer blows through the budget.
* :class:`ArtifactCache` — a bounded, content-addressed store keyed by
  ``(sha256(bytecode), stage name, stage-relevant config fingerprint)``.
  Only *successful* stage outputs are cached, so budget settings never leak
  into cached artifacts.  Running the Fig. 8 four-config battery against
  one corpus re-uses the lift/facts/storage/guards prefix and re-runs only
  taint+detect per configuration.
* :func:`run_pipeline` — drives the stages, recording wall-clock time,
  cache hits, and error state per stage in :class:`StageTiming` entries.

:class:`~repro.core.analysis.EthainterAnalysis` is a thin facade over
:func:`run_pipeline`; batch drivers share one :class:`ArtifactCache` across
configurations.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.facts import extract_facts
from repro.core.guards import build_guard_model
from repro.core.ordering import build_call_order_model
from repro.core.storage_model import build_storage_model
from repro.core.vulnerabilities import UnknownKindError, detect, validate_kinds
from repro.decompiler import LiftError, lift
from repro.ir.value_analysis import analyze_values


class DeadlineExceeded(Exception):
    """A cooperative deadline check fired inside a stage."""


# Taint-stage engine registry: config value -> one-line description (the
# CLI renders these into ``--engine`` help; ``run_pipeline`` validates
# against the key set).
ENGINE_CHOICES: Dict[str, str] = {
    "python": "tuned hand-written Python fixpoint (default, fastest)",
    "datalog": "declarative rules on compiled join plans (paper-faithful)",
}


class UnknownEngineError(ValueError):
    """An :class:`AnalysisConfig` named an engine that does not exist."""

    def __init__(self, engine: str):
        self.engine = engine
        super().__init__(
            "unknown engine %r: valid choices are %s"
            % (engine, ", ".join(sorted(ENGINE_CHOICES)))
        )


class Deadline:
    """A shared wall-clock budget, checked cooperatively by the stages.

    ``seconds=None`` means unlimited.  The object is deliberately tiny and
    duck-typed (``expired()`` / ``check()``) so low-level modules (the
    lifter, the Datalog engine) can honor it without importing this module.
    """

    __slots__ = ("seconds", "started")

    def __init__(self, seconds: Optional[float] = None, started: Optional[float] = None):
        self.seconds = seconds
        self.started = time.monotonic() if started is None else started

    @classmethod
    def unlimited(cls) -> "Deadline":
        return cls(None)

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def remaining(self) -> Optional[float]:
        if self.seconds is None:
            return None
        return self.seconds - self.elapsed()

    def expired(self) -> bool:
        return self.seconds is not None and self.elapsed() > self.seconds

    def check(self) -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        if self.expired():
            raise DeadlineExceeded(
                "deadline of %.3fs exceeded after %.3fs" % (self.seconds, self.elapsed())
            )


# ---------------------------------------------------------------------- cache


def bytecode_digest(runtime_bytecode: bytes) -> str:
    """Content address of a contract: sha256 over the runtime bytecode."""
    return hashlib.sha256(runtime_bytecode).hexdigest()


def config_fingerprint(config, fields: Tuple[str, ...]) -> str:
    """Stable fingerprint of the given :class:`AnalysisConfig` fields.

    Two configs with equal values on ``fields`` produce equal fingerprints,
    so stages that do not read the ablation switches share cache entries
    across ablation configurations.
    """
    if not fields:
        return "-"
    payload = repr([(name, getattr(config, name)) for name in sorted(fields)])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def analysis_fingerprint(config) -> str:
    """Fingerprint over *every* config field, budgets included.

    The per-stage cache fingerprints deliberately exclude budget fields
    (only successful outputs are cached); checkpoint journals must not —
    a journaled ``timeout`` entry is only reusable under the same budget.
    """
    import dataclasses

    return config_fingerprint(
        config, tuple(field.name for field in dataclasses.fields(config))
    )


class ArtifactCache:
    """Bounded LRU cache of stage outputs, content-addressed by bytecode.

    Keys are ``(bytecode sha256, stage name, config fingerprint)``.  The
    cache stores references to the (immutable-by-convention) analysis
    artifacts; hit/miss counters feed batch summaries and ``--profile``
    output.  Thread-safe: batch drivers share one instance.
    """

    def __init__(self, max_entries: int = 4096):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[Tuple[str, str, str], object]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Tuple[str, str, str]):
        """The cached artifact for ``key``, or None (counts hit/miss)."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Tuple[str, str, str], value) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


# --------------------------------------------------------------------- stages


@dataclass
class PipelineContext:
    """Mutable state threaded through the stages of one run."""

    bytecode: bytes
    config: object  # AnalysisConfig (not imported here to avoid a cycle)
    deadline: Deadline
    artifacts: Dict[str, object] = field(default_factory=dict)
    # WarmEngineCache for the datalog tiers: repeat analyses of the same
    # contract repair a live fixpoint (DRed) instead of re-evaluating.
    warm: Optional[object] = None


def _run_lift(ctx: PipelineContext):
    return lift(
        ctx.bytecode,
        max_states=ctx.config.max_lift_states,
        deadline=ctx.deadline,
    )


def _run_facts(ctx: PipelineContext):
    return extract_facts(ctx.artifacts["lift"])


def _run_values(ctx: PipelineContext):
    """The value-analysis stratum: an *enriched copy* of the facts.

    With the flag off this passes the bare facts through unchanged, so
    downstream stages can uniformly consume ``artifacts["values"]``.  The
    enriched facts are a separate cache artifact (the stage fingerprints on
    ``value_analysis``), never a mutation of the shared facts artifact.
    """
    facts = ctx.artifacts["facts"]
    if not getattr(ctx.config, "value_analysis", False):
        return facts
    analysis = analyze_values(facts.program, deadline=ctx.deadline)
    return facts.with_variable_values(analysis.exported())


def _run_storage(ctx: PipelineContext):
    return build_storage_model(ctx.artifacts["values"], deadline=ctx.deadline)


def _run_guards(ctx: PipelineContext):
    return build_guard_model(ctx.artifacts["values"], ctx.artifacts["storage"])


def _run_ordering(ctx: PipelineContext):
    """The reentrancy ordering stratum (taint-independent, like guards)."""
    return build_call_order_model(
        ctx.artifacts["values"], ctx.artifacts["storage"], ctx.artifacts["guards"]
    )


def _run_taint(ctx: PipelineContext):
    options = ctx.config.taint_options()
    options.deadline = ctx.deadline
    if ctx.config.engine == "datalog":
        from repro.core.bytecode_datalog import analyze_with_datalog

        return analyze_with_datalog(
            runtime_bytecode=ctx.bytecode,
            facts=ctx.artifacts["values"],
            storage=ctx.artifacts["storage"],
            guards=ctx.artifacts["guards"],
            ordering=ctx.artifacts["ordering"],
            options=options,
            warm=ctx.warm,
        )
    from repro.core.taint import TaintAnalysis

    return TaintAnalysis(
        ctx.artifacts["values"],
        ctx.artifacts["storage"],
        ctx.artifacts["guards"],
        options,
    ).run()


def _run_detect(ctx: PipelineContext):
    return detect(
        ctx.artifacts["values"],
        ctx.artifacts["storage"],
        ctx.artifacts["guards"],
        ctx.artifacts["taint"],
        ordering=ctx.artifacts["ordering"],
        kinds=validate_kinds(getattr(ctx.config, "kinds", None)),
    )


@dataclass(frozen=True)
class Stage:
    """One pipeline step.

    ``config_fields`` names the :class:`AnalysisConfig` fields this stage's
    *output* depends on; the cache fingerprint of a stage is computed over
    the union of its own fields and every upstream stage's (so a change to
    an early stage's knob invalidates everything downstream).  Budget-only
    fields (``timeout_seconds``, iteration caps that merely abort) are
    excluded: only successful outputs are cached, and a successful output
    is identical under any budget.
    """

    name: str
    run: Callable[[PipelineContext], object]
    config_fields: Tuple[str, ...] = ()


STAGES: Tuple[Stage, ...] = (
    Stage("lift", _run_lift, ("max_lift_states",)),
    Stage("facts", _run_facts),
    Stage("values", _run_values, ("value_analysis",)),
    Stage("storage", _run_storage),
    Stage("guards", _run_guards),
    Stage("ordering", _run_ordering),
    Stage(
        "taint",
        _run_taint,
        ("engine", "model_guards", "model_storage_taint", "conservative_storage"),
    ),
    Stage("detect", _run_detect, ("kinds",)),
)

STAGE_NAMES: Tuple[str, ...] = tuple(stage.name for stage in STAGES)

# The longest prefix of stages whose fingerprints agree across the Fig. 8
# ablation configurations (everything before the taint fixpoint; the
# ablations all leave ``value_analysis`` at its default).
PREFIX_STAGES: Tuple[str, ...] = (
    "lift", "facts", "values", "storage", "guards", "ordering",
)


def stage_fingerprints(config) -> Dict[str, str]:
    """Cumulative per-stage config fingerprints for ``config``."""
    fingerprints: Dict[str, str] = {}
    cumulative: Tuple[str, ...] = ()
    for stage in STAGES:
        cumulative = cumulative + stage.config_fields
        fingerprints[stage.name] = config_fingerprint(config, cumulative)
    return fingerprints


# -------------------------------------------------------------------- driving


@dataclass
class StageTiming:
    """Wall-clock and outcome record for one stage of one run."""

    name: str
    seconds: float = 0.0
    cached: bool = False
    error: Optional[str] = None


@dataclass
class PipelineOutcome:
    """Everything :func:`run_pipeline` produces for one contract."""

    artifacts: Dict[str, object] = field(default_factory=dict)
    timings: List[StageTiming] = field(default_factory=list)
    error: Optional[str] = None  # "timeout" | "lift-error: ..." | None
    deadline_exceeded: bool = False
    cache_hits: int = 0
    cache_misses: int = 0
    elapsed_seconds: float = 0.0

    def stage_seconds(self) -> Dict[str, float]:
        return {timing.name: timing.seconds for timing in self.timings}


def run_pipeline(
    runtime_bytecode: bytes,
    config,
    cache: Optional[ArtifactCache] = None,
    deadline: Optional[Deadline] = None,
    warm: Optional[object] = None,
) -> PipelineOutcome:
    """Run the staged analysis over one contract.

    ``warm`` optionally carries a
    :class:`~repro.core.bytecode_datalog.WarmEngineCache` so repeat datalog
    runs over the same contract repair a live fixpoint incrementally.

    Terminal states are explicit:

    * a stage aborted mid-flight by the budget sets ``error="timeout"`` and
      ``deadline_exceeded=True`` — downstream artifacts are absent;
    * a run that *completes* detection but crosses the budget keeps all its
      artifacts, leaves ``error=None`` and only sets
      ``deadline_exceeded=True`` (late finish — previously such runs were
      double-counted as both flagged and errored);
    * a lift failure sets ``error="lift-error: ..."``.
    """
    engine = getattr(config, "engine", "python")
    if engine not in ENGINE_CHOICES:
        raise UnknownEngineError(engine)
    # Fail fast on a bad kinds filter too (before any stage runs), so the
    # caller sees UnknownKindError instead of a mid-pipeline stage error.
    validate_kinds(getattr(config, "kinds", None))
    started = time.monotonic()
    outcome = PipelineOutcome()
    if deadline is None:
        deadline = Deadline(config.timeout_seconds)

    digest = bytecode_digest(runtime_bytecode) if cache is not None else None
    fingerprints = stage_fingerprints(config) if cache is not None else {}
    context = PipelineContext(
        bytecode=runtime_bytecode, config=config, deadline=deadline, warm=warm
    )

    for stage in STAGES:
        if deadline.expired():
            outcome.error = "timeout"
            outcome.deadline_exceeded = True
            break
        timing = StageTiming(name=stage.name)
        outcome.timings.append(timing)
        key = None
        if cache is not None:
            key = (digest, stage.name, fingerprints[stage.name])
            stage_started = time.monotonic()
            artifact = cache.get(key)
            if artifact is not None:
                timing.seconds = time.monotonic() - stage_started
                timing.cached = True
                outcome.cache_hits += 1
                context.artifacts[stage.name] = artifact
                continue
            outcome.cache_misses += 1
        stage_started = time.monotonic()
        try:
            artifact = stage.run(context)
        except DeadlineExceeded:
            timing.seconds = time.monotonic() - stage_started
            timing.error = "timeout"
            outcome.error = "timeout"
            outcome.deadline_exceeded = True
            break
        except LiftError as error:
            timing.seconds = time.monotonic() - stage_started
            timing.error = str(error)
            outcome.error = "lift-error: %s" % error
            break
        timing.seconds = time.monotonic() - stage_started
        context.artifacts[stage.name] = artifact
        if cache is not None and artifact is not None:
            cache.put(key, artifact)
    else:
        # All stages completed; a crossed deadline is a *late finish*, not
        # an abort — artifacts (and warnings) are kept.
        if deadline.expired():
            outcome.deadline_exceeded = True

    outcome.artifacts = context.artifacts
    outcome.elapsed_seconds = time.monotonic() - started
    return outcome
