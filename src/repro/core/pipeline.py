"""Staged analysis pipeline with within-task prefix sharing and per-stage
profiling.

The paper's deployment (§6) analyzes the whole chain under a combined 120 s
decompile+analyze budget per contract, and the evaluation re-runs the same
corpus under four ablation configurations (Fig. 8).  This module makes the
pipeline structure explicit so both workloads are cheap:

* :class:`Stage` — one named step of ``lift -> facts -> storage -> guards ->
  taint -> detect``.  Each stage declares which :class:`AnalysisConfig`
  fields its output actually depends on, so ablation sweeps can tell that
  the expensive lift+extract prefix is configuration-independent.
* :class:`~repro.deadline.Deadline` (re-exported here) — one wall-clock
  budget per run, passed to every stage as ``deadline=``: loops tick it and
  rounds check it, so a runaway stage cannot blow through the budget.
* :func:`run_pipeline` — drives the stages over one contract under each
  configuration of a task, recording wall-clock time, reuse and error
  state per stage in :class:`StageTiming` entries.  A later configuration
  reuses an earlier one's successful stage outputs while their values of
  the stages' cumulative ``config_fields`` agree, so the Fig. 8 battery
  runs the lift...ordering prefix once per contract and only taint+detect
  per configuration.  Nothing outlives the call: reuse across contracts
  and across calls is :mod:`repro.core.reuse`'s, by identity.

:class:`~repro.core.analysis.EthainterAnalysis` is a thin facade over
:func:`run_pipeline` for one configuration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.facts import extract_facts
from repro.core.guards import build_guard_model
from repro.core.ordering import build_call_order_model
from repro.core.storage_model import build_storage_model
from repro.core.vulnerabilities import UnknownKindError, detect, validate_kinds
from repro.deadline import Deadline, DeadlineExceeded
from repro.decompiler import LiftError, lift
from repro.ir.value_analysis import analyze_values

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


# --------------------------------------------------------------------- stages


@dataclass
class PipelineContext:
    """Mutable state threaded through the stages of one run."""

    bytecode: bytes
    config: object  # AnalysisConfig (not imported here to avoid a cycle)
    deadline: Deadline
    artifacts: Dict[str, object] = field(default_factory=dict)


def _run_lift(ctx: PipelineContext):
    return lift(
        ctx.bytecode,
        max_states=ctx.config.max_lift_states,
        deadline=ctx.deadline,
    )


def _run_facts(ctx: PipelineContext):
    return extract_facts(ctx.artifacts["lift"], deadline=ctx.deadline)


def _run_values(ctx: PipelineContext):
    """The value-analysis stratum: an *enriched copy* of the facts.

    With the flag off this passes the bare facts through unchanged, so
    downstream stages can uniformly consume ``artifacts["values"]``.  The
    enriched facts are a separate artifact (the stage's config field is
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
    return build_guard_model(
        ctx.artifacts["values"], ctx.artifacts["storage"], deadline=ctx.deadline
    )


def _run_ordering(ctx: PipelineContext):
    """The reentrancy ordering stratum (taint-independent, like guards)."""
    return build_call_order_model(
        ctx.artifacts["values"], ctx.artifacts["storage"], ctx.artifacts["guards"]
    )


def _run_taint(ctx: PipelineContext):
    options = ctx.config.taint_options()
    if ctx.config.engine == "datalog":
        from repro.core.bytecode_datalog import analyze_with_datalog

        return analyze_with_datalog(
            runtime_bytecode=ctx.bytecode,
            facts=ctx.artifacts["values"],
            storage=ctx.artifacts["storage"],
            guards=ctx.artifacts["guards"],
            ordering=ctx.artifacts["ordering"],
            options=options,
            deadline=ctx.deadline,
        )
    from repro.core.taint import TaintAnalysis

    return TaintAnalysis(
        ctx.artifacts["values"],
        ctx.artifacts["storage"],
        ctx.artifacts["guards"],
        options,
        deadline=ctx.deadline,
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
    *output* depends on.  Two configurations of one task share a stage's
    output while they agree on its fields and on every upstream stage's
    (so a change to an early stage's knob re-runs everything downstream).
    Budget-only fields (``timeout_seconds``, iteration caps that merely
    abort) are excluded: only successful outputs are shared, and a
    successful output is identical under any budget.
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


# -------------------------------------------------------------------- driving


@dataclass
class StageTiming:
    """Wall-clock and outcome record for one stage of one run; ``cached``
    marks an output reused from an earlier configuration of the task."""

    name: str
    seconds: float = 0.0
    cached: bool = False
    error: Optional[str] = None


@dataclass
class PipelineOutcome:
    """Everything :func:`run_pipeline` produces for one configuration."""

    artifacts: Dict[str, object] = field(default_factory=dict)
    timings: List[StageTiming] = field(default_factory=list)
    error: Optional[str] = None  # "timeout" | "lift-error: ..." | None
    deadline_exceeded: bool = False
    elapsed_seconds: float = 0.0

    def stage_seconds(self) -> Dict[str, float]:
        return {timing.name: timing.seconds for timing in self.timings}


def _shared_prefix(config, earlier) -> Dict[str, object]:
    """The longest run of leading stage outputs that one earlier
    ``(config, outcome)`` pair of the task produced and ``config`` may
    reuse: both agree on each of those stages' ``config_fields``."""
    best: Dict[str, object] = {}
    for other, outcome in earlier:
        shared: Dict[str, object] = {}
        for stage in STAGES:
            if stage.name not in outcome.artifacts or any(
                getattr(other, name) != getattr(config, name)
                for name in stage.config_fields
            ):
                break
            shared[stage.name] = outcome.artifacts[stage.name]
        if len(shared) > len(best):
            best = shared
    return best


def run_pipeline(
    runtime_bytecode: bytes,
    configs: Sequence,
    deadline: Optional[Deadline] = None,
) -> List[PipelineOutcome]:
    """Run the staged analysis over one contract under each of a task's
    configurations; returns one outcome per configuration, in order.

    Each configuration runs under ``deadline``, by default a fresh budget
    of its own ``timeout_seconds``.  A later configuration reuses the
    longest prefix of stage outputs an earlier one produced and shares
    with it (see :class:`Stage`), each timed as ``StageTiming(name, 0.0,
    cached=True)``, and runs the rest itself: a stage that timed out or
    failed to lift before re-runs under the later configuration's budget.

    Terminal states are explicit:

    * a stage aborted mid-flight by the budget sets ``error="timeout"`` and
      ``deadline_exceeded=True`` — downstream artifacts are absent;
    * a run that *completes* detection but crosses the budget keeps all its
      artifacts, leaves ``error=None`` and only sets
      ``deadline_exceeded=True`` (late finish — previously such runs were
      double-counted as both flagged and errored);
    * a lift failure sets ``error="lift-error: ..."``.
    """
    for config in configs:
        engine = getattr(config, "engine", "python")
        if engine not in ENGINE_CHOICES:
            raise UnknownEngineError(engine)
        # Fail fast on a bad kinds filter too (before any stage runs), so
        # the caller sees UnknownKindError instead of a mid-pipeline error.
        validate_kinds(getattr(config, "kinds", None))
    outcomes: List[PipelineOutcome] = []
    for position, config in enumerate(configs):
        shared = _shared_prefix(config, zip(configs, outcomes)) if position else {}
        outcomes.append(_run_stages(runtime_bytecode, config, deadline, shared))
    return outcomes


def _run_stages(
    runtime_bytecode: bytes,
    config,
    deadline: Optional[Deadline],
    shared: Dict[str, object],
) -> PipelineOutcome:
    """One configuration's run, taking the ``shared`` outputs as given."""
    started = time.monotonic()
    outcome = PipelineOutcome()
    if deadline is None:
        deadline = Deadline(config.timeout_seconds)
    context = PipelineContext(
        bytecode=runtime_bytecode, config=config, deadline=deadline
    )

    for stage in STAGES:
        if deadline.expired():
            outcome.error = "timeout"
            outcome.deadline_exceeded = True
            break
        if stage.name in shared:
            outcome.timings.append(StageTiming(stage.name, 0.0, cached=True))
            context.artifacts[stage.name] = shared[stage.name]
            continue
        timing = StageTiming(name=stage.name)
        outcome.timings.append(timing)
        stage_started = time.monotonic()
        try:
            context.artifacts[stage.name] = stage.run(context)
        except DeadlineExceeded:
            timing.error = "timeout"
            outcome.error = "timeout"
            outcome.deadline_exceeded = True
            break
        except LiftError as error:
            timing.error = str(error)
            outcome.error = "lift-error: %s" % error
            break
        finally:
            timing.seconds = time.monotonic() - stage_started
    else:
        # All stages completed; a crossed deadline is a *late finish*, not
        # an abort — artifacts (and warnings) are kept.
        if deadline.expired():
            outcome.deadline_exceeded = True

    outcome.artifacts = context.artifacts
    outcome.elapsed_seconds = time.monotonic() - started
    return outcome
