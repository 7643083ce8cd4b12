"""The supported public surface of the Ethainter reproduction.

Everything downstream tooling needs lives here.  Three call shapes:

* :func:`analyze` — one contract, one configuration;
* :func:`sweep` — a corpus under one configuration, optionally parallel on
  the supervised orchestrator (watchdog, crash isolation, retries — see
  :mod:`repro.core.orchestrator`), reusing finished work through
  :mod:`repro.core.reuse`;
* :func:`battery` — a corpus under several configurations at once (the
  Fig. 8 ablation shape), sharing each contract's configuration-independent
  stage outputs between its configurations.

Quickstart::

    from repro import api

    result = api.analyze(runtime_bytecode)
    for warning in result.warnings:
        print(warning.kind, warning.detail)

    summary = api.sweep(bytecodes, jobs=8, result_cache="results/")
    # interrupted?  re-run over the same result cache: contracts finished
    # before the interruption are not analyzed again.
"""

from __future__ import annotations

import dataclasses
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.analysis import (
    AnalysisConfig,
    AnalysisResult,
    EthainterAnalysis,
    Warning,
)
from repro.core.batch import BatchEntry, BatchSummary
from repro.core.orchestrator import (
    FaultPlan,
    OrchestratorOptions,
    OrchestratorStats,
    run_sweep,
)
from repro.core.reuse import ResultCache
from repro.core.linkage import (
    BundleContract,
    BundleResult,
    CallEdge,
    ContractBundle,
    CrossContractFinding,
    bundle_contract,
    bundle_from_specs,
    load_bundle_file,
)
from repro.core.linkage import analyze_bundle as _analyze_bundle
from repro.core.report import BundleReport, ContractReport, SweepReport
from repro.core.vulnerabilities import (
    CROSS_CONTRACT_KINDS,
    VULNERABILITY_KINDS,
    Finding,
    UnknownKindError,
    validate_kinds,
)

__all__ = [
    "analyze",
    "analyze_bundle",
    "sweep",
    "battery",
    "AnalyzeRequest",
    "RequestFieldError",
    "AnalysisConfig",
    "AnalysisResult",
    "BatchEntry",
    "BatchSummary",
    "BundleContract",
    "BundleReport",
    "BundleResult",
    "CallEdge",
    "ContractBundle",
    "ContractReport",
    "CrossContractFinding",
    "CROSS_CONTRACT_KINDS",
    "EthainterAnalysis",
    "FaultPlan",
    "Finding",
    "OrchestratorOptions",
    "OrchestratorStats",
    "ResultCache",
    "SweepReport",
    "UnknownKindError",
    "VULNERABILITY_KINDS",
    "Warning",
    "bundle_contract",
    "bundle_from_specs",
    "load_bundle_file",
    "validate_kinds",
]


class RequestFieldError(ValueError):
    """An :class:`AnalyzeRequest` field holds a value of the wrong type."""


# The Figure 8 ablation switches plus value analysis: all plain booleans.
_FLAG_FIELDS = (
    "value_analysis",
    "model_guards",
    "model_storage_taint",
    "conservative_storage",
)


@dataclasses.dataclass(frozen=True)
class AnalyzeRequest:
    """One analysis request as a single frozen value: the contract input
    plus every configuration knob.

    This is the *one* config surface shared by :func:`analyze`,
    :func:`sweep`, :func:`battery`, the ``repro`` CLI, and the HTTP
    request codec behind ``repro serve`` — all of them fold their inputs
    into an ``AnalyzeRequest`` and derive the effective
    :class:`AnalysisConfig` (and the content identity caches key on)
    through the same two methods, so a report produced by any entry point
    is reproducible through every other one.

    The contract input is either ``bytecode`` (runtime bytes) *or*
    ``source`` (MiniSol text, optionally disambiguated by ``contract``)
    — never both.  Both may be omitted when the request is used purely
    as a configuration carrier (e.g. a sweep applies one request's
    configuration to many bytecodes).

    Construction checks every field's *type* and raises
    :class:`RequestFieldError` on a mismatch: the flags are ``bool``,
    ``deadline`` is ``None`` or a positive finite number of seconds
    (stored as a ``float``, so ``5`` and ``5.0`` are one identity),
    ``bytecode`` is ``bytes``, ``source`` / ``contract`` are strings or
    ``None``, ``name`` and ``engine`` are strings, and ``kinds`` is
    ``None`` or a tuple of strings.  A truthy string such as ``"false"``
    must not switch an analysis on.  Checks that need more than the field
    itself happen when a derived view is asked for:

    * :meth:`config` — the effective :class:`AnalysisConfig`; raises
      :class:`~repro.core.pipeline.UnknownEngineError` /
      :class:`UnknownKindError` on bad ``engine`` / ``kinds``;
    * :meth:`runtime` — the runtime bytecode, compiling ``source`` on
      demand; raises :class:`ValueError` when the input is missing,
      ambiguous, or doubled;
    * :meth:`fingerprint` — the configuration fingerprint (the config
      half of every cache identity);
    * :meth:`identity` — ``sha256(bytecode) + fingerprint``, the exact
      key the sweep, :class:`ResultCache` and the serving daemon reuse
      finished work by.

    Being frozen, variants derive with :func:`dataclasses.replace`::

        base = AnalyzeRequest(engine="datalog")
        fast = dataclasses.replace(base, deadline=5.0)
    """

    bytecode: Optional[bytes] = None
    source: Optional[str] = None
    contract: Optional[str] = None  # contract name within ``source``
    # Multi-contract input (repro.core.linkage.ContractBundle); mutually
    # exclusive with bytecode/source.  analyze() on a bundle request
    # returns a BundleResult instead of an AnalysisResult.
    bundle: Optional[ContractBundle] = None
    name: str = ""  # display name for reports
    engine: str = "python"
    kinds: Optional[Tuple[str, ...]] = None
    value_analysis: bool = False
    deadline: Optional[float] = 120.0
    # Figure 8 ablation switches, spelled exactly as AnalysisConfig does.
    model_guards: bool = True
    model_storage_taint: bool = True
    conservative_storage: bool = False

    def __post_init__(self) -> None:
        def expect(name: str, ok: bool, what: str) -> None:
            if not ok:
                raise RequestFieldError(
                    "%s must be %s, not %.40r" % (name, what, getattr(self, name))
                )

        def optional(value, kind) -> bool:
            return value is None or isinstance(value, kind)

        expect("bytecode", optional(self.bytecode, bytes), "bytes or None")
        expect("source", optional(self.source, str), "a string or None")
        expect("contract", optional(self.contract, str), "a string or None")
        expect("bundle", optional(self.bundle, ContractBundle), "a ContractBundle or None")
        expect("name", isinstance(self.name, str), "a string")
        expect("engine", isinstance(self.engine, str), "a string")
        expect(
            "kinds",
            optional(self.kinds, tuple)
            and all(isinstance(kind, str) for kind in self.kinds or ()),
            "a tuple of kind names or None",
        )
        for name in _FLAG_FIELDS:
            expect(name, isinstance(getattr(self, name), bool), "a bool")
        if self.deadline is None:
            return
        expect(
            "deadline",
            isinstance(self.deadline, (int, float))
            and not isinstance(self.deadline, bool)
            and 0 < self.deadline <= sys.float_info.max,
            "a positive number of seconds or None",
        )
        object.__setattr__(self, "deadline", float(self.deadline))

    def config(self) -> AnalysisConfig:
        """The effective :class:`AnalysisConfig`, engine/kinds validated."""
        from repro.core.pipeline import ENGINE_CHOICES, UnknownEngineError

        if self.engine not in ENGINE_CHOICES:
            raise UnknownEngineError(self.engine)
        return AnalysisConfig(
            model_guards=self.model_guards,
            model_storage_taint=self.model_storage_taint,
            conservative_storage=self.conservative_storage,
            value_analysis=self.value_analysis,
            timeout_seconds=self.deadline,
            engine=self.engine,
            kinds=validate_kinds(self.kinds),
        )

    def runtime(self) -> bytes:
        """The runtime bytecode, compiling MiniSol ``source`` if given."""
        if self.bundle is not None:
            if self.bytecode is not None or self.source is not None:
                raise ValueError(
                    "AnalyzeRequest takes a bundle or bytecode/source, "
                    "not both"
                )
            raise ValueError(
                "a bundle request has no single runtime; use analyze() "
                "(which dispatches to analyze_bundle) or the bundle itself"
            )
        if self.bytecode is not None and self.source is not None:
            raise ValueError(
                "AnalyzeRequest takes bytecode or source, not both"
            )
        if self.bytecode is not None:
            return self.bytecode
        if self.source is None:
            raise ValueError(
                "AnalyzeRequest has no contract input (bytecode or source)"
            )
        from repro.minisol import compile_source

        compiled = compile_source(self.source, self.contract)
        if isinstance(compiled, dict):
            raise ValueError(
                "multiple contracts in source; pick one with contract=: %s"
                % ", ".join(sorted(compiled))
            )
        return compiled.runtime

    def fingerprint(self) -> str:
        """The configuration fingerprint (config half of the identity)."""
        from repro.core.reuse import analysis_fingerprint

        return analysis_fingerprint(self.config())

    def identity(self) -> str:
        """``sha256(bytecode) + config fingerprint`` — the key the sweep
        and the daemon reuse finished work by, for this exact request.
        Bundle requests key on the bundle digest instead of a single
        bytecode."""
        if self.bundle is not None:
            if self.bytecode is not None or self.source is not None:
                raise ValueError(
                    "AnalyzeRequest takes a bundle or bytecode/source, "
                    "not both"
                )
            return "bundle:%s:%s" % (self.bundle.digest(), self.fingerprint())
        from repro.core.reuse import identity_key

        return identity_key(self.runtime(), self.fingerprint())


def _coerce_config(
    config: "Union[AnalysisConfig, AnalyzeRequest, None]",
) -> Optional[AnalysisConfig]:
    """Every sweep/battery entry point takes an :class:`AnalysisConfig`
    or an :class:`AnalyzeRequest` used as a configuration carrier."""
    if isinstance(config, AnalyzeRequest):
        return config.config()
    return config


def analyze(
    bytecode: "Union[bytes, AnalyzeRequest]",
    config: Optional[AnalysisConfig] = None,
) -> AnalysisResult:
    """Analyze one contract's runtime bytecode.

    The first argument is runtime bytecode, or a full
    :class:`AnalyzeRequest` (whose input and configuration are both
    honored; passing ``config`` alongside a request is an error).
    """
    if isinstance(bytecode, AnalyzeRequest):
        if config is not None:
            raise ValueError(
                "pass configuration inside the AnalyzeRequest, "
                "not as a separate config"
            )
        request = bytecode
        if request.bundle is not None:
            if request.bytecode is not None or request.source is not None:
                raise ValueError(
                    "AnalyzeRequest takes a bundle or bytecode/source, "
                    "not both"
                )
            return _analyze_bundle(request.bundle, request.config())
        bytecode = request.runtime()
        config = request.config()
    return EthainterAnalysis(config).analyze(bytecode)


def analyze_bundle(
    bundle: "Union[ContractBundle, AnalyzeRequest]",
    config: "Union[AnalysisConfig, AnalyzeRequest, None]" = None,
) -> BundleResult:
    """Analyze a multi-contract :class:`ContractBundle` as one deployment.

    Each contract runs the standard per-contract pipeline; multi-contract
    bundles additionally resolve the inter-contract call graph and run the
    merged namespaced EDB through one Datalog fixpoint with the
    cross-contract strata (``proxy-upgrade-hijack``,
    ``cross-contract-escalation``) — see :mod:`repro.core.linkage`.  A
    one-contract bundle stops after the per-contract pass, so its report
    is byte-identical to :func:`analyze` on that contract.  The members
    and the merged pass spend one budget and share nothing else: each
    member, a repeated one included, is analyzed from its bytecode.
    """
    if isinstance(bundle, AnalyzeRequest):
        if config is not None:
            raise ValueError(
                "pass configuration inside the AnalyzeRequest, "
                "not as a separate config"
            )
        if bundle.bundle is None:
            raise ValueError("AnalyzeRequest has no bundle")
        config = bundle.config()
        bundle = bundle.bundle
    return _analyze_bundle(bundle, _coerce_config(config))


def _options(
    mp_context: Optional[str],
    max_retries: Optional[int],
    dedup: Optional[bool],
    result_cache: Optional[str],
    on_event: Optional[Callable[[Dict], None]],
    options: Optional[OrchestratorOptions],
) -> OrchestratorOptions:
    """Fold the convenience keywords into a (copied) options object; a
    keyword left at its default never overrides an explicit ``options``."""
    options = OrchestratorOptions() if options is None else dataclasses.replace(options)
    if mp_context is not None:
        options.mp_context = mp_context
    if max_retries is not None:
        options.max_retries = max_retries
    if dedup is not None:
        options.dedup = dedup
    if result_cache is not None:
        options.result_cache_path = result_cache
    if on_event is not None:
        options.on_event = on_event
    return options


def sweep(
    bytecodes: Sequence[bytes],
    config: "Union[AnalysisConfig, AnalyzeRequest, None]" = None,
    *,
    jobs: int = 1,
    mp_context: Optional[str] = None,
    max_retries: Optional[int] = None,
    dedup: Optional[bool] = None,
    result_cache: Optional[str] = None,
    on_event: Optional[Callable[[Dict], None]] = None,
    options: Optional[OrchestratorOptions] = None,
) -> BatchSummary:
    """Analyze ``bytecodes`` under one configuration.

    ``jobs > 1`` fans out over the supervised orchestrator's worker
    processes; ``jobs=1`` (or a single submission) runs in process.
    Entries come back ordered by input index regardless of completion
    order.

    Duplicate submissions (same bytecode digest + config fingerprint) are
    coalesced: one leader is analyzed per unique identity and its entry
    fanned out to the duplicates (per-submission ``index`` preserved;
    counters in ``summary.orchestrator`` under ``tasks_total`` /
    ``tasks_unique`` / ``dedup_hits``).  ``dedup=False`` is the naive
    reference that analyzes every submission.  ``result_cache`` names a
    directory for a disk-backed cross-run :class:`ResultCache`: identities
    finished by any earlier sweep (or daemon) are resolved without
    analysis (``result_cache_hits``), and each entry is stored as it
    resolves, so re-running an interrupted sweep over the same directory
    analyzes only what is left.
    """
    config = _coerce_config(config) or AnalysisConfig()
    resolved = _options(
        mp_context, max_retries, dedup, result_cache, on_event, options,
    )
    return run_sweep(bytecodes, (config,), jobs=jobs, options=resolved)[0]


def battery(
    bytecodes: Sequence[bytes],
    configs: "Sequence[Union[AnalysisConfig, AnalyzeRequest]]",
    *,
    jobs: int = 1,
    mp_context: Optional[str] = None,
    max_retries: Optional[int] = None,
    dedup: Optional[bool] = None,
    result_cache: Optional[str] = None,
    on_event: Optional[Callable[[Dict], None]] = None,
    options: Optional[OrchestratorOptions] = None,
) -> List[BatchSummary]:
    """Analyze ``bytecodes`` under every configuration in ``configs``.

    Returns one :class:`BatchSummary` per configuration, index-aligned
    with ``configs``.  All configurations of one contract run as one task,
    so stages whose configuration fields agree (the lift...ordering prefix
    for the Fig. 8 ablations) are computed once per contract.  Duplicate
    submissions coalesce exactly as in :func:`sweep` (the identity spans
    every battery configuration's fingerprint).
    """
    if not configs:
        raise ValueError("battery needs at least one configuration")
    configs = [_coerce_config(config) for config in configs]
    resolved = _options(
        mp_context, max_retries, dedup, result_cache, on_event, options,
    )
    return run_sweep(bytecodes, configs, jobs=jobs, options=resolved)
