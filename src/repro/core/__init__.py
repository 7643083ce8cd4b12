"""Ethainter core: composite information-flow analysis for EVM contracts.

The package implements the paper's contribution twice, at two levels:

* :mod:`repro.core.lang` + :mod:`repro.core.abstract_analysis` — the distilled
  formal model of §4 (Figures 1–4): the abstract input language, two taint
  flavors (input vs. storage), guard sanitization, and sender-keyed
  data-structure modeling.  Implemented both as a direct fixpoint and as
  Datalog rules (:mod:`repro.core.datalog_rules`), cross-checked in tests.
* The bytecode-level analysis of §5 (Figure 5): :mod:`repro.core.facts`
  extracts input relations from decompiled TAC, :mod:`repro.core.guards` and
  :mod:`repro.core.storage_model` compute the static strata
  (``StaticallyGuardedStatement``, DS/DSA, constant slots), and
  :mod:`repro.core.taint` runs the mutually recursive
  taint/attacker-reachability fixpoint.  :mod:`repro.core.vulnerabilities`
  derives the five vulnerability classes, and :mod:`repro.core.analysis`
  orchestrates everything behind :class:`EthainterAnalysis`.
"""

from repro.core.analysis import (
    AnalysisConfig,
    AnalysisResult,
    EthainterAnalysis,
    Warning,
)
from repro.core.pipeline import (
    Deadline,
    DeadlineExceeded,
    Stage,
    StageTiming,
    STAGE_NAMES,
    run_pipeline,
)
from repro.core.vulnerabilities import VULNERABILITY_KINDS

__all__ = [
    "EthainterAnalysis",
    "AnalysisConfig",
    "AnalysisResult",
    "Warning",
    "Deadline",
    "DeadlineExceeded",
    "Stage",
    "StageTiming",
    "STAGE_NAMES",
    "run_pipeline",
    "VULNERABILITY_KINDS",
]
