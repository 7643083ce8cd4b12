"""Reproduction of "Ethainter: A Smart Contract Security Analyzer for
Composite Vulnerabilities" (Brent, Grech, Lagouvardos, Scholz, Smaragdakis;
PLDI 2020).

:mod:`repro.api` is the supported public surface; see DESIGN.md for the
system inventory.

Quickstart::

    from repro import api, compile_source

    contract = compile_source(source_text)
    result = api.analyze(contract.runtime)
    for warning in result.warnings:
        print(warning.kind, warning.detail)

    summary = api.sweep(bytecodes, jobs=8, result_cache="results/")
"""

from repro import api
from repro.core import (
    AnalysisConfig,
    AnalysisResult,
    EthainterAnalysis,
    Warning,
)
from repro.minisol import compile_source

__version__ = "1.1.0"

__all__ = [
    "api",
    "compile_source",
    "EthainterAnalysis",
    "AnalysisConfig",
    "AnalysisResult",
    "Warning",
    "__version__",
]
