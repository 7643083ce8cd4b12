"""Shared benchmark fixtures: one corpus, analyzed once per configuration.

Every benchmark regenerates a table or figure from the paper's §6; the
fixtures here hold the expensive artifacts (corpus generation + whole-corpus
analysis) at session scope so individual benchmarks stay fast.  Each
benchmark prints a paper-vs-measured comparison — absolute numbers differ
(our universe is a synthetic corpus, not the 2019 mainnet), the *shape* is
what must reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import pytest

from repro import api
from repro.core import AnalysisConfig, AnalysisResult
from repro.corpus import CorpusContract, generate_corpus

CORPUS_SIZE = 600
CORPUS_SEED = 2020


@dataclass
class AnalyzedCorpus:
    contracts: List[CorpusContract]
    results: Dict[int, AnalysisResult] = field(default_factory=dict)

    def flagged(self, kind: str) -> List[CorpusContract]:
        return [
            contract
            for contract in self.contracts
            if self.results[contract.index].has(kind)
        ]

    def flagged_any(self) -> List[CorpusContract]:
        return [
            contract
            for contract in self.contracts
            if self.results[contract.index].flagged
        ]


def _analyze_corpus(contracts, config=None) -> AnalyzedCorpus:
    analyzed = AnalyzedCorpus(contracts=contracts)
    for contract in contracts:
        analyzed.results[contract.index] = api.analyze(contract.runtime, config)
    return analyzed


@pytest.fixture(scope="session")
def corpus():
    return generate_corpus(CORPUS_SIZE, seed=CORPUS_SEED)


@pytest.fixture(scope="session")
def analyzed(corpus):
    """Default-configuration Ethainter results for the whole corpus."""
    return _analyze_corpus(corpus)


@pytest.fixture(scope="session")
def analyzed_no_guards(corpus):
    return _analyze_corpus(corpus, AnalysisConfig(model_guards=False))


@pytest.fixture(scope="session")
def analyzed_no_storage(corpus):
    return _analyze_corpus(corpus, AnalysisConfig(model_storage_taint=False))


@pytest.fixture(scope="session")
def analyzed_conservative(corpus):
    return _analyze_corpus(corpus, AnalysisConfig(conservative_storage=True))


def print_table(title: str, headers, rows) -> None:
    """Uniform table printer for paper-vs-measured output."""
    print("\n== %s ==" % title)
    widths = [
        max(len(str(headers[i])), max((len(str(r[i])) for r in rows), default=0))
        for i in range(len(headers))
    ]
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
