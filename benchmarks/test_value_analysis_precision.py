"""Value-set stratum precision: the soundness-preserving-shrink property.

The value-analysis configuration may only *remove* warnings relative to the
default configuration (it resolves computed storage indices that the
StorageWrite-2 rule otherwise smears over every known slot), and must
actually remove some on the computed-index templates it was built for.
With the flag off, behavior must be identical to the default pipeline.
"""

import pytest

from benchmarks.conftest import print_table
from repro import api
from repro.core import AnalysisConfig


@pytest.fixture(scope="session")
def analyzed_value(corpus):
    """Value-analysis-configuration results for the whole corpus."""
    from benchmarks.conftest import _analyze_corpus

    return _analyze_corpus(corpus, AnalysisConfig(value_analysis=True))


def _warning_keys(result):
    return {(w.kind, w.slot) for w in result.warnings}


def test_warnings_subset_per_contract(corpus, analyzed, analyzed_value):
    """Per contract: warnings(value-analysis) ⊆ warnings(default)."""
    shrunk = []
    for contract in corpus:
        default_keys = _warning_keys(analyzed.results[contract.index])
        value_keys = _warning_keys(analyzed_value.results[contract.index])
        assert value_keys <= default_keys, (
            contract.template,
            value_keys - default_keys,
        )
        if value_keys < default_keys:
            shrunk.append(contract)

    by_template = {}
    for contract in shrunk:
        by_template[contract.template] = by_template.get(contract.template, 0) + 1
    print_table(
        "Value-set stratum — contracts with strictly fewer warnings",
        ["template", "contracts shrunk"],
        sorted(by_template.items()),
    )

    # The stratum must earn its keep: a strict shrink on at least one
    # computed-index template instance.
    assert any(c.template == "computed_flag_write" for c in shrunk)


def test_computed_index_template_fully_resolved(corpus, analyzed_value):
    """Every computed_flag_write instance is warning-free under the value
    configuration (its index set {0, 1} never reaches the owner slot)."""
    instances = [c for c in corpus if c.template == "computed_flag_write"]
    assert instances  # the corpus exercises the template
    for contract in instances:
        assert analyzed_value.results[contract.index].warnings == []


def test_flag_off_is_identical_to_default(corpus, analyzed):
    """AnalysisConfig(value_analysis=False) is the default — re-running a
    sample must reproduce the default warnings exactly, byte for byte."""
    for contract in corpus[:40]:
        fresh = api.analyze(
            contract.runtime, AnalysisConfig(value_analysis=False)
        )
        default = analyzed.results[contract.index]
        assert [
            (w.kind, w.pc, w.statement, w.slot, w.detail) for w in fresh.warnings
        ] == [
            (w.kind, w.pc, w.statement, w.slot, w.detail) for w in default.warnings
        ], contract.template


def test_precision_counters_aggregate(corpus, analyzed, analyzed_value):
    """The sweep-level precision counters move the right way: the value
    configuration resolves indices the default leaves unresolved."""
    def totals(analyzed_corpus):
        resolved = unresolved = tracked = 0
        for result in analyzed_corpus.results.values():
            resolved += result.precision.resolved_store_indices
            unresolved += result.precision.unresolved_store_indices
            tracked += result.precision.value_tracked_vars
        return resolved, unresolved, tracked

    default_resolved, default_unresolved, default_tracked = totals(analyzed)
    value_resolved, value_unresolved, value_tracked = totals(analyzed_value)

    print_table(
        "Precision counters — default vs value-analysis configuration",
        ["configuration", "resolved stores", "unresolved stores", "tracked vars"],
        [
            ("default", default_resolved, default_unresolved, default_tracked),
            ("value-analysis", value_resolved, value_unresolved, value_tracked),
        ],
    )

    assert default_tracked == 0
    assert value_tracked > 0
    assert value_resolved > default_resolved
    assert value_unresolved < default_unresolved
