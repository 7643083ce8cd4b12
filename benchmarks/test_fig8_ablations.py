"""Figure 8: effect of the analysis design decisions, as report-count
ratios normalized to the default configuration.

Paper values (ratio of reports vs. the tuned default):

  8a  No storage modeling (completeness drops):
        tainted selfdestruct 0.44, tainted owner 0.75,
        unchecked staticcall 0.75, tainted delegatecall 0.69
  8b  No guard modeling (precision collapses):
        tainted selfdestruct 21.31, tainted owner 26.34,
        unchecked staticcall 3.5, tainted delegatecall 2.0
  8c  Conservative storage modeling (precision drops):
        tainted selfdestruct 2.51, tainted owner 3.08,
        unchecked staticcall 1.13, tainted delegatecall 2.0 (approx.)

Shape to reproduce: 8a pushes every ratio to <= 1 (multi-transaction chains
are lost, with tainted-selfdestruct hit hardest); 8b and 8c push ratios
to >= 1 (more reports, overwhelmingly false positives), with the guard
ablation the most explosive for the selfdestruct/owner classes.
"""

from benchmarks.conftest import print_table
from repro.core.vulnerabilities import (
    TAINTED_DELEGATECALL,
    TAINTED_OWNER,
    TAINTED_SELFDESTRUCT,
    UNCHECKED_STATICCALL,
)

FIG8_KINDS = (
    TAINTED_SELFDESTRUCT,
    TAINTED_OWNER,
    UNCHECKED_STATICCALL,
    TAINTED_DELEGATECALL,
)

PAPER_RATIOS = {
    "no-storage": {
        TAINTED_SELFDESTRUCT: 0.44,
        TAINTED_OWNER: 0.75,
        UNCHECKED_STATICCALL: 0.75,
        TAINTED_DELEGATECALL: 0.69,
    },
    "no-guards": {
        TAINTED_SELFDESTRUCT: 21.31,
        TAINTED_OWNER: 26.34,
        UNCHECKED_STATICCALL: 3.5,
        TAINTED_DELEGATECALL: 2.0,
    },
    "conservative": {
        TAINTED_SELFDESTRUCT: 2.51,
        TAINTED_OWNER: 3.08,
        UNCHECKED_STATICCALL: 1.13,
        TAINTED_DELEGATECALL: 2.0,
    },
}


def _counts(analyzed_corpus):
    return {
        kind: len(analyzed_corpus.flagged(kind))
        for kind in FIG8_KINDS
    }


def _ratios(baseline_counts, ablated_counts):
    ratios = {}
    for kind in FIG8_KINDS:
        baseline = baseline_counts[kind]
        ratios[kind] = (ablated_counts[kind] / baseline) if baseline else float("nan")
    return ratios


def _print(name, ratios, counts, baseline_counts):
    print_table(
        "Figure 8%s — %s" % ({"no-storage": "a", "no-guards": "b", "conservative": "c"}[name], name),
        ["vulnerability", "paper ratio", "measured ratio", "reports (default -> ablated)"],
        [
            (
                kind,
                PAPER_RATIOS[name][kind],
                "%.2f" % ratios[kind],
                "%d -> %d" % (baseline_counts[kind], counts[kind]),
            )
            for kind in FIG8_KINDS
        ],
    )


def test_fig8a_no_storage_modeling(benchmark, analyzed, analyzed_no_storage):
    baseline = _counts(analyzed)
    counts = benchmark.pedantic(
        lambda: _counts(analyzed_no_storage), rounds=1, iterations=1
    )
    ratios = _ratios(baseline, counts)
    _print("no-storage", ratios, counts, baseline)
    # Completeness drop: never MORE reports, and the storage-mediated
    # classes lose reports outright.
    for kind in FIG8_KINDS:
        if baseline[kind]:
            assert ratios[kind] <= 1.0
    assert ratios[TAINTED_SELFDESTRUCT] < 1.0
    assert ratios[TAINTED_OWNER] < 1.0


def test_fig8b_no_guard_modeling(benchmark, analyzed, analyzed_no_guards):
    baseline = _counts(analyzed)
    counts = benchmark.pedantic(
        lambda: _counts(analyzed_no_guards), rounds=1, iterations=1
    )
    ratios = _ratios(baseline, counts)
    _print("no-guards", ratios, counts, baseline)
    # Precision collapse: never FEWER reports, selfdestruct class inflates
    # the most (every owner-guarded payout address now "tainted").
    for kind in FIG8_KINDS:
        if baseline[kind]:
            assert ratios[kind] >= 1.0
    assert ratios[TAINTED_SELFDESTRUCT] > 1.5
    assert counts[TAINTED_OWNER] >= baseline[TAINTED_OWNER]


def test_fig8c_conservative_storage(benchmark, analyzed, analyzed_conservative):
    baseline = _counts(analyzed)
    counts = benchmark.pedantic(
        lambda: _counts(analyzed_conservative), rounds=1, iterations=1
    )
    ratios = _ratios(baseline, counts)
    _print("conservative", ratios, counts, baseline)
    for kind in FIG8_KINDS:
        if baseline[kind]:
            assert ratios[kind] >= 1.0
    # The smear hits the storage-heavy classes hardest (paper: 2.5-3x).
    assert ratios[TAINTED_SELFDESTRUCT] > 1.2
    assert ratios[TAINTED_OWNER] > 1.2


def test_fig8_battery_shared_prefix_cache(corpus, benchmark):
    """The four-config ablation battery, whose configurations share each
    contract's stage outputs: the same warning sets at a fraction of the
    cold cost (the lift...ordering prefix is configuration-independent and
    is computed once per contract instead of once per config)."""
    import time

    from benchmarks.conftest import print_table
    from repro import api
    from repro.core import AnalysisConfig

    contracts = corpus[:150]
    bytecodes = [contract.runtime for contract in contracts]
    configs = [
        AnalysisConfig(),
        AnalysisConfig(model_storage_taint=False),
        AnalysisConfig(model_guards=False),
        AnalysisConfig(conservative_storage=True),
    ]

    started = time.monotonic()
    cold = [
        [api.analyze(bytecode, config) for bytecode in bytecodes]
        for config in configs
    ]
    cold_time = time.monotonic() - started

    def battery():
        return api.battery(bytecodes, configs, jobs=1)

    summaries = benchmark.pedantic(battery, rounds=1, iterations=1)
    started = time.monotonic()
    summaries = api.battery(bytecodes, configs, jobs=1)
    shared_time = time.monotonic() - started

    for cold_results, summary in zip(cold, summaries):
        for result, entry in zip(cold_results, summary.entries):
            assert tuple(sorted({w.kind for w in result.warnings})) == entry.kinds

    speedup = cold_time / max(shared_time, 1e-9)
    print_table(
        "Fig. 8 battery: cold vs shared prefix (%d contracts, 4 configs)"
        % len(contracts),
        ["mode", "seconds"],
        [
            ("cold", "%.2f" % cold_time),
            ("shared-prefix", "%.2f (%.2fx)" % (shared_time, speedup)),
        ],
    )
    assert speedup > 1.5


def test_fig8_accessible_selfdestruct_context(analyzed, analyzed_no_guards, benchmark):
    """Sanity anchor: without guards, accessible-selfdestruct floods to
    (nearly) every contract containing the opcode."""
    from repro.core.vulnerabilities import ACCESSIBLE_SELFDESTRUCT

    def count():
        return (
            len(analyzed.flagged(ACCESSIBLE_SELFDESTRUCT)),
            len(analyzed_no_guards.flagged(ACCESSIBLE_SELFDESTRUCT)),
        )

    default_count, ablated_count = benchmark.pedantic(count, rounds=1, iterations=1)
    assert ablated_count > default_count
