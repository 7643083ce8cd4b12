"""Cross-contract precision: the bundle corpus against ground truth.

The acceptance gate for the cross-contract pass, blocking in CI:

* the vulnerable proxy/implementation pair is flagged
  ``proxy-upgrade-hijack`` under BOTH engine values (``python`` analyzes
  each member with the Python fixpoint, ``datalog`` with the Datalog
  rules; both run the merged rules on the Datalog engine), while
  **neither contract is flagged when analyzed alone**
  (the verdict is genuinely composite);
* the benign owner-guarded pair stays clean — **zero false positives**;
* the escalation pair behaves symmetrically (vulnerable flagged, benign
  clean, contracts alone clean);
* every analysis verdict agrees with the concrete exploit replay on
  ``repro.chain`` (flagged ⇔ exploitable).

Per-template counters land in ``BENCH_cross_contract_precision.json``
(path overridable via ``BENCH_CROSS_CONTRACT_JSON``) so CI tracks the
numbers as artifacts, mirroring the reentrancy precision job.
"""

from __future__ import annotations

import json
import os

import pytest

from benchmarks.conftest import print_table
from repro import api
from repro.core.analysis import AnalysisConfig
from repro.core.linkage import analyze_bundle
from repro.corpus.bundles import (
    BUNDLE_TEMPLATES,
    PROXY_ADDRESS,
    TREASURY_ADDRESS,
    TREASURY_BENEFICIARY_SLOT,
    VAULT_ADDRESS,
)
from repro.kill import BundleKill

ENGINES = ("python", "datalog")

_RESULTS: dict = {}


@pytest.fixture(scope="module", autouse=True)
def _write_report():
    yield
    path = os.environ.get(
        "BENCH_CROSS_CONTRACT_JSON", "BENCH_cross_contract_precision.json"
    )
    with open(path, "w") as handle:
        json.dump(_RESULTS, handle, indent=2, sort_keys=True)
    print("\ncross-contract precision benchmark written to %s" % path)


def _replay(name, bundle):
    if "proxy" in name:
        return BundleKill().hijack_proxy(
            bundle, PROXY_ADDRESS, "execute(address)"
        )
    return BundleKill().escalate(
        bundle,
        VAULT_ADDRESS,
        TREASURY_ADDRESS,
        "route(address)",
        TREASURY_BENEFICIARY_SLOT,
    )


def test_cross_contract_precision(benchmark):
    def experiment():
        per_template = {}
        for name in sorted(BUNDLE_TEMPLATES):
            output = BUNDLE_TEMPLATES[name]()
            row = {
                "labels": sorted(output.labels),
                "flagged": {},
                "alone": {},
                "exploited": None,
                "tp": 0,
                "fp": 0,
                "fn": 0,
            }
            for engine in ENGINES:
                result = analyze_bundle(
                    output.bundle, AnalysisConfig(engine=engine)
                )
                flagged = {f.kind for f in result.cross_findings}
                row["flagged"][engine] = sorted(flagged)
                row["tp"] += len(flagged & output.labels)
                row["fp"] += len(flagged - output.labels)
                row["fn"] += len(output.labels - flagged)
            # Per-contract analysis must stay silent on every bundle
            # member: the verdicts are composite by construction.
            for contract in output.bundle.contracts:
                alone = api.analyze(contract.runtime(), AnalysisConfig())
                row["alone"]["0x%x" % contract.address] = sorted(
                    {w.kind for w in alone.warnings}
                )
            row["exploited"] = _replay(name, output.bundle).success
            per_template[name] = row
        return per_template

    per_template = benchmark.pedantic(experiment, rounds=1, iterations=1)

    tp = sum(r["tp"] for r in per_template.values())
    fp = sum(r["fp"] for r in per_template.values())
    fn = sum(r["fn"] for r in per_template.values())
    _RESULTS.update(
        {
            "templates": per_template,
            "totals": {"tp": tp, "fp": fp, "fn": fn},
            "engines": list(ENGINES),
        }
    )

    print_table(
        "Cross-contract pass — bundle-corpus precision",
        ["template", "ground truth", "flagged", "exploited", "TP", "FP", "FN"],
        [
            (
                name,
                ",".join(row["labels"]) or "(benign)",
                ",".join(row["flagged"]["datalog"]) or "-",
                row["exploited"],
                row["tp"],
                row["fp"],
                row["fn"],
            )
            for name, row in sorted(per_template.items())
        ],
    )

    # Blocking: zero false negatives AND zero false positives — the corpus
    # is small and hand-labeled, so both sides are pinned exactly.
    assert fn == 0, "missed cross-contract vulnerability: %r" % per_template
    assert fp == 0, "false positive on a benign bundle: %r" % per_template

    for name, row in per_template.items():
        # Both engines agree verbatim on every template.
        flagged = {tuple(kinds) for kinds in row["flagged"].values()}
        assert len(flagged) == 1, "engines disagree on %s: %r" % (name, row)
        # No bundle member is flagged in isolation.
        assert all(
            kinds == [] for kinds in row["alone"].values()
        ), "contract flagged alone in %s: %r" % (name, row["alone"])
        # The analysis verdict matches the concrete replay.
        assert row["exploited"] == bool(
            row["labels"]
        ), "verdict/replay mismatch on %s" % name
