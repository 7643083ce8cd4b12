"""Satellite: single-contract bundles are byte-identical to `repro analyze`.

The cross-contract pass must be a strict extension: wrapping one contract
in a :class:`ContractBundle` may not perturb its report in any way.  A
Hypothesis property drives corpus contracts through both entry points —
``analyze(bytecode)`` rendered via :class:`ContractReport` and
``analyze_bundle(one-contract bundle)`` rendered via
:class:`BundleReport` — on both engines, the Python fixpoint and the
Datalog engine, and demands byte identity modulo the run-varying timing
fields (``elapsed_seconds`` / ``stage_seconds`` are wall-clock
measurements and differ between any two runs, bundled or not)."""

import json

from hypothesis import given, settings, strategies as st

from repro import api
from repro.core.linkage import ContractBundle, bundle_contract
from repro.core.report import BundleReport, ContractReport
from repro.corpus import generate_corpus

CONTRACTS = generate_corpus(8, seed=11)
ENGINES = ["python", "datalog"]


def _canonical(text: str) -> dict:
    """The report with run-varying wall-clock fields zeroed."""
    payload = json.loads(text)
    payload["elapsed_seconds"] = 0.0
    payload["stage_seconds"] = {}
    return payload


@settings(max_examples=16, deadline=None)
@given(
    index=st.integers(min_value=0, max_value=len(CONTRACTS) - 1),
    engine=st.sampled_from(ENGINES),
)
def test_singleton_bundle_report_is_byte_identical(index, engine):
    contract = CONTRACTS[index]
    runtime = contract.runtime
    name = contract.name

    direct_request = api.AnalyzeRequest(
        bytecode=runtime, name=name, engine=engine
    )
    direct = ContractReport.from_result(
        api.analyze(direct_request),
        name=name,
        bytecode_size=len(runtime),
    ).to_json()

    bundle = ContractBundle(
        contracts=(bundle_contract(0xABC, bytecode=runtime, name=name),)
    )
    bundled = BundleReport.from_result(
        api.analyze_bundle(
            api.AnalyzeRequest(bundle=bundle, name=name, engine=engine)
        )
    ).to_json()

    # Byte identity modulo wall-clock: every analysis field — warnings,
    # counts, precision counters, datalog stats — is identical, and the
    # singleton bundle rendering degrades to the exact ContractReport
    # shape (same keys, same order).
    assert _canonical(bundled) == _canonical(direct)
    assert list(json.loads(bundled)) == list(json.loads(direct))


def test_singleton_rendering_is_exact_bytes_for_same_result():
    # Stronger than the property above: rendered from the *same*
    # AnalysisResult, the two report paths agree byte for byte — the
    # timing canonicalization in the property only forgives wall-clock,
    # never shape.
    contract = CONTRACTS[0]
    runtime = contract.runtime
    bundle = ContractBundle(
        contracts=(
            bundle_contract(0xABC, bytecode=runtime, name=contract.name),
        )
    )
    result = api.analyze_bundle(bundle)
    via_bundle = BundleReport.from_result(result).to_json()
    via_contract = ContractReport.from_result(
        result.results[0xABC],
        name=contract.name,
        bytecode_size=len(runtime),
    ).to_json()
    assert via_bundle == via_contract
