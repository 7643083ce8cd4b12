"""Shared-prefix correctness: a battery must be indistinguishable from
per-configuration runs.

Property tests over randomly generated corpora: for every Fig. 8
configuration and both fixpoint engines, a battery, whose configurations
share each contract's lift...ordering prefix, reports warnings identical to
analyzing the contract under each configuration alone.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.core import AnalysisConfig
from repro.core.pipeline import STAGE_NAMES
from repro.corpus import generate_corpus

FIG8_CONFIGS = (
    {},
    {"model_storage_taint": False},
    {"model_guards": False},
    {"conservative_storage": True},
)

WARNING_FIELDS = ("kind", "pc", "statement", "slot", "detail")


def _signature(result):
    return [tuple(getattr(w, name) for name in WARNING_FIELDS) for w in result.warnings]


def _entry_signature(entry):
    return [tuple(w[name] for name in WARNING_FIELDS) for w in entry.warnings]


@pytest.mark.parametrize("engine", ["python", "datalog"])
@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=6, deadline=None)
def test_cached_equals_cold_all_configs(engine, seed):
    """A battery over all four Fig. 8 configs matches per-config
    ``api.analyze`` runs warning for warning, on arbitrary corpus seeds."""
    contracts = generate_corpus(4, seed=seed)
    configs = [AnalysisConfig(engine=engine, **overrides) for overrides in FIG8_CONFIGS]
    summaries = api.battery([contract.runtime for contract in contracts], configs)
    for config, summary in zip(configs, summaries):
        for contract, entry in zip(contracts, summary.entries):
            cold = api.analyze(contract.runtime, config)
            assert entry.error == cold.error
            assert _entry_signature(entry) == _signature(cold)


def test_battery_shares_prefix_across_configs():
    """Running the four-config battery recomputes only taint+detect per
    ablation; warnings match per-config cold runs."""
    contracts = generate_corpus(10, seed=99)
    bytecodes = [contract.runtime for contract in contracts]
    configs = [AnalysisConfig(**overrides) for overrides in FIG8_CONFIGS]
    summaries = api.battery(bytecodes, configs, jobs=1)
    assert len(summaries) == len(configs)
    for config, summary in zip(configs, summaries):
        assert summary.total == len(bytecodes)
        for contract, entry in zip(contracts, summary.entries):
            cold = api.analyze(contract.runtime, config)
            assert entry.kinds == tuple(sorted({w.kind for w in cold.warnings}))
    # Configs beyond the first reuse the prefix, timed as zero seconds.
    prefix = STAGE_NAMES[: STAGE_NAMES.index("taint")]
    for summary in summaries[1:]:
        for entry in summary.entries:
            assert [entry.stage_seconds[name] for name in prefix] == [0.0] * len(prefix)
            assert entry.stage_seconds["taint"] > 0.0
