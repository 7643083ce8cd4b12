"""Cache correctness: cached and cold runs must be indistinguishable.

Property tests over randomly generated corpora: for every Fig. 8
configuration and both fixpoint engines, an analysis served (partially or
fully) from a shared :class:`ArtifactCache` produces warning sets identical
to a cold run — including when the cache is small enough to evict.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.core import AnalysisConfig, ArtifactCache
from repro.corpus import generate_corpus

FIG8_CONFIGS = (
    {},
    {"model_storage_taint": False},
    {"model_guards": False},
    {"conservative_storage": True},
)


def _signature(result):
    return [
        (w.kind, w.pc, w.statement, w.slot, w.detail) for w in result.warnings
    ]


@pytest.mark.parametrize("engine", ["python", "datalog"])
@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=6, deadline=None)
def test_cached_equals_cold_all_configs(engine, seed):
    """Prefix-shared and fully-cached runs match cold runs byte for byte,
    across all four Fig. 8 configs, on arbitrary corpus seeds."""
    contracts = generate_corpus(4, seed=seed)
    cache = ArtifactCache()
    for overrides in FIG8_CONFIGS:
        config = AnalysisConfig(engine=engine, **overrides)
        for contract in contracts:
            cold = api.analyze(contract.runtime, config)
            shared = api.analyze(contract.runtime, config, cache=cache)
            fully_cached = api.analyze(contract.runtime, config, cache=cache)
            assert _signature(shared) == _signature(cold)
            assert _signature(fully_cached) == _signature(cold)
            assert fully_cached.cache_misses == 0


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=6, deadline=None)
def test_tiny_cache_evicts_but_stays_correct(seed):
    """A cache bound far below the working set evicts aggressively yet
    never changes any verdict."""
    contracts = generate_corpus(6, seed=seed)
    cache = ArtifactCache(max_entries=4)
    for _ in range(2):  # second sweep exercises the eviction/refill churn
        for contract in contracts:
            cold = api.analyze(contract.runtime)
            cached = api.analyze(contract.runtime, cache=cache)
            assert _signature(cached) == _signature(cold)
    assert len(cache) <= 4
    assert cache.evictions > 0


def test_battery_shares_prefix_across_configs():
    """Running the four-config battery against one cache recomputes only
    taint+detect per ablation; warnings match per-config cold runs."""
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
    # Configs beyond the first re-use the 4-stage prefix per contract.
    total_hits = sum(summary.cache_hits for summary in summaries)
    assert total_hits >= 3 * len(bytecodes) * 4
