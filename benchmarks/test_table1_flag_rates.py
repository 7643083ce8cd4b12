"""§6.2 statistics table: percentage of unique contracts flagged per
vulnerability, and the ETH held by flagged contracts.

Paper values (over 240K mainnet contracts):

    accessible selfdestruct        1.2%    2,553,101 ETH
    tainted selfdestruct           0.17%   2,176,212 ETH
    tainted owner variable         1.33%         221 ETH
    unchecked tainted staticcall   0.04%         344 ETH
    tainted delegatecall           0.17%         517 ETH

Shape to reproduce: accessible-selfdestruct and tainted-owner lead by an
order of magnitude over staticcall (the rarest, tied to a new opcode);
overall flag rate stays in the low single-digit percent range; the ETH
distribution is strongly skewed.
"""

from benchmarks.conftest import print_table
from repro import api
from repro.core.vulnerabilities import (
    ACCESSIBLE_SELFDESTRUCT,
    TAINTED_DELEGATECALL,
    TAINTED_OWNER,
    TAINTED_SELFDESTRUCT,
    UNCHECKED_STATICCALL,
    VULNERABILITY_KINDS,
)

PAPER_PERCENTAGES = {
    ACCESSIBLE_SELFDESTRUCT: 1.2,
    TAINTED_SELFDESTRUCT: 0.17,
    TAINTED_OWNER: 1.33,
    UNCHECKED_STATICCALL: 0.04,
    TAINTED_DELEGATECALL: 0.17,
}
# Table 1 covers the paper's five taint classes; the reentrancy stratum is
# scored separately (test_reentrancy_precision.py) and its templates are
# not in the default corpus mix.
PAPER_KINDS = tuple(sorted(PAPER_PERCENTAGES))


def test_table1_flag_rates(benchmark, corpus, analyzed):
    def sweep():
        rates = {}
        eth = {}
        for kind in VULNERABILITY_KINDS:
            flagged = analyzed.flagged(kind)
            rates[kind] = 100.0 * len(flagged) / len(corpus)
            eth[kind] = sum(contract.eth_held for contract in flagged)
        return rates, eth

    rates, eth = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print_table(
        "Table 1 — flagged contracts per vulnerability",
        ["vulnerability", "paper %", "measured %", "measured ETH held (wei)"],
        [
            (kind, PAPER_PERCENTAGES[kind], "%.2f" % rates[kind], eth[kind])
            for kind in PAPER_KINDS
        ],
    )

    # Shape assertions.
    # 1. staticcall is the rarest class (new opcode, few users).
    assert rates[UNCHECKED_STATICCALL] <= min(
        rates[kind] for kind in PAPER_KINDS if kind != UNCHECKED_STATICCALL
    )
    # 2. the selfdestruct/owner classes lead delegatecall and staticcall.
    assert rates[ACCESSIBLE_SELFDESTRUCT] > rates[TAINTED_DELEGATECALL]
    assert rates[TAINTED_OWNER] > rates[UNCHECKED_STATICCALL]
    # 3. flag rates stay in the "small fraction of the chain" regime.
    total_flagged = len(analyzed.flagged_any())
    assert total_flagged / len(corpus) < 0.15
    # 4. every class is represented (the corpus exercises all detectors).
    assert all(rates[kind] > 0 for kind in PAPER_KINDS if kind != UNCHECKED_STATICCALL)


def test_single_contract_analysis_cost(benchmark, corpus):
    """Per-contract analysis latency, the unit underlying the whole table."""
    contract = next(c for c in corpus if c.template == "composite_victim")
    result = benchmark(lambda: api.analyze(contract.runtime))
    assert result.flagged
