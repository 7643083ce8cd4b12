"""Blockchain-scale sweep: the paper's §6.2 statistics experiment in miniature.

Generates a labeled corpus (the stand-in for the 240K-contract mainnet
snapshot), analyzes every contract, and prints the per-vulnerability flag
percentages and ETH-held table, then deploys the flagged contracts on the
chain simulator and lets Ethainter-Kill attack them (the §6.1 experiment).

Run with::

    python examples/blockchain_sweep.py [corpus-size]
"""

import sys
from collections import defaultdict

from repro import api
from repro.chain import Blockchain
from repro.core.vulnerabilities import VULNERABILITY_KINDS
from repro.corpus import generate_corpus
from repro.kill import EthainterKill


def main(size: int = 300) -> None:
    print("generating %d-contract corpus ..." % size)
    corpus = generate_corpus(size, seed=2020)

    flagged_by_kind = defaultdict(list)
    eth_by_kind = defaultdict(int)
    results = {}
    for contract in corpus:
        result = api.analyze(contract.runtime)
        results[contract.index] = result
        for kind in {w.kind for w in result.warnings}:
            flagged_by_kind[kind].append(contract)
            eth_by_kind[kind] += contract.eth_held

    print("\n%-32s %10s %16s" % ("Vulnerability", "Flagged", "ETH held (wei)"))
    for kind in VULNERABILITY_KINDS:
        contracts = flagged_by_kind.get(kind, [])
        print(
            "%-32s %9.2f%% %16d"
            % (kind, 100.0 * len(contracts) / size, eth_by_kind.get(kind, 0))
        )

    # Precision against ground truth (the corpus substitutes labels for the
    # paper's manual inspection).
    true_positive = false_positive = 0
    for kind, contracts in flagged_by_kind.items():
        for contract in contracts:
            if kind in contract.labels:
                true_positive += 1
            else:
                false_positive += 1
    total = true_positive + false_positive
    if total:
        print(
            "\noverall precision vs ground truth: %.1f%% (%d/%d warnings)"
            % (100.0 * true_positive / total, true_positive, total)
        )

    # §6.1: attack every contract flagged for a selfdestruct vulnerability.
    chain = Blockchain()
    deployer = 0xD0_0D
    chain.fund(deployer, 10**24)
    killer = EthainterKill(chain)
    targets = []
    for contract in corpus:
        result = results[contract.index]
        if not any(
            w.kind in ("accessible-selfdestruct", "tainted-selfdestruct")
            for w in result.warnings
        ):
            continue
        args = [deployer] * (
            len(contract.compiled.ast.constructor.params)
            if contract.compiled.ast.constructor
            else 0
        )
        receipt = chain.deploy(deployer, contract.compiled.init_with_args(*args))
        if receipt.success:
            targets.append((receipt.contract_address, result))
    report = killer.attack_many(targets)
    print(
        "\nEthainter-Kill: destroyed %d of %d flagged contracts (%.1f%%)"
        % (report.destroyed, report.flagged, 100.0 * report.kill_rate)
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 300)
