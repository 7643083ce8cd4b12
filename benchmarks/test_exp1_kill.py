"""§6.1 Experiment 1: automated end-to-end exploitation (Ethainter-Kill).

Paper: 4,800 contracts flagged on the Ropsten fork; 3,003 with a reachable
public entry point; 805 destroyed (16.7% of flagged) — a *lower bound* on
precision, limited by Ethainter-Kill's crude argument generation.

Shape to reproduce: a substantial fraction of flagged contracts is
destroyed fully automatically; the failures split into the paper's classes
(argument heuristics fail on magic values, plans revert on dead state,
beneficiary-tainted-but-guarded contracts are not directly killable).
Our kill rate is *higher* than the paper's because the corpus is simpler
and our planner is guided by the full analysis artifacts; the lower-bound
character (0 < rate < 1) is what carries over.
"""

from collections import Counter

from benchmarks.conftest import print_table
from repro.chain import Blockchain
from repro.core.vulnerabilities import ACCESSIBLE_SELFDESTRUCT, TAINTED_SELFDESTRUCT
from repro.kill import EthainterKill

DEPLOYER = 0xD0_0D


def _deploy(chain, contract):
    args = ()
    if contract.compiled.ast.constructor is not None:
        args = tuple(
            DEPLOYER for _ in contract.compiled.ast.constructor.params
        )
    receipt = chain.deploy(DEPLOYER, contract.compiled.init_with_args(*args), value=1000)
    return receipt.contract_address if receipt.success else None


def test_exp1_automated_kill(benchmark, corpus, analyzed):
    def experiment():
        chain = Blockchain()
        chain.fund(DEPLOYER, 10**24)
        killer = EthainterKill(chain)
        targets = []
        for contract in corpus:
            result = analyzed.results[contract.index]
            if not (
                result.has(ACCESSIBLE_SELFDESTRUCT) or result.has(TAINTED_SELFDESTRUCT)
            ):
                continue
            address = _deploy(chain, contract)
            if address is not None:
                targets.append((contract, address, result))
        outcomes = []
        for contract, address, result in targets:
            outcomes.append((contract, killer.attack(address, result)))
        return outcomes

    outcomes = benchmark.pedantic(experiment, rounds=1, iterations=1)

    flagged = len(outcomes)
    destroyed = sum(1 for _, outcome in outcomes if outcome.destroyed)
    by_template = Counter()
    destroyed_by_template = Counter()
    for contract, outcome in outcomes:
        by_template[contract.template] += 1
        if outcome.destroyed:
            destroyed_by_template[contract.template] += 1

    print_table(
        "Experiment 1 — Ethainter-Kill",
        ["metric", "paper", "measured"],
        [
            ("flagged contracts attacked", 4800, flagged),
            ("destroyed", 805, destroyed),
            ("kill rate", "16.7%", "%.1f%%" % (100.0 * destroyed / max(flagged, 1))),
        ],
    )
    print_table(
        "per-template kill outcomes",
        ["template", "attacked", "destroyed"],
        [
            (template, by_template[template], destroyed_by_template[template])
            for template in sorted(by_template)
        ],
    )
    # Failure breakdown — the paper's pinpointing/limitation classes
    # (3,003/4,800 had a public entry point; "many calls resulted in an
    # error, mostly due to the limitations of Ethainter-Kill").
    reasons = Counter(
        outcome.reason or "destroyed" for _, outcome in outcomes
    )
    print_table(
        "kill outcome reasons",
        ["reason", "count"],
        sorted(reasons.items()),
    )

    # Shape assertions.
    assert flagged > 0
    assert 0 < destroyed < flagged  # nontrivial successes AND failures
    # Ground truth: every destroyed contract was genuinely exploitable.
    for contract, outcome in outcomes:
        if outcome.destroyed:
            assert contract.exploitable_selfdestruct or contract.expected_fp_kinds == set()
    # The paper's failure classes appear: magic values survive...
    magic = [o for c, o in outcomes if c.template == "kill_magic_value"]
    assert all(not o.destroyed for o in magic)
    # ...and every exploitable composite victim dies.
    victims = [o for c, o in outcomes if c.template == "composite_victim"]
    assert victims and all(o.destroyed for o in victims)


def test_exp1_solver_assisted_extension(benchmark, corpus, analyzed):
    """Extension beyond the paper: hybrid static+symbolic exploitation.

    The paper's related-work discussion contrasts Ethainter with teEther's
    exploit generation; combining them (plan-driven escalation + constraint
    solving for non-sender value guards) strictly raises the kill rate —
    the magic-value failures of the plain tool become kills.
    """

    import random

    from repro import api
    from repro.corpus.templates import kill_magic_value
    from repro.minisol import compile_source

    # The corpus sample plus a guaranteed handful of magic-value contracts
    # (the class that separates the two modes, whatever the corpus draw).
    extra_targets = []
    for seed in range(4):
        output = kill_magic_value(random.Random(1000 + seed))
        compiled = compile_source(output.source, output.contract_name)
        extra_targets.append(compiled)

    def campaign(assisted):
        chain = Blockchain()
        chain.fund(DEPLOYER, 10**24)
        killer = EthainterKill(chain, solver_assisted=assisted)
        destroyed = flagged = 0
        for contract in corpus:
            result = analyzed.results[contract.index]
            if not (
                result.has(ACCESSIBLE_SELFDESTRUCT) or result.has(TAINTED_SELFDESTRUCT)
            ):
                continue
            address = _deploy(chain, contract)
            if address is None:
                continue
            flagged += 1
            if killer.attack(address, result).destroyed:
                destroyed += 1
        for compiled in extra_targets:
            receipt = chain.deploy(DEPLOYER, compiled.init_with_args(), value=1000)
            result = api.analyze(compiled.runtime)
            flagged += 1
            if killer.attack(receipt.contract_address, result).destroyed:
                destroyed += 1
        return flagged, destroyed

    plain = campaign(False)
    assisted = benchmark.pedantic(lambda: campaign(True), rounds=1, iterations=1)

    print_table(
        "kill rate: plan-only vs solver-assisted",
        ["mode", "flagged", "destroyed", "rate"],
        [
            ("plan-only (paper's tool)", plain[0], plain[1], "%.0f%%" % (100 * plain[1] / max(plain[0], 1))),
            ("solver-assisted (extension)", assisted[0], assisted[1], "%.0f%%" % (100 * assisted[1] / max(assisted[0], 1))),
        ],
    )
    assert assisted[1] > plain[1]  # the magic-value class flips to killed
    assert assisted[1] > 0


def test_single_composite_kill_cost(benchmark, corpus, analyzed):
    """Latency of one full composite attack (plan + 4 transactions)."""
    contract = next(c for c in corpus if c.template == "composite_victim")
    result = analyzed.results[contract.index]

    def attack_once():
        chain = Blockchain()
        chain.fund(DEPLOYER, 10**20)
        address = _deploy(chain, contract)
        return EthainterKill(chain).attack(address, result)

    outcome = benchmark(attack_once)
    assert outcome.destroyed
