"""Solver-assisted Ethainter-Kill (hybrid static + symbolic exploitation)."""

import pytest

from repro import api
from repro.chain import Blockchain
from repro.kill import EthainterKill
from repro.minisol import compile_source

MAGIC_SOURCE = """
contract C {
    address payout;
    constructor() { payout = msg.sender; }
    function emergency(uint256 code) public {
        require(code == 555444333222);
        selfdestruct(payout);
    }
}
"""

DEAD_STATE_SOURCE = """
contract C {
    address sink;
    uint256 active;
    constructor() { sink = msg.sender; active = 1; }
    function go() public { require(active == 2); selfdestruct(sink); }
}
"""


def attack(source, assisted, value=100):
    contract = compile_source(source)
    chain = Blockchain()
    chain.fund(0xD, 10**18)
    address = chain.deploy(0xD, contract.init_with_args(), value=value).contract_address
    killer = EthainterKill(chain, solver_assisted=assisted)
    outcome = killer.attack(address, api.analyze(contract.runtime))
    return chain, address, outcome


class TestSolverAssist:
    def test_magic_value_cracked_with_assist(self):
        chain, address, outcome = attack(MAGIC_SOURCE, assisted=True)
        assert outcome.destroyed
        assert outcome.reason == "solver-assisted"
        assert chain.state.is_destroyed(address)

    def test_magic_value_survives_without_assist(self):
        chain, address, outcome = attack(MAGIC_SOURCE, assisted=False)
        assert not outcome.destroyed
        assert not chain.state.is_destroyed(address)

    def test_dead_state_survives_even_with_assist(self):
        """Genuinely unreachable state defeats the solver too: the
        constraint active == 2 contradicts the concrete storage (active=1),
        so the symbolic path is unsatisfiable — the Kill result is the
        *correct* 'not exploitable' verdict for this Ethainter FP."""
        chain, address, outcome = attack(DEAD_STATE_SOURCE, assisted=True)
        assert not outcome.destroyed

    def test_assist_not_used_when_plan_succeeds(self, victim_contract):
        chain = Blockchain()
        chain.fund(0xD, 10**18)
        address = chain.deploy(0xD, victim_contract.init_with_args()).contract_address
        killer = EthainterKill(chain, solver_assisted=True)
        outcome = killer.attack(address, api.analyze(victim_contract.runtime))
        assert outcome.destroyed
        assert outcome.reason != "solver-assisted"  # plan alone sufficed

    def test_assisted_rate_dominates_plain_rate(self):
        """On a mixed bag, solver assistance can only add kills."""
        sources = [MAGIC_SOURCE, DEAD_STATE_SOURCE]
        plain = sum(1 for s in sources if attack(s, assisted=False)[2].destroyed)
        assisted = sum(1 for s in sources if attack(s, assisted=True)[2].destroyed)
        assert assisted > plain
