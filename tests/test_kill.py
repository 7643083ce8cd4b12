"""Ethainter-Kill: planning, execution, trace verification, failure modes."""

import pytest

from repro import api
from repro.chain import Blockchain
from repro.kill import EthainterKill
from repro.minisol import compile_source

DEPLOYER = 0xD0_0D


@pytest.fixture
def chain():
    chain = Blockchain()
    chain.fund(DEPLOYER, 10**20)
    return chain


def deploy_and_attack(chain, contract, value=1000, ctor_args=()):
    receipt = chain.deploy(DEPLOYER, contract.init_with_args(*ctor_args), value=value)
    assert receipt.success
    result = api.analyze(contract.runtime)
    killer = EthainterKill(chain)
    return killer, receipt.contract_address, killer.attack(receipt.contract_address, result)


class TestSuccessfulKills:
    def test_open_selfdestruct_destroyed(self, chain, open_kill_contract):
        _, address, outcome = deploy_and_attack(chain, open_kill_contract)
        assert outcome.destroyed
        assert chain.state.is_destroyed(address)
        assert len(outcome.plan) == 1

    def test_tainted_owner_two_step(self, chain, tainted_owner_contract):
        _, address, outcome = deploy_and_attack(chain, tainted_owner_contract)
        assert outcome.destroyed
        assert len(outcome.plan) == 2  # init(attacker) then kill()

    def test_victim_composite_four_step(self, chain, victim_contract):
        killer, address, outcome = deploy_and_attack(chain, victim_contract)
        assert outcome.destroyed
        assert len(outcome.plan) == 4
        assert chain.state.is_destroyed(address)

    def test_attacker_receives_funds_when_beneficiary_tainted(self, chain):
        source = """
contract C {
    function die(address to) public { selfdestruct(to); }
}
"""
        contract = compile_source(source)
        receipt = chain.deploy(DEPLOYER, contract.init_with_args(), value=777)
        result = api.analyze(contract.runtime)
        killer = EthainterKill(chain)
        before = chain.state.get_balance(killer.attacker)
        outcome = killer.attack(receipt.contract_address, result)
        assert outcome.destroyed
        assert chain.state.get_balance(killer.attacker) == before + 777

    def test_self_registration_chain(self, chain):
        source = """
contract C {
    mapping(address => bool) members;
    address t;
    constructor() { t = msg.sender; }
    function join() public { members[msg.sender] = true; }
    function retire() public { require(members[msg.sender]); selfdestruct(t); }
}
"""
        contract = compile_source(source)
        _, address, outcome = deploy_and_attack(chain, contract)
        assert outcome.destroyed
        assert len(outcome.plan) == 2


class TestFailureModes:
    def test_safe_contract_not_attempted(self, chain, safe_contract):
        _, address, outcome = deploy_and_attack(chain, safe_contract)
        assert not outcome.attempted
        assert not outcome.destroyed
        assert not chain.state.is_destroyed(address)

    def test_magic_value_guard_survives(self, chain):
        source = """
contract C {
    address payout;
    constructor() { payout = msg.sender; }
    function emergency(uint256 code) public {
        require(code == 123456789123);
        selfdestruct(payout);
    }
}
"""
        contract = compile_source(source)
        _, address, outcome = deploy_and_attack(chain, contract)
        assert outcome.attempted
        assert not outcome.destroyed
        assert not chain.state.is_destroyed(address)
        assert "survived" in outcome.reason

    def test_dead_state_guard_survives(self, chain):
        source = """
contract C {
    address sink;
    uint256 active;
    constructor() { sink = msg.sender; active = 1; }
    function go() public { require(active == 2); selfdestruct(sink); }
}
"""
        contract = compile_source(source)
        _, address, outcome = deploy_and_attack(chain, contract)
        assert outcome.attempted and not outcome.destroyed

    def test_unflagged_contract_reports_reason(self, chain, token_contract):
        _, address, outcome = deploy_and_attack(chain, token_contract)
        assert outcome.reason == "not flagged for selfdestruct"


class TestPlanDetails:
    def test_plan_pins_tainted_args_to_attacker(self, chain, tainted_owner_contract):
        killer, address, outcome = deploy_and_attack(chain, tainted_owner_contract)
        init_call = outcome.plan[0]
        assert init_call.arg_count == 1
        assert init_call.address_args == {0}

    def test_plan_orders_enablers_before_target(self, chain, victim_contract):
        from repro.evm.hashing import function_selector

        _, _, outcome = deploy_and_attack(chain, victim_contract)
        selectors = [call.selector for call in outcome.plan]
        assert selectors[0] == function_selector("registerSelf()")
        assert selectors[-1] == function_selector("kill()")

    def test_transactions_counted(self, chain, victim_contract):
        _, _, outcome = deploy_and_attack(chain, victim_contract)
        assert outcome.transactions_sent >= len(outcome.plan)


class TestBatchReport:
    def test_attack_many_aggregates(self, chain, open_kill_contract, safe_contract):
        targets = []
        for contract in (open_kill_contract, safe_contract):
            receipt = chain.deploy(DEPLOYER, contract.init_with_args())
            targets.append(
                (receipt.contract_address, api.analyze(contract.runtime))
            )
        killer = EthainterKill(chain)
        report = killer.attack_many(targets)
        assert report.flagged == 2
        assert report.destroyed == 1
        assert report.attempted == 1
        assert 0 < report.kill_rate < 1

    def test_attack_bytecodes_analyzes_with_shared_cache(
        self, chain, open_kill_contract, safe_contract, monkeypatch
    ):
        from repro.core import pipeline

        lifted = []
        real_lift = pipeline.lift

        def counting_lift(runtime, **kwargs):
            lifted.append(runtime)
            return real_lift(runtime, **kwargs)

        monkeypatch.setattr(pipeline, "lift", counting_lift)
        targets = []
        # Deploy the open-kill contract twice: identical bytecode, so it
        # is analyzed once and both deployments are attacked.
        for contract in (open_kill_contract, open_kill_contract, safe_contract):
            receipt = chain.deploy(DEPLOYER, contract.init_with_args())
            targets.append((receipt.contract_address, contract.runtime))
        killer = EthainterKill(chain)
        report = killer.attack_bytecodes(targets)
        assert report.flagged == 3
        assert report.destroyed == 2
        assert lifted == [open_kill_contract.runtime, safe_contract.runtime]
