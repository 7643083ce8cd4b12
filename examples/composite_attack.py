"""The paper's §2 illustration, end to end.

Deploys the Victim contract on the local chain simulator, shows that the
primitive attack fails cold, lets Ethainter detect the composite
vulnerability, and then has Ethainter-Kill execute the four-transaction
escalation (user -> admin -> owner -> selfdestruct), verifying destruction
in the VM instruction trace.

Run with::

    python examples/composite_attack.py
"""

from repro import api, compile_source
from repro.chain import Blockchain
from repro.kill import EthainterKill

VICTIM = """
contract Victim {
    mapping(address => bool) admins;
    mapping(address => bool) users;
    address owner;

    modifier onlyAdmins() { require(admins[msg.sender]); _; }
    modifier onlyUsers() { require(users[msg.sender]); _; }

    function registerSelf() public
    { users[msg.sender] = true; }

    function referUser(address user) public onlyUsers
    { users[user] = true; }

    function referAdmin(address adm) public onlyUsers
    { admins[adm] = true; }    // BUG: should be onlyAdmins

    function changeOwner(address o) public onlyAdmins
    { owner = o; }

    function kill() public onlyAdmins
    { selfdestruct(owner); }
}
"""


def main() -> None:
    contract = compile_source(VICTIM)
    chain = Blockchain()
    deployer = 0xD0_0D
    chain.fund(deployer, 10**19)
    receipt = chain.deploy(deployer, contract.init_with_args(), value=10**18)
    victim = receipt.contract_address
    print("Victim deployed at 0x%040x holding %d wei" % (victim, chain.state.get_balance(victim)))

    # A naive direct attack bounces off the onlyAdmins guard.
    attacker = 0xBAD
    chain.fund(attacker, 10**18)
    direct = chain.transact(attacker, victim, contract.calldata("kill"))
    print("direct kill() by attacker: %s" % ("succeeded" if direct.success else "reverted"))

    # Ethainter sees through the guards: referAdmin lets any *user* mint
    # admins, and registerSelf lets anyone become a user.
    result = api.analyze(contract.runtime)
    print("\nEthainter findings:")
    for warning in result.warnings:
        print("  [%s] %s" % (warning.kind, warning.detail))
    print(
        "compromised guards: %d of %d; attacker-writable mappings: %s"
        % (
            len(result.taint.compromised_guards),
            len(result.guards.guards),
            sorted(result.taint.writable_mappings),
        )
    )

    # Ethainter-Kill plans and executes the composite escalation.
    killer = EthainterKill(chain)
    outcome = killer.attack(victim, result)
    print("\nEthainter-Kill plan:")
    for call in outcome.plan:
        print("  call selector 0x%08x  (%s)" % (call.selector, call.purpose))
    print(
        "destroyed=%s in %d transaction(s); contract code now %d bytes"
        % (
            outcome.destroyed,
            outcome.transactions_sent,
            len(chain.state.get_code(victim)),
        )
    )


if __name__ == "__main__":
    main()
