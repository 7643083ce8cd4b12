"""The §3.5 unchecked-staticcall bug, demonstrated concretely on the VM.

A verifier contract staticcalls a wallet to validate a "signature".  The
buggy version writes the callee's output over its own input buffer without
checking RETURNDATASIZE: against a callee that returns *nothing*, the stale
input word reads back as if the wallet had answered — the 0x protocol bug.
The checked version (what fixed Solidity compilers emit) reverts instead.

Run with::

    python examples/staticcall_bug.py
"""

from repro import api, compile_source
from repro.chain import Blockchain
from repro.minisol.abi import decode_word

VERIFIER = """
contract Verifier {
    function check(address wallet) public returns (uint256)
    { return staticcall_unchecked(wallet); }

    function checkSafely(address wallet) public returns (uint256)
    { return staticcall_checked(wallet); }
}
"""

# A "wallet" that answers every query with 32 bytes of value 1 (valid).
HONEST_WALLET = """
contract Honest {
    function noop() public returns (uint256) { return 1; }
}
"""


def main() -> None:
    chain = Blockchain()
    user = 0xCAFE
    chain.fund(user, 10**18)

    verifier = compile_source(VERIFIER)
    verifier_address = chain.deploy(user, verifier.init_with_args()).contract_address

    # An attacker "wallet" with *empty code*: a staticcall to it succeeds
    # but returns zero bytes, so the output buffer keeps the stale input.
    empty_wallet = 0x5117
    result = chain.call(user, verifier_address, verifier.calldata("check", empty_wallet))
    print(
        "buggy check() against empty wallet: success=%s, value=%d  <- stale input!"
        % (result.success, decode_word(result.return_data))
    )

    checked = chain.call(
        user, verifier_address, verifier.calldata("checkSafely", empty_wallet)
    )
    print(
        "checked version against empty wallet: success=%s (%s)"
        % (checked.success, checked.error or "returned")
    )

    # Ethainter statically distinguishes the two patterns.
    analysis = api.analyze(verifier.runtime)
    print("\nEthainter warnings:")
    for warning in analysis.warnings:
        print("  [%s] pc=0x%x — %s" % (warning.kind, warning.pc, warning.detail))
    print("(exactly one: the unchecked variant)")


if __name__ == "__main__":
    main()
