"""Quickstart: compile a contract and run the Ethainter analysis.

Run with::

    python examples/quickstart.py
"""

from repro import api, compile_source

# A contract with the paper's §3.1 "tainted owner variable" bug: anyone can
# call initOwner and then pass the owner guard on kill().
SOURCE = """
contract Wallet {
    address owner;
    uint256 funds;

    function initOwner(address newOwner) public {
        owner = newOwner;
    }

    function deposit() public {
        funds = funds + msg.value;
    }

    function kill() public {
        require(msg.sender == owner);
        selfdestruct(owner);
    }
}
"""


def main() -> None:
    contract = compile_source(SOURCE)
    print("compiled %s: %d bytes of runtime bytecode" % (contract.name, len(contract.runtime)))

    result = api.analyze(contract.runtime)
    print(
        "analyzed %d basic blocks / %d TAC statements in %.3f s"
        % (result.block_count, result.statement_count, result.elapsed_seconds)
    )
    if not result.warnings:
        print("no vulnerabilities found")
        return
    print("\nEthainter warnings:")
    for warning in result.warnings:
        print("  [%s] %s" % (warning.kind, warning.detail))

    # The fix: guard the initializer.  Re-analyze to confirm.
    fixed = SOURCE.replace(
        "function initOwner(address newOwner) public {\n        owner",
        "function initOwner(address newOwner) public {\n"
        "        require(msg.sender == owner);\n        owner",
    )
    fixed_result = api.analyze(compile_source(fixed).runtime)
    print("\nafter guarding initOwner: %d warning(s)" % len(fixed_result.warnings))


if __name__ == "__main__":
    main()
