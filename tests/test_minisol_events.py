"""MiniSol events: parsing, checking, codegen, VM logs."""

import pytest

from repro import api
from repro.chain import Blockchain
from repro.evm.hashing import keccak_int
from repro.minisol import ast_nodes as ast
from repro.minisol import compile_source
from repro.minisol.checker import CheckError
from repro.minisol.parser import ParseError, parse

SOURCE = """
contract T {
    event Transfer(address to, uint256 value);
    event Ping();
    mapping(address => uint256) balances;
    constructor() { balances[msg.sender] = 100; }
    function transfer(address to, uint256 value) public {
        require(balances[msg.sender] >= value);
        balances[to] += value;
        balances[msg.sender] -= value;
        emit Transfer(to, value);
    }
    function ping() public { emit Ping(); }
}
"""


class TestParsing:
    def test_event_declaration(self):
        contract = parse(SOURCE).contracts[0]
        assert [e.name for e in contract.events] == ["Transfer", "Ping"]
        assert contract.events[0].signature == "Transfer(address,uint256)"

    def test_emit_statement(self):
        contract = parse(SOURCE).contracts[0]
        emit = contract.function("transfer").body.statements[-1]
        assert isinstance(emit, ast.Emit)
        assert emit.name == "Transfer"
        assert len(emit.args) == 2

    def test_event_requires_semicolon(self):
        with pytest.raises(ParseError):
            parse("contract C { event E() }")


class TestChecking:
    def test_unknown_event(self):
        with pytest.raises(CheckError):
            compile_source("contract C { function f() public { emit Nope(); } }")

    def test_arity_mismatch(self):
        with pytest.raises(CheckError):
            compile_source(
                "contract C { event E(uint256 a); function f() public { emit E(); } }"
            )


class TestExecution:
    def test_log_emitted_with_topic_and_data(self):
        contract = compile_source(SOURCE)
        chain = Blockchain()
        chain.fund(0xA, 10**18)
        address = chain.deploy(0xA, contract.init_with_args()).contract_address
        receipt = chain.transact(0xA, address, contract.calldata("transfer", 0xB, 40))
        assert receipt.success
        (log,) = receipt.result.logs
        log_address, topics, data = log
        assert log_address == address
        assert topics == [keccak_int(b"Transfer(address,uint256)")]
        assert int.from_bytes(data[:32], "big") == 0xB
        assert int.from_bytes(data[32:], "big") == 40

    def test_zero_arg_event(self):
        contract = compile_source(SOURCE)
        chain = Blockchain()
        chain.fund(0xA, 10**18)
        address = chain.deploy(0xA, contract.init_with_args()).contract_address
        receipt = chain.transact(0xA, address, contract.calldata("ping"))
        (log,) = receipt.result.logs
        assert log[1] == [keccak_int(b"Ping()")]
        assert log[2] == b""

    def test_reverted_transaction_drops_logs(self):
        contract = compile_source(SOURCE)
        chain = Blockchain()
        chain.fund(0xA, 10**18)
        address = chain.deploy(0xA, contract.init_with_args()).contract_address
        receipt = chain.transact(
            0xA, address, contract.calldata("transfer", 0xB, 10**9)
        )
        assert not receipt.success

    def test_emit_in_modifier(self):
        source = """
contract C {
    event Guarded(address who);
    modifier logged() { emit Guarded(msg.sender); _; }
    uint256 x;
    function f(uint256 v) public logged { x = v; }
}
"""
        contract = compile_source(source)
        chain = Blockchain()
        chain.fund(0xA, 10**18)
        address = chain.deploy(0xA, contract.init_with_args()).contract_address
        receipt = chain.transact(0xA, address, contract.calldata("f", 5))
        assert receipt.success
        assert len(receipt.result.logs) == 1


class TestAnalysisNeutrality:
    def test_events_do_not_affect_findings(self):
        """LOG instructions are not taint sinks: a benign token with events
        stays clean, a vulnerable contract with events stays flagged."""
        assert not api.analyze(compile_source(SOURCE).runtime).warnings
        vulnerable = """
contract C {
    event Died(address to);
    function die(address to) public {
        emit Died(to);
        selfdestruct(to);
    }
}
"""
        result = api.analyze(compile_source(vulnerable).runtime)
        kinds = {w.kind for w in result.warnings}
        assert kinds == {"accessible-selfdestruct", "tainted-selfdestruct"}
