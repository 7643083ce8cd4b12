"""Delegatecall forwarding (`delegatecall(target, "sig", args...)`)."""

import pytest

from repro import api
from repro.minisol import ast_nodes as ast
from repro.minisol import compile_source
from repro.minisol.parser import parse


class TestParsing:
    def test_with_signature_is_external_call(self):
        program = parse(
            'contract C { function f(address t) public { delegatecall(t, "g()"); } }'
        )
        stmt = program.contracts[0].function("f").body.statements[0]
        assert isinstance(stmt.expr, ast.ExternalCall)
        assert stmt.expr.kind == "delegatecall"

    def test_without_signature_is_builtin(self):
        program = parse(
            "contract C { function f(address t) public { delegatecall(t); } }"
        )
        stmt = program.contracts[0].function("f").body.statements[0]
        assert isinstance(stmt.expr, ast.CallExpr)
        assert stmt.expr.name == "delegatecall"

    def test_forwarded_args_parsed(self):
        program = parse(
            'contract C { function f(address t, uint256 v) public '
            '{ delegatecall(t, "set(uint256)", v); } }'
        )
        stmt = program.contracts[0].function("f").body.statements[0]
        assert len(stmt.expr.args) == 1


class TestCodegen:
    def test_emits_delegatecall_opcode(self):
        contract = compile_source(
            'contract C { function f(address t) public { delegatecall(t, "g()"); } }'
        )
        from repro.evm.disassembler import disassemble

        names = {ins.name for ins in disassemble(contract.runtime)}
        assert "DELEGATECALL" in names
        assert "CALL" not in names


class TestAnalysis:
    def test_forwarded_delegatecall_with_tainted_target_flagged(self):
        result = api.analyze(
            compile_source(
                'contract C { function f(address t) public { delegatecall(t, "g()"); } }'
            ).runtime
        )
        assert result.has("tainted-delegatecall")

    def test_forwarded_delegatecall_with_fixed_target_clean(self):
        result = api.analyze(
            compile_source(
                """
contract C {
    address lib;
    constructor(address l) { lib = l; }
    function f(uint256 v) public { delegatecall(lib, "set(uint256)", v); }
}
"""
            ).runtime
        )
        assert not result.has("tainted-delegatecall")
