"""Opcode table invariants."""

import pytest

from repro.evm.opcodes import OPCODES, TABLE, is_push_name, opcode_by_name, opcode_by_value


class TestTableShape:
    def test_push_range_present(self):
        for n in range(1, 33):
            op = opcode_by_name("PUSH%d" % n)
            assert op.value == 0x60 + n - 1
            assert op.immediate_size == n
            assert op.is_push

    def test_dup_range_present(self):
        for n in range(1, 17):
            op = opcode_by_name("DUP%d" % n)
            assert op.value == 0x80 + n - 1
            assert op.pops == n
            assert op.pushes == n + 1
            assert op.is_dup

    def test_swap_range_present(self):
        for n in range(1, 17):
            op = opcode_by_name("SWAP%d" % n)
            assert op.value == 0x90 + n - 1
            assert op.pops == n + 1
            assert op.is_swap

    def test_values_unique_and_consistent(self):
        for value, op in OPCODES.items():
            assert op.value == value

    def test_known_core_opcodes(self):
        assert opcode_by_name("SELFDESTRUCT").value == 0xFF
        assert opcode_by_name("DELEGATECALL").value == 0xF4
        assert opcode_by_name("STATICCALL").value == 0xFA
        assert opcode_by_name("SHA3").value == 0x20
        assert opcode_by_name("SSTORE").value == 0x55
        assert opcode_by_name("JUMPI").value == 0x57

    def test_stack_arity_sane(self):
        for op in OPCODES.values():
            assert 0 <= op.pops <= 17
            assert 0 <= op.pushes <= 17


class TestTerminators:
    @pytest.mark.parametrize(
        "name", ["STOP", "RETURN", "REVERT", "INVALID", "SELFDESTRUCT", "JUMP"]
    )
    def test_terminators(self, name):
        assert opcode_by_name(name).is_terminator

    @pytest.mark.parametrize("name", ["JUMPI", "ADD", "CALL", "SSTORE"])
    def test_non_terminators(self, name):
        assert not opcode_by_name(name).is_terminator

    def test_jumpi_alters_control_flow(self):
        assert opcode_by_name("JUMPI").alters_control_flow
        assert not opcode_by_name("ADD").alters_control_flow

    def test_jump_ends_a_block_without_halting(self):
        jump = opcode_by_name("JUMP")
        assert jump.is_terminator and not jump.halts
        halting = {op.name for op in OPCODES.values() if op.halts}
        assert halting == {"STOP", "RETURN", "REVERT", "INVALID", "SELFDESTRUCT"}

    def test_flags_nest_for_every_byte(self):
        assert len(TABLE) == 256
        for value, op in enumerate(TABLE):
            assert op.value == value
            assert op.is_terminator or not op.halts
            assert op.alters_control_flow or not op.is_terminator
            if value not in OPCODES:
                # An unknown byte is a plain statement inside its block.
                assert op.name.startswith("UNKNOWN")
                assert not op.alters_control_flow


class TestLookup:
    def test_unknown_value_yields_placeholder(self):
        op = opcode_by_value(0x21)
        assert op.name.startswith("UNKNOWN")
        assert op.pops == 0 and op.pushes == 0

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            opcode_by_name("FROBNICATE")

    def test_is_push_name(self):
        assert is_push_name("PUSH1")
        assert is_push_name("PUSH32")
        assert not is_push_name("PUSH")
        assert not is_push_name("PUSHY")
