"""Disassembler: linear sweep, push immediates, truncation."""

import pytest
from hypothesis import given, strategies as st

from repro.evm.disassembler import (
    disassemble,
    format_disassembly,
    instruction_map,
    jumpdest_offsets,
)


class TestSweep:
    def test_simple_program(self):
        code = bytes([0x60, 0x01, 0x60, 0x02, 0x01, 0x00])  # PUSH1 1 PUSH1 2 ADD STOP
        names = [ins.name for ins in disassemble(code)]
        assert names == ["PUSH1", "PUSH1", "ADD", "STOP"]

    def test_offsets_skip_immediates(self):
        code = bytes([0x61, 0xAA, 0xBB, 0x00])  # PUSH2 0xAABB STOP
        instructions = disassemble(code)
        assert [ins.offset for ins in instructions] == [0, 3]
        assert instructions[0].operand == 0xAABB

    def test_truncated_push_pads_with_zeros(self):
        code = bytes([0x62, 0xAA])  # PUSH3 with only one immediate byte
        (ins,) = disassemble(code)
        assert ins.operand == 0xAA0000

    def test_unknown_bytes_become_unknown_instructions(self):
        code = bytes([0x0C, 0x0D])
        names = [ins.name for ins in disassemble(code)]
        assert all(name.startswith("UNKNOWN") for name in names)

    def test_empty_code(self):
        assert disassemble(b"") == []

    def test_next_offset_and_size(self):
        code = bytes([0x60, 0x01, 0x00])
        first = disassemble(code)[0]
        assert first.size == 2
        assert first.next_offset == 2
        with pytest.raises(AttributeError):
            first.offset = 5  # immutable


class TestHelpers:
    def test_jumpdest_offsets(self):
        code = bytes([0x5B, 0x60, 0x5B, 0x5B])  # JUMPDEST PUSH1 0x5B JUMPDEST
        assert jumpdest_offsets(code) == [0, 3]

    def test_jumpdest_inside_push_not_counted(self):
        code = bytes([0x60, 0x5B, 0x00])
        assert jumpdest_offsets(code) == []

    def test_instruction_map_keys(self):
        code = bytes([0x60, 0x01, 0x00])
        mapping = instruction_map(code)
        assert set(mapping) == {0, 2}

    def test_format_contains_offsets_and_names(self):
        text = format_disassembly(bytes([0x60, 0xFF, 0x00]))
        assert "PUSH1 0xff" in text
        assert "STOP" in text

    @given(st.binary(max_size=256))
    def test_sweep_covers_every_byte_once(self, code):
        instructions = disassemble(code)
        covered = sum(ins.size for ins in instructions)
        # The final PUSH may extend past the end of the code.
        assert covered >= len(code)
        offsets = [ins.offset for ins in instructions]
        assert offsets == sorted(set(offsets))
        # Instructions are values: a second sweep equals the first, and
        # they hash (distinct offsets make distinct instructions).
        assert disassemble(code) == instructions
        assert len(set(instructions)) == len(instructions)
        for ins in instructions:
            n = ins.opcode.immediate_size
            if n:
                raw = code[ins.offset + 1 : ins.offset + 1 + n]
                assert ins.operand == int.from_bytes(raw.ljust(n, b"\0"), "big")
            else:
                assert ins.operand is None
