"""Linear-sweep EVM disassembler.

Turns raw bytecode into a list of :class:`Instruction` records.  The sweep is
linear: every byte offset that is not inside a ``PUSH`` immediate becomes an
instruction.  Data trailing the code section (e.g. constructor arguments or
metadata) disassembles to ``UNKNOWN``/``INVALID`` instructions, which the
decompiler simply never reaches.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from repro.deadline import CHECK_INTERVAL, Deadline
from repro.evm.opcodes import TABLE, Opcode


class Instruction(NamedTuple):
    """One decoded instruction: its code offset, opcode, and push operand.

    A named tuple: immutable, hashable, equal by value, and cheap to build
    in the sweep.
    """

    offset: int
    opcode: Opcode
    operand: Optional[int] = None

    @property
    def name(self) -> str:
        return self.opcode.name

    @property
    def size(self) -> int:
        return 1 + self.opcode.immediate_size

    @property
    def next_offset(self) -> int:
        return self.offset + self.size

    def __str__(self) -> str:
        if self.operand is not None:
            return "0x%04x %s 0x%x" % (self.offset, self.name, self.operand)
        return "0x%04x %s" % (self.offset, self.name)


def disassemble(code: bytes, deadline: Optional[Deadline] = None) -> List[Instruction]:
    """Disassemble ``code`` into instructions by linear sweep, ticking
    ``deadline`` once per slice of :data:`~repro.deadline.CHECK_INTERVAL`
    bytes."""
    deadline = deadline or Deadline()
    instructions: List[Instruction] = []
    append = instructions.append
    # Building through tuple.__new__ skips the named tuple's Python-level
    # __new__, which would otherwise be about half the cost of a PUSH.
    new = tuple.__new__
    offset = 0
    length = len(code)
    while offset < length:
        stop = min(offset + CHECK_INTERVAL, length)
        deadline.tick(stop - offset)
        while offset < stop:
            opcode = TABLE[code[offset]]
            size = opcode.immediate_size
            if size:
                end = offset + 1 + size
                # A PUSH whose immediate is truncated by end-of-code reads
                # zeros, matching EVM semantics.
                operand = int.from_bytes(code[offset + 1 : end].ljust(size, b"\x00"), "big")
                append(new(Instruction, (offset, opcode, operand)))
                offset = end
            else:
                append(new(Instruction, (offset, opcode, None)))
                offset += 1
    return instructions


def instruction_map(code: bytes) -> Dict[int, Instruction]:
    """Map each code offset to its instruction."""
    return {ins.offset: ins for ins in disassemble(code)}


def jumpdest_offsets(code: bytes) -> List[int]:
    """Offsets of all valid ``JUMPDEST`` instructions (jump targets)."""
    return [ins.offset for ins in disassemble(code) if ins.name == "JUMPDEST"]


def format_disassembly(code: bytes) -> str:
    """Human-readable multi-line disassembly listing."""
    return "\n".join(str(ins) for ins in disassemble(code))
