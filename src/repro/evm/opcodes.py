"""The EVM opcode table.

Each opcode is described by an :class:`Opcode` record giving its byte value,
mnemonic, stack arity (items popped and pushed), the number of immediate
bytes following it in the code stream (nonzero only for ``PUSH1``..``PUSH32``),
and a base gas cost.  Gas costs follow the Istanbul schedule closely enough
for relative measurements; the simulator is not intended for consensus.

The control-flow flags are plain fields, computed once per opcode when the
table is built, so the per-instruction loops (disassembler, lifter,
interpreter, teEther) read them without calling anything.  :data:`TABLE`
holds all 256 byte values, unknown ones included, so decoding a byte is one
index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

# Instructions after which execution of the contract stops.
HALTING = frozenset({"STOP", "RETURN", "REVERT", "INVALID", "SELFDESTRUCT"})


@dataclass(frozen=True)
class Opcode:
    """Static description of one EVM opcode.

    The flags below are derived from ``value`` and ``name`` at
    construction.  They nest: ``halts`` (control leaves the contract)
    implies ``is_terminator`` (control never falls through: the halts plus
    ``JUMP``), which implies ``alters_control_flow`` (the instruction ends
    a basic block: the terminators plus ``JUMPI``).
    """

    value: int
    name: str
    pops: int
    pushes: int
    immediate_size: int = 0
    gas: int = 3
    is_push: bool = field(init=False, compare=False, repr=False)
    is_dup: bool = field(init=False, compare=False, repr=False)
    is_swap: bool = field(init=False, compare=False, repr=False)
    halts: bool = field(init=False, compare=False, repr=False)
    is_terminator: bool = field(init=False, compare=False, repr=False)
    alters_control_flow: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        halts = self.name in HALTING
        terminator = halts or self.name == "JUMP"
        flags = {
            "is_push": 0x60 <= self.value <= 0x7F,
            "is_dup": 0x80 <= self.value <= 0x8F,
            "is_swap": 0x90 <= self.value <= 0x9F,
            "halts": halts,
            "is_terminator": terminator,
            "alters_control_flow": terminator or self.name == "JUMPI",
        }
        for name, flag in flags.items():
            object.__setattr__(self, name, flag)


def _op(value: int, name: str, pops: int, pushes: int, gas: int = 3, imm: int = 0) -> Opcode:
    return Opcode(value=value, name=name, pops=pops, pushes=pushes, immediate_size=imm, gas=gas)


_KNOWN = [
    # 0x00s: stop & arithmetic
    _op(0x00, "STOP", 0, 0, gas=0),
    _op(0x01, "ADD", 2, 1),
    _op(0x02, "MUL", 2, 1, gas=5),
    _op(0x03, "SUB", 2, 1),
    _op(0x04, "DIV", 2, 1, gas=5),
    _op(0x05, "SDIV", 2, 1, gas=5),
    _op(0x06, "MOD", 2, 1, gas=5),
    _op(0x07, "SMOD", 2, 1, gas=5),
    _op(0x08, "ADDMOD", 3, 1, gas=8),
    _op(0x09, "MULMOD", 3, 1, gas=8),
    _op(0x0A, "EXP", 2, 1, gas=10),
    _op(0x0B, "SIGNEXTEND", 2, 1, gas=5),
    # 0x10s: comparison & bitwise
    _op(0x10, "LT", 2, 1),
    _op(0x11, "GT", 2, 1),
    _op(0x12, "SLT", 2, 1),
    _op(0x13, "SGT", 2, 1),
    _op(0x14, "EQ", 2, 1),
    _op(0x15, "ISZERO", 1, 1),
    _op(0x16, "AND", 2, 1),
    _op(0x17, "OR", 2, 1),
    _op(0x18, "XOR", 2, 1),
    _op(0x19, "NOT", 1, 1),
    _op(0x1A, "BYTE", 2, 1),
    _op(0x1B, "SHL", 2, 1),
    _op(0x1C, "SHR", 2, 1),
    _op(0x1D, "SAR", 2, 1),
    # 0x20s: crypto
    _op(0x20, "SHA3", 2, 1, gas=30),
    # 0x30s: environment
    _op(0x30, "ADDRESS", 0, 1, gas=2),
    _op(0x31, "BALANCE", 1, 1, gas=700),
    _op(0x32, "ORIGIN", 0, 1, gas=2),
    _op(0x33, "CALLER", 0, 1, gas=2),
    _op(0x34, "CALLVALUE", 0, 1, gas=2),
    _op(0x35, "CALLDATALOAD", 1, 1),
    _op(0x36, "CALLDATASIZE", 0, 1, gas=2),
    _op(0x37, "CALLDATACOPY", 3, 0),
    _op(0x38, "CODESIZE", 0, 1, gas=2),
    _op(0x39, "CODECOPY", 3, 0),
    _op(0x3A, "GASPRICE", 0, 1, gas=2),
    _op(0x3B, "EXTCODESIZE", 1, 1, gas=700),
    _op(0x3C, "EXTCODECOPY", 4, 0, gas=700),
    _op(0x3D, "RETURNDATASIZE", 0, 1, gas=2),
    _op(0x3E, "RETURNDATACOPY", 3, 0),
    _op(0x3F, "EXTCODEHASH", 1, 1, gas=700),
    # 0x40s: block
    _op(0x40, "BLOCKHASH", 1, 1, gas=20),
    _op(0x41, "COINBASE", 0, 1, gas=2),
    _op(0x42, "TIMESTAMP", 0, 1, gas=2),
    _op(0x43, "NUMBER", 0, 1, gas=2),
    _op(0x44, "DIFFICULTY", 0, 1, gas=2),
    _op(0x45, "GASLIMIT", 0, 1, gas=2),
    _op(0x46, "CHAINID", 0, 1, gas=2),
    _op(0x47, "SELFBALANCE", 0, 1, gas=5),
    # 0x50s: stack/memory/storage/flow
    _op(0x50, "POP", 1, 0, gas=2),
    _op(0x51, "MLOAD", 1, 1),
    _op(0x52, "MSTORE", 2, 0),
    _op(0x53, "MSTORE8", 2, 0),
    _op(0x54, "SLOAD", 1, 1, gas=800),
    _op(0x55, "SSTORE", 2, 0, gas=5000),
    _op(0x56, "JUMP", 1, 0, gas=8),
    _op(0x57, "JUMPI", 2, 0, gas=10),
    _op(0x58, "PC", 0, 1, gas=2),
    _op(0x59, "MSIZE", 0, 1, gas=2),
    _op(0x5A, "GAS", 0, 1, gas=2),
    _op(0x5B, "JUMPDEST", 0, 0, gas=1),
    # 0xa0s: logging
    _op(0xA0, "LOG0", 2, 0, gas=375),
    _op(0xA1, "LOG1", 3, 0, gas=750),
    _op(0xA2, "LOG2", 4, 0, gas=1125),
    _op(0xA3, "LOG3", 5, 0, gas=1500),
    _op(0xA4, "LOG4", 6, 0, gas=1875),
    # 0xf0s: system
    _op(0xF0, "CREATE", 3, 1, gas=32000),
    _op(0xF1, "CALL", 7, 1, gas=700),
    _op(0xF2, "CALLCODE", 7, 1, gas=700),
    _op(0xF3, "RETURN", 2, 0, gas=0),
    _op(0xF4, "DELEGATECALL", 6, 1, gas=700),
    _op(0xF5, "CREATE2", 4, 1, gas=32000),
    _op(0xFA, "STATICCALL", 6, 1, gas=700),
    _op(0xFD, "REVERT", 2, 0, gas=0),
    _op(0xFE, "INVALID", 0, 0, gas=0),
    _op(0xFF, "SELFDESTRUCT", 1, 0, gas=5000),
]

# PUSH1..PUSH32
for _n in range(1, 33):
    _KNOWN.append(_op(0x60 + _n - 1, "PUSH%d" % _n, 0, 1, gas=3, imm=_n))
# DUP1..DUP16
for _n in range(1, 17):
    _KNOWN.append(_op(0x80 + _n - 1, "DUP%d" % _n, _n, _n + 1, gas=3))
# SWAP1..SWAP16
for _n in range(1, 17):
    _KNOWN.append(_op(0x90 + _n - 1, "SWAP%d" % _n, _n + 1, _n + 1, gas=3))

OPCODES: Dict[int, Opcode] = {op.value: op for op in _KNOWN}
_BY_NAME: Dict[str, Opcode] = {op.name: op for op in _KNOWN}


def _unknown(value: int) -> Opcode:
    return Opcode(value=value, name="UNKNOWN_0x%02X" % value, pops=0, pushes=0, gas=0)


# Every byte value's opcode, indexed by the byte.
TABLE: Tuple[Opcode, ...] = tuple(
    OPCODES.get(value) or _unknown(value) for value in range(256)
)


def opcode_by_value(value: int) -> Opcode:
    """Look up an opcode by byte value.

    Unknown byte values map to an ``INVALID``-like opcode record so that the
    disassembler never fails on arbitrary byte strings (real blockchain data
    contains plenty of non-code bytes).
    """
    if 0 <= value < 256:
        return TABLE[value]
    return _unknown(value)


def opcode_by_name(name: str) -> Opcode:
    """Look up an opcode by mnemonic; raises ``KeyError`` for unknown names."""
    return _BY_NAME[name]


def is_push_name(name: str) -> bool:
    """Whether ``name`` is a PUSH1..PUSH32 mnemonic."""
    return name.startswith("PUSH") and name[4:].isdigit()
