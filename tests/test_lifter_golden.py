"""The lifter's output, pinned byte for byte.

``canonical_tac`` renders every field of a :class:`TACProgram`: block
order, idents, offsets, successor and predecessor lists, taken and
fallthrough successors, and each statement's ident, opcode, defs, uses, pc
and block; then ``entry``, ``const_value`` in insertion order,
``selector_targets`` and ``unresolved_jumps``.  A failed lift renders as
its :class:`LiftError` text.

``GOLDEN_DIGEST`` is a sha256 over that rendering for a fixed input set:
hand-assembled edge cases, ``generate_corpus`` contracts, and seeded
random, byte-mutated and truncated bytecodes, each lifted under the
default caps and under tight ones.  It was recorded from the lifter as it
stood before its one-pass rewrite.  A change to the MiniSol compiler or the
corpus templates changes the inputs and may regenerate the digest; a
change to the lifter must not.

The exact-TAC cases below pin, statement by statement, the edge cases a
rewrite of the lifter most easily gets wrong.
"""

from __future__ import annotations

import hashlib
import json
import random

from repro.corpus import generate_corpus
from repro.decompiler import LiftError, lift
from repro.evm.assembler import assemble, parse_asm

GOLDEN_DIGEST = "d04092c5a04f89ed77c224f57693959d8054807eb24534e40cc1a0489a3c0213"

TIGHT_CAPS = {"max_stack": 8, "max_clones": 2, "max_states": 64}


def canonical_tac(program) -> list:
    """Every field of ``program`` as plain JSON-ready lists, in order."""
    return [
        [
            [
                block.ident,
                block.offset,
                block.successors,
                block.predecessors,
                block.taken_successor,
                block.fallthrough_successor,
                [
                    [s.ident, s.opcode, s.defs, s.uses, s.pc, s.block]
                    for s in block.statements
                ],
            ]
            for block in program.blocks.values()
        ],
        program.entry,
        [[var, value] for var, value in program.const_value.items()],
        sorted(program.selector_targets.items()),
        program.unresolved_jumps,
    ]


def canonical_lift(code: bytes, **caps) -> list:
    try:
        return ["ok", canonical_tac(lift(code, **caps))]
    except LiftError as error:
        return ["LiftError", str(error)]


def asm(text: str) -> bytes:
    return assemble(parse_asm(text))


EDGE_CASES = [
    b"",
    bytes([0x00]),
    bytes([0x62, 0xAA]),  # PUSH3 with one immediate byte
    bytes([0x7F]),  # PUSH32 with none
    bytes([0x50, 0x81, 0x92, 0xF1, 0x00]),  # POP DUP2 SWAP3 CALL STOP
    bytes([0x60, 0x01, 0x0C, 0x60, 0x02, 0x01, 0x00]),  # unknown byte mid-block
    bytes([0x5B, 0x60, 0x01, 0x60, 0x00, 0x57]),  # JUMPI as the last instruction
    bytes([0x60, 0x01, 0x5B, 0x00]),  # PUSH1 1 | JUMPDEST STOP
    bytes([0x56]),  # JUMP on an empty stack
    bytes([0x57]),  # JUMPI on an empty stack
    bytes([0x5B, 0x5B, 0x5B]),
    bytes([0x60, 0x03, 0x56, 0x5B, 0x60, 0x03, 0x56]),  # self loop
    bytes([0x60, 0x05, 0x60, 0x07, 0x1B, 0x60, 0x01, 0x16, 0x00]),  # SHL, AND folds
    bytes([0x61, 0x01, 0x00, 0x60, 0x02, 0x1C, 0x56, 0x5B, 0x00]),  # SHR >= 256
    bytes([0xFF]),
    bytes([0xFD, 0xF3, 0xFE]),
    asm("PUSH 1\nPUSH 2\nADD\nSTOP"),
    asm("@target\nJUMP\ntarget:\nSTOP"),
    asm("PUSH 1\n@t\nJUMPI\nSTOP\nt:\nSTOP"),
    asm("PUSH 0\nCALLDATALOAD\nJUMP\nSTOP"),
    asm(
        "PUSH 0\nCALLDATALOAD\n@a\nJUMPI\nPUSH 0\nCALLDATALOAD\n@join\nJUMP\n"
        "a:\nPUSH 32\nCALLDATALOAD\n@join\nJUMP\njoin:\nPUSH 0\nMSTORE\nSTOP"
    ),
    asm(
        "@r1\n@fn\nJUMP\nr1:\n@r2\n@fn\nJUMP\nr2:\n@r3\n@fn\nJUMP\nr3:\nSTOP\n"
        "fn:\nJUMP"
    ),
    asm("loop:\nPUSH 1\nADD\nDUP1\n@loop\nJUMPI\nSTOP"),
    asm("top:\nCALLER\n@top\nJUMP"),
]

# Weighted token kinds for structured random code: enough JUMPDESTs,
# small PUSHes and jumps to grow real control flow, plus underflowing
# stack ops, foldable arithmetic, halts and unknown bytes.
_GENERIC = [0x01, 0x02, 0x03, 0x10, 0x14, 0x15, 0x16, 0x17, 0x18, 0x1B, 0x1C,
            0x33, 0x35, 0x51, 0x52, 0x54, 0x55, 0xA1, 0xF1]
_HALTS = [0x00, 0xF3, 0xFD, 0xFE, 0xFF]
_UNKNOWN = [0x0C, 0x21, 0x4F, 0xEF]


def structured_code(rng: random.Random, length: int) -> bytes:
    out = bytearray()
    while len(out) < length:
        roll = rng.random()
        if roll < 0.12:
            out.append(0x5B)
        elif roll < 0.30:
            out += bytes([0x60, rng.randrange(min(length, 255) + 1)])
        elif roll < 0.36:
            out.append(0x56)
        elif roll < 0.43:
            out.append(0x57)
        elif roll < 0.52:
            out.append(rng.randrange(0x80, 0x85))
        elif roll < 0.60:
            out.append(rng.randrange(0x90, 0x94))
        elif roll < 0.64:
            out.append(0x50)
        elif roll < 0.78:
            out.append(rng.choice(_GENERIC))
        elif roll < 0.82:
            out.append(rng.choice(_HALTS))
        elif roll < 0.85:
            out.append(rng.choice(_UNKNOWN))
        elif roll < 0.89:
            out += bytes([0x61]) + rng.randrange(65536).to_bytes(2, "big")
        else:
            out.append(rng.randrange(256))
    return bytes(out)


def mutate(rng: random.Random, code: bytes, flips: int) -> bytes:
    data = bytearray(code)
    for _ in range(flips):
        data[rng.randrange(len(data))] = rng.randrange(256)
    return bytes(data)


def golden_inputs() -> list:
    rng = random.Random(20200615)
    corpus = [contract.runtime for contract in generate_corpus(24, seed=3)]
    inputs = list(EDGE_CASES) + corpus
    inputs += [structured_code(rng, rng.randrange(1, 200)) for _ in range(160)]
    inputs += [bytes(rng.randrange(256) for _ in range(rng.randrange(300)))
               for _ in range(60)]
    for code in corpus[:12]:
        inputs += [mutate(rng, code, rng.randrange(1, 6)) for _ in range(3)]
        inputs += [code[: rng.randrange(len(code))] for _ in range(3)]
    return inputs


def golden_digest(inputs) -> str:
    sha = hashlib.sha256()
    for code in inputs:
        for caps in ({}, TIGHT_CAPS):
            sha.update(json.dumps(canonical_lift(code, **caps)).encode())
            sha.update(b"\n")
    return sha.hexdigest()


def test_golden_digest():
    assert golden_digest(golden_inputs()) == GOLDEN_DIGEST


def listing(program) -> list:
    """Each block's header and each statement, one plain line apiece."""
    lines = []
    for block in program.blocks.values():
        lines.append(
            "%s @%d succ=%s taken=%s fall=%s"
            % (
                block.ident,
                block.offset,
                ",".join(block.successors),
                block.taken_successor,
                block.fallthrough_successor,
            )
        )
        lines += ["  %s %s @%d" % (s.ident, s, s.pc) for s in block.statements]
    return lines


class TestExactTAC:
    def test_underflow_numbers_u_vars_in_order(self):
        # POP discards u1; DUP2 inserts u2 then u3 below it; SWAP3 inserts
        # u4; CALL pops four slots, then underflows into u5..u7, and its
        # result takes v8 from the same counter.
        program = lift(bytes([0x50, 0x81, 0x92, 0xF1, 0x00]))
        assert listing(program) == [
            "B0_1 @0 succ= taken=None fall=None",
            "  B0_1_1 v8 = CALL(u4, u2, u3, u3, u5, u6, u7) @3",
            "  B0_1_2 STOP() @4",
        ]

    def test_truncated_push_zero_pads(self):
        program = lift(bytes([0x62, 0xAA]))
        assert listing(program) == [
            "B0_1 @0 succ= taken=None fall=None",
            "  B0_1_1 v1 = CONST() @0",
        ]
        assert program.const_value == {"v1": 0xAA0000}

    def test_unknown_byte_is_a_statement_mid_block(self):
        program = lift(bytes([0x60, 0x01, 0x0C, 0x60, 0x02, 0x01, 0x00]))
        assert listing(program) == [
            "B0_1 @0 succ= taken=None fall=None",
            "  B0_1_1 v1 = CONST() @0",
            "  B0_1_2 UNKNOWN_0x0C() @2",
            "  B0_1_3 v2 = CONST() @3",
            "  B0_1_4 v3 = ADD(v2, v1) @5",
            "  B0_1_5 STOP() @6",
        ]

    def test_jumpi_last_has_no_fallthrough(self):
        program = lift(bytes([0x5B, 0x60, 0x01, 0x60, 0x00, 0x57]))
        assert listing(program) == [
            "B0_1 @0 succ=B0_1 taken=B0_1 fall=None",
            "  B0_1_1 v1 = CONST() @1",
            "  B0_1_2 v2 = CONST() @3",
            "  B0_1_3 JUMPI(v2, v1) @5",
        ]
        assert program.blocks["B0_1"].predecessors == ["B0_1"]

    def test_jumpdest_cut_falls_through(self):
        program = lift(bytes([0x60, 0x01, 0x5B, 0x00]))
        assert listing(program) == [
            "B0_1 @0 succ=B2_1 taken=None fall=B2_1",
            "  B0_1_1 v1 = CONST() @0",
            "B2_1 @2 succ= taken=None fall=None",
            "  B2_1_entry0 B2_1_s0 = CONST() @2",
            "  B2_1_2 STOP() @3",
        ]
        assert program.const_value == {"v1": 1, "B2_1_s0": 1}

    def test_clone_cap_collapses_to_one_unknown_instance(self):
        code = asm(
            "@r1\n@fn\nJUMP\nr1:\n@r2\n@fn\nJUMP\nr2:\n@r3\n@fn\nJUMP\nr3:\n"
            "STOP\nfn:\nJUMP"
        )
        program = lift(code, max_clones=2)
        # The third call's return address no longer makes a context: its
        # instance B19_3 takes the address through a PHI, so its return
        # jump is unresolved.
        assert listing(program) == [
            "B0_1 @0 succ=B19_1 taken=B19_1 fall=None",
            "  B0_1_1 v1 = CONST() @0",
            "  B0_1_2 v2 = CONST() @3",
            "  B0_1_3 JUMP(v2) @6",
            "B19_1 @25 succ=B7_1 taken=B7_1 fall=None",
            "  B19_1_entry0 B19_1_s0 = CONST() @25",
            "  B19_1_2 JUMP(B19_1_s0) @26",
            "B7_1 @7 succ=B19_2 taken=B19_2 fall=None",
            "  B7_1_1 v3 = CONST() @8",
            "  B7_1_2 v4 = CONST() @11",
            "  B7_1_3 JUMP(v4) @14",
            "B19_2 @25 succ=Bf_1 taken=Bf_1 fall=None",
            "  B19_2_entry0 B19_2_s0 = CONST() @25",
            "  B19_2_2 JUMP(B19_2_s0) @26",
            "Bf_1 @15 succ=B19_3 taken=B19_3 fall=None",
            "  Bf_1_1 v5 = CONST() @16",
            "  Bf_1_2 v6 = CONST() @19",
            "  Bf_1_3 JUMP(v6) @22",
            "B19_3 @25 succ= taken=None fall=None",
            "  B19_3_phi0 B19_3_s0 = PHI(v5) @25",
            "  B19_3_1 JUMP(B19_3_s0) @26",
        ]
        assert program.unresolved_jumps == ["B19_3_1"]
