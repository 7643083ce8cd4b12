"""Decompiler: CFG recovery, jump resolution, TAC generation, selectors."""

import sys

import pytest

from repro.deadline import Deadline, DeadlineExceeded
from repro.decompiler import LiftError, find_public_functions, lift
from repro.decompiler.functions import blocks_reachable_from, function_of_block
from repro.evm.assembler import assemble, parse_asm
from repro.evm.hashing import function_selector
from repro.minisol import compile_source


def lift_asm(text):
    return lift(assemble(parse_asm(text)))


class TestBasicLifting:
    def test_straightline_code(self):
        program = lift_asm("PUSH 1\nPUSH 2\nADD\nSTOP")
        assert len(program.blocks) == 1
        block = program.blocks[program.entry]
        opcodes = [s.opcode for s in block.statements]
        assert opcodes == ["CONST", "CONST", "ADD", "STOP"]

    def test_consts_recorded(self):
        program = lift_asm("PUSH 0x42\nSTOP")
        (const_stmt, _) = program.blocks[program.entry].statements
        assert program.const_value[const_stmt.def_var] == 0x42

    def test_add_uses_both_operands(self):
        program = lift_asm("PUSH 1\nPUSH 2\nADD\nSTOP")
        add = program.statements_by_opcode("ADD")[0]
        assert len(add.uses) == 2
        assert add.def_var is not None

    def test_dup_swap_pop_emit_no_statements(self):
        program = lift_asm("PUSH 1\nDUP1\nSWAP1\nPOP\nPOP\nSTOP")
        opcodes = [s.opcode for s in program.blocks[program.entry].statements]
        assert opcodes == ["CONST", "STOP"]

    def test_direct_jump_resolved(self):
        program = lift_asm("@target\nJUMP\ntarget:\nSTOP")
        assert program.unresolved_jumps == []
        entry = program.blocks[program.entry]
        assert len(entry.successors) == 1

    def test_jumpi_two_successors_tagged(self):
        program = lift_asm("PUSH 1\n@t\nJUMPI\nSTOP\nt:\nSTOP")
        entry = program.blocks[program.entry]
        assert entry.taken_successor is not None
        assert entry.fallthrough_successor is not None
        assert set(entry.successors) == {
            entry.taken_successor,
            entry.fallthrough_successor,
        }

    def test_symbolic_jump_unresolved(self):
        # Jump target loaded from calldata cannot be resolved statically.
        program = lift_asm("PUSH 0\nCALLDATALOAD\nJUMP\nSTOP")
        assert len(program.unresolved_jumps) == 1

    def test_empty_code(self):
        program = lift(b"")
        assert program.blocks == {} or program.entry in program.blocks


class TestReturnJumpContexts:
    """The push-return-address calling convention must resolve precisely."""

    SHARED_CALLEE = """
@ret1
@fn
JUMP
ret1:
@ret2
@fn
JUMP
ret2:
STOP
fn:
JUMP          ; return jump: target differs per call site
"""

    def test_shared_callee_cloned_per_context(self):
        program = lift(assemble(parse_asm(self.SHARED_CALLEE)))
        assert program.unresolved_jumps == []
        # The callee block (ends in the return JUMP) must exist in two
        # context clones, one per pushed return address.
        by_offset = {}
        for block in program.blocks.values():
            by_offset.setdefault(block.offset, []).append(block)
        callee_instances = next(
            blocks
            for blocks in by_offset.values()
            if len(blocks) == 2
            and all(b.statements[-1].opcode == "JUMP" for b in blocks)
        )
        targets = {block.successors[0] for block in callee_instances}
        assert len(targets) == 2  # each clone returns to its own call site

    def test_minisol_internal_calls_fully_resolved(self):
        source = """
contract C {
    function helper(uint256 x) internal returns (uint256) { return x + 1; }
    function a() public returns (uint256) { return helper(1); }
    function b() public returns (uint256) { return helper(2); }
}
"""
        program = lift(compile_source(source).runtime)
        assert program.unresolved_jumps == []


class TestPhi:
    # NOTE: constant-valued stack positions never join — differing constants
    # produce separate context clones (that IS the context sensitivity).  A
    # PHI appears only when both predecessors pass a *symbolic* value.
    JOIN_TEXT = """
PUSH 0
CALLDATALOAD
@a
JUMPI
PUSH 0
CALLDATALOAD
@join
JUMP
a:
PUSH 32
CALLDATALOAD
@join
JUMP
join:
PUSH 0
MSTORE
STOP
"""

    def test_join_point_gets_phi(self):
        program = lift(assemble(parse_asm(self.JOIN_TEXT)))
        phis = program.statements_by_opcode("PHI")
        assert any(len(phi.uses) == 2 for phi in phis)

    def test_phi_def_used_downstream(self):
        program = lift(assemble(parse_asm(self.JOIN_TEXT)))
        phi = next(
            phi for phi in program.statements_by_opcode("PHI") if len(phi.uses) == 2
        )
        mstore = program.statements_by_opcode("MSTORE")[0]
        assert phi.def_var in mstore.uses

    def test_differing_constants_clone_instead_of_phi(self):
        text = """
PUSH 0
CALLDATALOAD
@a
JUMPI
PUSH 10
@join
JUMP
a:
PUSH 20
@join
JUMP
join:
PUSH 0
MSTORE
STOP
"""
        program = lift(assemble(parse_asm(text)))
        join_blocks = [b for b in program.blocks.values()
                       if any(s.opcode == "MSTORE" for s in b.statements)]
        assert len(join_blocks) == 2  # one clone per constant
        assert program.statements_by_opcode("PHI") == []


class TestSelectors:
    def test_victim_selectors(self, victim_contract):
        program = lift(victim_contract.runtime)
        found = {public.selector for public in find_public_functions(program)}
        expected = {
            function_selector(fn.signature)
            for fn in victim_contract.public_functions
        }
        assert found == expected

    def test_entry_blocks_reachable(self, victim_contract):
        program = lift(victim_contract.runtime)
        for public in find_public_functions(program):
            assert public.entry_block in program.blocks
            reachable = blocks_reachable_from(program, public.entry_block)
            assert public.entry_block in reachable

    def test_function_of_block_covers_selfdestruct(self, victim_contract):
        program = lift(victim_contract.runtime)
        ownership = function_of_block(program)
        kill_selector = function_selector("kill()")
        selfdestruct = program.statements_by_opcode("SELFDESTRUCT")[0]
        assert kill_selector in ownership[selfdestruct.block]

    def test_no_selectors_in_plain_code(self):
        program = lift_asm("PUSH 1\nPUSH 2\nADD\nSTOP")
        assert find_public_functions(program) == []


class TestStructure:
    def test_predecessors_consistent(self, victim_contract):
        program = lift(victim_contract.runtime)
        for block in program.blocks.values():
            for successor in block.successors:
                assert block.ident in program.blocks[successor].predecessors

    def test_statement_ids_unique(self, victim_contract):
        program = lift(victim_contract.runtime)
        ids = [s.ident for s in program.statements()]
        assert len(ids) == len(set(ids))

    def test_single_definition_per_variable(self, victim_contract):
        program = lift(victim_contract.runtime)
        defined = {}
        for stmt in program.statements():
            for var in stmt.defs:
                assert var not in defined, "variable %s defined twice" % var
                defined[var] = stmt.ident

    def test_str_rendering(self):
        program = lift_asm("PUSH 1\nSTOP")
        text = str(program)
        assert "CONST" in text and "STOP" in text


class TestCaps:
    def test_state_explosion_raises(self):
        # A dispatcher-like tower of contexts; tiny cap forces the error.
        source = """
contract C {
    function h(uint256 x) internal returns (uint256) { return x + 1; }
    function a() public returns (uint256) { return h(1) + h(2) + h(3); }
}
"""
        runtime = compile_source(source).runtime
        with pytest.raises(LiftError):
            lift(runtime, max_states=3)

    def test_clone_cap_collapses_instead_of_failing(self):
        source = """
contract C {
    function h(uint256 x) internal returns (uint256) { return x + 1; }
    function a() public returns (uint256) { return h(1) + h(2) + h(3) + h(4); }
}
"""
        runtime = compile_source(source).runtime
        program = lift(runtime, max_clones=1)
        assert program.blocks  # lifted, possibly with unresolved returns

    def test_junk_bytecode_does_not_crash(self):
        program = lift(bytes(range(256)))
        assert isinstance(program.blocks, dict)

    def test_finalize_checks_the_deadline(self, victim_contract):
        """The pass that builds the program after the worklist ticks the
        budget once per block instance, so a lift whose worklist just fit
        the budget cannot overrun it there."""

        class SpentAtFinalize(Deadline):
            """Records which function ticked; spent once finalize starts."""

            def __init__(self, spent):
                super().__init__()
                self.spent = spent
                self.tickers = []

            def tick(self, work=1):
                self.tickers.append(sys._getframe(1).f_code.co_name)
                if self.spent and self.tickers[-1] == "_finalize":
                    raise DeadlineExceeded("budget spent in finalize")
                super().tick(work)

        runtime = victim_contract.runtime
        recording = SpentAtFinalize(spent=False)
        program = lift(runtime, deadline=recording)
        assert recording.tickers.count("_finalize") == len(program.blocks)
        with pytest.raises(DeadlineExceeded):
            lift(runtime, deadline=SpentAtFinalize(spent=True))
