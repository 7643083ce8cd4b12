"""Context-sensitive lifting of EVM bytecode to three-address code.

The algorithm (in the style of Gigahorse/Vandal):

1. Split bytecode into *static blocks* at ``JUMPDEST`` boundaries and after
   control-transfer instructions, in one pass over the disassembly.
2. Abstractly interpret the operand stack.  An abstract value is a TAC
   variable that may carry a known constant.  Each static block is *cloned
   per context*, where a context is the tuple of constants visible on the
   entry stack — this distinguishes call sites that pushed different return
   addresses, so the ``PUSH ret; PUSH fn; JUMP ... JUMP`` internal-call
   convention resolves to precise return edges instead of a blown-up
   context-insensitive mush.
3. Each instance's symbolic execution emits TAC statements; values flowing
   along edges into non-constant entry positions become ``PHI`` statements.

Safety caps keep pathological inputs bounded: when a static block exceeds
``max_clones`` contexts, further edges collapse into a single all-unknown
instance; a global state cap aborts with :class:`LiftError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro.deadline import Deadline
from repro.evm.disassembler import Instruction, disassemble
from repro.evm.hashing import UINT_MAX
from repro.evm.opcodes import TABLE, Opcode
from repro.ir.tac import TACBlock, TACProgram, TACStatement

# Opcodes we constant-fold during lifting (helps resolve computed jumps in
# foreign bytecode; our own compiler pushes jump targets directly).
_FOLDABLE = {
    "ADD": lambda a, b: (a + b) & UINT_MAX,
    "SUB": lambda a, b: (a - b) & UINT_MAX,
    "MUL": lambda a, b: (a * b) & UINT_MAX,
    "AND": lambda a, b: a & b,
    "OR": lambda a, b: a | b,
    "XOR": lambda a, b: a ^ b,
    "SHL": lambda a, b: (b << a) & UINT_MAX if a < 256 else 0,
    "SHR": lambda a, b: b >> a if a < 256 else 0,
    "EQ": lambda a, b: 1 if a == b else 0,
}

# What the interpreter does with each byte value, decided once here.
_PUSH, _OP, _DUP, _SWAP, _POP, _JUMPDEST, _JUMP, _JUMPI, _HALT = range(9)
_BY_NAME = {"POP": _POP, "JUMPDEST": _JUMPDEST, "JUMP": _JUMP, "JUMPI": _JUMPI}


def _action(opcode: Opcode) -> int:
    if opcode.is_push:
        return _PUSH
    if opcode.is_dup:
        return _DUP
    if opcode.is_swap:
        return _SWAP
    if opcode.halts:
        return _HALT
    return _BY_NAME.get(opcode.name, _OP)


_ACTIONS: Tuple[int, ...] = tuple(_action(opcode) for opcode in TABLE)

# A stack slot: a TAC variable name plus its constant value, if known.
_Slot = Tuple[str, Optional[int]]


class LiftError(Exception):
    """Decompilation failed (cap exceeded or irrecoverably malformed code)."""


class _StaticBlock(NamedTuple):
    offset: int
    instructions: List[Instruction]
    fallthrough: Optional[int]  # next block offset if control falls through


@dataclass(slots=True)
class _Instance:
    """One context-clone of a static block."""

    ident: str
    offset: int
    entry_stack: List[_Slot]
    # phi inputs per entry position (only for non-constant positions)
    phi_inputs: Dict[int, Set[str]] = field(default_factory=dict)
    statements: List[TACStatement] = field(default_factory=list)
    successors: List[str] = field(default_factory=list)
    taken_successor: Optional[str] = None
    fallthrough_successor: Optional[str] = None


def _split_blocks(code: bytes, deadline: Deadline) -> Dict[int, _StaticBlock]:
    """Cut the disassembly into static blocks in one pass: a block ends
    before a ``JUMPDEST`` and after an instruction that alters control
    flow, and falls through to the next one unless it ends in a
    terminator.  Ticks ``deadline`` once per block."""
    blocks: Dict[int, _StaticBlock] = {}
    body: List[Instruction] = []
    ended = False  # the last instruction of ``body`` ends its block
    for ins in disassemble(code, deadline):
        if body and (ended or ins.opcode.name == "JUMPDEST"):
            deadline.tick(len(body))
            start = body[0].offset
            falls = not body[-1].opcode.is_terminator
            blocks[start] = _StaticBlock(start, body, ins.offset if falls else None)
            body = []
        body.append(ins)
        ended = ins.opcode.alters_control_flow
    if body:
        blocks[body[0].offset] = _StaticBlock(body[0].offset, body, None)
    return blocks


def _pop_slots(stack: List[_Slot], n: int, numbers) -> List[_Slot]:
    """Pop ``n`` slots, top first.  Slots below the entry stack (malformed
    code or a collapsed context) become fresh ``u`` variables."""
    if n <= len(stack):
        if not n:
            return []
        taken = stack[-n:]
        del stack[-n:]
        taken.reverse()
        return taken
    taken = stack[::-1]
    stack.clear()
    taken += [(f"u{next(numbers)}", None) for _ in range(n - len(taken))]
    return taken


class _Lifter:
    def __init__(
        self,
        code: bytes,
        max_stack: int = 128,
        max_clones: int = 64,
        max_states: int = 20_000,
        deadline: Optional[Deadline] = None,
    ):
        # Ticked per byte slice of the sweep, per static block of the
        # split, per instance executed (by its instruction count) and per
        # instance finalized, so no pass over a large input outruns it.
        self.deadline = deadline = deadline or Deadline()
        self.code = code
        self.static_blocks = _split_blocks(code, deadline)
        self.max_stack = max_stack
        self.max_clones = max_clones
        self.max_states = max_states
        self.instances: Dict[Tuple[int, Tuple[Optional[int], ...]], _Instance] = {}
        self.clone_count: Dict[int, int] = {}
        self.worklist: List[_Instance] = []
        # One counter numbers both ``v<n>`` and underflow ``u<n>`` variables.
        self.numbers = count(1)
        self.const_value: Dict[str, int] = {}
        self.unresolved: List[str] = []

    # ------------------------------------------------------------- helpers

    def _get_instance(
        self, offset: int, incoming: List[_Slot]
    ) -> Optional[_Instance]:
        """Find or create the instance of ``offset`` for the incoming stack."""
        if offset not in self.static_blocks:
            return None
        if len(incoming) > self.max_stack:
            incoming = incoming[-self.max_stack :]

        key = (offset, tuple([const for _, const in incoming]))
        if key not in self.instances and self.clone_count.get(offset, 0) >= self.max_clones:
            # Collapse: one all-unknown instance per (offset, depth).
            key = (offset, (None,) * len(incoming))

        instance = self.instances.get(key)
        if instance is None:
            if len(self.instances) >= self.max_states:
                raise LiftError(
                    "state explosion: more than %d block instances" % self.max_states
                )
            clones = self.clone_count.get(offset, 0) + 1
            self.clone_count[offset] = clones
            ident = "B%x_%d" % (offset, clones)
            entry_stack = [
                ("%s_s%d" % (ident, position), const)
                for position, const in enumerate(key[1])
            ]
            instance = _Instance(ident, offset, entry_stack)
            self.instances[key] = instance
            self.worklist.append(instance)
        return instance

    def _connect(
        self,
        source: _Instance,
        out_stack: List[_Slot],
        target_offset: int,
        kind: str,
    ) -> None:
        """Add an edge from ``source`` to the instance for ``target_offset``."""
        target = self._get_instance(target_offset, out_stack)
        if target is None:
            return
        if target.ident not in source.successors:
            source.successors.append(target.ident)
        if kind == "taken":
            source.taken_successor = target.ident
        elif kind == "fallthrough":
            source.fallthrough_successor = target.ident
        # Register phi inputs for non-constant entry positions.
        depth = len(target.entry_stack)
        if depth:
            phi_inputs = target.phi_inputs
            for position, ((var, _), (_, const)) in enumerate(
                zip(out_stack[-depth:], target.entry_stack)
            ):
                if const is None:
                    phi_inputs.setdefault(position, set()).add(var)

    # ------------------------------------------------------------- driving

    def run(self) -> TACProgram:
        entry = self._get_instance(0, [])
        if entry is None:
            return TACProgram()
        while self.worklist:
            self._execute(self.worklist.pop())
        return self._finalize(entry)

    def _execute(self, instance: _Instance) -> None:
        block = self.static_blocks[instance.offset]
        self.deadline.tick(len(block.instructions))
        ident = instance.ident
        prefix = ident + "_"  # statement idents are <block>_<seq>
        stack = list(instance.entry_stack)
        emit = instance.statements.append
        const_value = self.const_value
        numbers = self.numbers
        seq = 0

        # Materialize constants for constant entry positions.
        for var, const in instance.entry_stack:
            if const is not None:
                const_value[var] = const
                emit(
                    TACStatement(
                        f"{prefix}entry{seq}", "CONST", [var], [],
                        instance.offset, ident,
                    )
                )
                seq += 1

        for offset, opcode, operand in block.instructions:
            action = _ACTIONS[opcode.value]
            if action == _PUSH:
                var = f"v{next(numbers)}"
                const_value[var] = operand
                seq += 1
                emit(TACStatement(f"{prefix}{seq}", "CONST", [var], [], offset, ident))
                stack.append((var, operand))
            elif action == _OP:
                pops = opcode.pops
                if pops == 2 and len(stack) >= 2:
                    operands = [stack.pop(), stack.pop()]
                elif pops == 1 and stack:
                    operands = [stack.pop()]
                else:
                    operands = _pop_slots(stack, pops, numbers)
                uses = [var for var, _ in operands]
                seq += 1
                if opcode.pushes:
                    const = None
                    if pops == 2:
                        a, b = operands[0][1], operands[1][1]
                        if a is not None and b is not None:
                            fold = _FOLDABLE.get(opcode.name)
                            if fold is not None:
                                const = fold(a, b)
                    var = f"v{next(numbers)}"
                    if const is not None:
                        const_value[var] = const
                    emit(TACStatement(f"{prefix}{seq}", opcode.name, [var], uses, offset, ident))
                    stack.append((var, const))
                else:
                    emit(TACStatement(f"{prefix}{seq}", opcode.name, [], uses, offset, ident))
            elif action == _DUP:
                n = opcode.value - 0x7F
                while len(stack) < n:
                    stack.insert(0, (f"u{next(numbers)}", None))
                stack.append(stack[-n])
            elif action == _SWAP:
                n = opcode.value - 0x8F
                while len(stack) <= n:
                    stack.insert(0, (f"u{next(numbers)}", None))
                stack[-1], stack[-n - 1] = stack[-n - 1], stack[-1]
            elif action == _POP:
                # A slot popped below the entry stack still takes a number.
                _pop_slots(stack, 1, numbers)
            elif action == _JUMPDEST:
                pass
            elif action == _HALT:
                uses = [var for var, _ in _pop_slots(stack, opcode.pops, numbers)]
                seq += 1
                emit(TACStatement(f"{prefix}{seq}", opcode.name, [], uses, offset, ident))
                return
            else:  # JUMP or JUMPI, the block's last instruction
                target, target_const = _pop_slots(stack, 1, numbers)[0]
                uses = [target]
                if action == _JUMPI:
                    uses.append(_pop_slots(stack, 1, numbers)[0][0])
                seq += 1
                statement_id = f"{prefix}{seq}"
                emit(TACStatement(statement_id, opcode.name, [], uses, offset, ident))
                if target_const is not None:
                    self._connect(instance, stack, target_const, "taken")
                else:
                    self.unresolved.append(statement_id)
                if action == _JUMPI and block.fallthrough is not None:
                    self._connect(instance, stack, block.fallthrough, "fallthrough")
                return

        # Fell off the end of the block.
        if block.fallthrough is not None:
            self._connect(instance, stack, block.fallthrough, "fallthrough")

    # ----------------------------------------------------------- finishing

    def _finalize(self, entry: _Instance) -> TACProgram:
        program = TACProgram(entry=entry.ident, const_value=self.const_value)
        program.unresolved_jumps = self.unresolved
        blocks = program.blocks
        tick = self.deadline.tick
        for instance in self.instances.values():
            tick()
            ident = instance.ident
            # PHI statements for joined entry positions.
            phi_inputs = instance.phi_inputs
            phis = [
                TACStatement(
                    "%s_phi%d" % (ident, position), "PHI", [var],
                    sorted(phi_inputs[position]), instance.offset, ident,
                )
                for position, (var, const) in enumerate(instance.entry_stack)
                if const is None and phi_inputs.get(position)
            ]
            blocks[ident] = TACBlock(
                ident=ident,
                offset=instance.offset,
                statements=phis + instance.statements if phis else instance.statements,
                successors=instance.successors,
                taken_successor=instance.taken_successor,
                fallthrough_successor=instance.fallthrough_successor,
            )
        # Fill predecessor lists.
        for block in blocks.values():
            for successor in block.successors:
                if successor in blocks:
                    blocks[successor].predecessors.append(block.ident)
        return program


def lift(code: bytes, **caps) -> TACProgram:
    """Decompile ``code`` into a :class:`TACProgram`.

    Keyword caps: ``max_stack``, ``max_clones``, ``max_states``, plus the
    run's :class:`~repro.deadline.Deadline` as ``deadline`` — see
    :class:`_Lifter`.  Raises :class:`LiftError` on state explosion and
    :class:`~repro.deadline.DeadlineExceeded` mid-lift once the budget is
    spent.
    """
    return _Lifter(code, **caps).run()
