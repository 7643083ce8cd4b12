"""Intraprocedural constant propagation + bounded value-set analysis.

The Gigahorse toolchain the paper builds on resolves most storage indices
through constant folding and partial evaluation inside the decompiler; our
lifter only folds operations whose operands are *directly* constant on the
symbolic stack.  Computed indices — ``base + offset``, masked constants,
comparison results used as array indices, constants spilled through memory
locals — therefore reach the storage model unresolved and fall into the
``StorageWrite-2`` over-approximation.

This module closes that gap as a separate static stratum over the lifted
TAC: every variable is mapped to a *bounded set* of possible 256-bit values
(``TOP`` = unknown), computed as a monotone fixpoint:

* ``CONST v``            -> the singleton set,
* ``PHI``                -> union of the incoming sets,
* ``ADD``/``MUL``/``SUB``/``AND``/``OR``/``XOR``/``SHL``/``SHR`` ->
  element-wise evaluation over the operand sets (masked to 256 bits,
  widened to ``TOP`` past a size cap),
* ``ISZERO``/``EQ``/``LT``/``GT``/``SLT``/``SGT`` -> evaluated exactly when
  the operands are bounded, and — the key widening rule — ``{0, 1}`` even
  when an operand is ``TOP``: a comparison over attacker data still has a
  two-point range, which is what makes tainted-but-bounded storage indices
  resolvable,
* ``MLOAD`` at a constant address -> the union of every value stored to
  that address by a constant-address ``MSTORE`` (plus ``0`` for the
  never-written case), tracking Solidity's memory-spilled locals; any write
  through an unknown address (or ``MSTORE8``/call-clobbered memory) widens
  the affected words to ``TOP``.

Everything else (environment opcodes, ``CALLDATALOAD``, ``SLOAD``,
``SHA3``, call results) is ``TOP``.  The analysis is flow-insensitive over
memory (like the facts-layer memory model) and sound with respect to it:
a bounded set always contains the concrete runtime value.

The result is exported as the ``VariableValues`` relation on
:class:`~repro.core.facts.ContractFacts` and consumed by the storage,
guard, and taint strata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.deadline import Deadline
from repro.ir.tac import TACProgram

UINT_MAX = (1 << 256) - 1
_SIGN_BIT = 1 << 255

# A value set is a frozenset of ints (bounded) or None (TOP / unknown).
# Variables absent from the map are "bottom" (never assigned / unreachable).
ValueSet = Optional[FrozenSet[int]]

TOP: ValueSet = None

BOOL_SET: FrozenSet[int] = frozenset((0, 1))

# Default widening caps: a set larger than MAX_SET_SIZE becomes TOP, and a
# pairwise evaluation is not attempted over more than MAX_PRODUCT pairs.
MAX_SET_SIZE = 8
MAX_PRODUCT = 64


def _signed(value: int) -> int:
    return value - (1 << 256) if value & _SIGN_BIT else value


# Arithmetic/bitwise ops evaluated pointwise over bounded operand sets.
# Operands are in stack order, matching the lifter's folding semantics
# (SHL/SHR take the shift amount first).
_ARITH_OPS: Dict[str, Callable[[int, int], int]] = {
    "ADD": lambda a, b: (a + b) & UINT_MAX,
    "SUB": lambda a, b: (a - b) & UINT_MAX,
    "MUL": lambda a, b: (a * b) & UINT_MAX,
    "AND": lambda a, b: a & b,
    "OR": lambda a, b: a | b,
    "XOR": lambda a, b: a ^ b,
    "SHL": lambda a, b: (b << a) & UINT_MAX if a < 256 else 0,
    "SHR": lambda a, b: b >> a if a < 256 else 0,
}

# Comparisons have a {0, 1} range even over TOP operands.
_COMPARE_OPS: Dict[str, Callable[[int, int], int]] = {
    "EQ": lambda a, b: 1 if a == b else 0,
    "LT": lambda a, b: 1 if a < b else 0,
    "GT": lambda a, b: 1 if a > b else 0,
    "SLT": lambda a, b: 1 if _signed(a) < _signed(b) else 0,
    "SGT": lambda a, b: 1 if _signed(a) > _signed(b) else 0,
}

# Memory-clobbering opcodes: any of these forces every memory word to TOP
# (the call family may write its output buffer anywhere we cannot see).
_MEMORY_CLOBBERS = {"CALL", "CALLCODE", "DELEGATECALL", "STATICCALL"}


class _Unset:
    __slots__ = ()


_UNSET = _Unset()


@dataclass
class ValueAnalysis:
    """Fixpoint output: bounded value sets per variable and memory word."""

    values: Dict[str, FrozenSet[int]] = field(default_factory=dict)
    memory_values: Dict[int, FrozenSet[int]] = field(default_factory=dict)
    # False when an unknown-address write / MSTORE8 / external call made the
    # whole memory TOP (memory_values is then empty).
    memory_sound: bool = True
    iterations: int = 0

    def value_set(self, variable: str) -> ValueSet:
        """The bounded set for ``variable``, or TOP (None)."""
        return self.values.get(variable)

    def singleton(self, variable: str) -> Optional[int]:
        """The single possible value of ``variable``, if exactly one."""
        values = self.values.get(variable)
        if values is not None and len(values) == 1:
            return next(iter(values))
        return None

    def exported(self) -> Dict[str, FrozenSet[int]]:
        """The ``VariableValues`` relation: every bounded, non-empty set."""
        return {var: values for var, values in self.values.items() if values}


def _eval_pairwise(
    op: Callable[[int, int], int],
    left: FrozenSet[int],
    right: FrozenSet[int],
    max_set_size: int,
) -> ValueSet:
    if len(left) * len(right) > MAX_PRODUCT:
        return TOP
    result = frozenset(op(a, b) for a in left for b in right)
    if len(result) > max_set_size:
        return TOP
    return result


def analyze_values(
    program: TACProgram,
    deadline: Optional[Deadline] = None,
    max_set_size: int = MAX_SET_SIZE,
) -> ValueAnalysis:
    """Run the bounded value-set fixpoint over ``program``, checking
    ``deadline`` (the run's budget) once per sweep.
    """
    deadline = deadline or Deadline()
    analysis = ValueAnalysis()
    const = program.const_value

    # ------------------------------------------------------------- pre-scan
    # Memory model: constant-address stores per word, soundness flag.
    mem_writes: Dict[int, List[str]] = {}  # address -> stored vars
    statements = list(program.statements())
    memory_sound = True
    for stmt in statements:
        op = stmt.opcode
        if op == "MSTORE":
            address = const.get(stmt.uses[0])
            if address is None:
                memory_sound = False
            else:
                mem_writes.setdefault(address, []).append(stmt.uses[1])
        elif op == "MSTORE8":
            memory_sound = False
        elif op == "CALLDATACOPY":
            # Constant-destination copies write unknown (calldata) words at
            # known addresses; an unknown destination poisons everything.
            dest = const.get(stmt.uses[0])
            size = const.get(stmt.uses[2])
            if dest is None or size is None:
                memory_sound = False
            else:
                for word in range(min(size // 32 + 1, 64)):
                    mem_writes.setdefault(dest + 32 * word, []).append("")
        elif op in _MEMORY_CLOBBERS:
            memory_sound = False
    analysis.memory_sound = memory_sound

    # ------------------------------------------------------------- fixpoint
    # ``values`` maps var -> frozenset (bounded) | None (TOP); absent =
    # bottom.  Sets only grow (and widen to TOP), so iteration terminates.
    values: Dict[str, ValueSet] = {}
    memory: Dict[int, ValueSet] = {}

    def widen(current: ValueSet, update: ValueSet) -> ValueSet:
        """Join ``update`` into ``current`` (monotone)."""
        if update is TOP or current is TOP:
            return TOP
        merged = current | update if current is not None else update
        if len(merged) > max_set_size:
            return TOP
        return merged

    def assign(variable: str, update: ValueSet) -> bool:
        """Merge ``update`` into ``variable``; True when something changed."""
        if variable not in values:
            values[variable] = update
            return True
        current = values[variable]
        merged = widen(current, update)
        if merged != current:
            values[variable] = merged
            return True
        return False

    def memory_value(address: int) -> ValueSet:
        if not memory_sound:
            return TOP
        cached = memory.get(address, _UNSET)
        if cached is not _UNSET:
            return cached
        # {0} for the never-written case, then every stored value.
        result: ValueSet = frozenset((0,))
        for stored in mem_writes.get(address, ()):
            if stored == "":  # calldata copy: unknown word
                result = TOP
                break
            result = widen(result, values.get(stored, frozenset()))
            if result is TOP:
                break
        memory[address] = result
        return result

    changed = True
    while changed:
        changed = False
        analysis.iterations += 1
        deadline.check()
        # Memory is recomputed from scratch each sweep: it depends on the
        # variable sets, which only grow, so this is monotone too.
        memory.clear()
        for stmt in statements:
            op = stmt.opcode
            target = stmt.def_var
            if target is None:
                continue
            if op == "CONST":
                value = const.get(target)
                update: ValueSet = frozenset((value,)) if value is not None else TOP
                changed |= assign(target, update)
            elif op == "PHI":
                merged: ValueSet = frozenset()
                saw_operand = False
                for source in stmt.uses:
                    source_values = values.get(source, _UNSET)
                    if source_values is _UNSET:
                        continue  # bottom operand contributes nothing yet
                    saw_operand = True
                    merged = widen(merged, source_values)
                    if merged is TOP:
                        break
                if saw_operand:
                    changed |= assign(target, merged)
            elif op in _ARITH_OPS and len(stmt.uses) == 2:
                left = values.get(stmt.uses[0], _UNSET)
                right = values.get(stmt.uses[1], _UNSET)
                if left is _UNSET or right is _UNSET:
                    continue  # bottom operand: stay bottom
                if left is TOP or right is TOP:
                    changed |= assign(target, TOP)
                else:
                    changed |= assign(
                        target,
                        _eval_pairwise(_ARITH_OPS[op], left, right, max_set_size),
                    )
            elif op in _COMPARE_OPS and len(stmt.uses) == 2:
                left = values.get(stmt.uses[0], _UNSET)
                right = values.get(stmt.uses[1], _UNSET)
                if left is _UNSET or right is _UNSET:
                    continue
                if left is TOP or right is TOP:
                    changed |= assign(target, BOOL_SET)
                else:
                    result = _eval_pairwise(
                        _COMPARE_OPS[op], left, right, max_set_size
                    )
                    changed |= assign(target, result if result is not TOP else BOOL_SET)
            elif op == "ISZERO":
                operand = values.get(stmt.uses[0], _UNSET)
                if operand is _UNSET:
                    continue
                if operand is TOP:
                    changed |= assign(target, BOOL_SET)
                else:
                    changed |= assign(
                        target, frozenset(1 if v == 0 else 0 for v in operand)
                    )
            elif op == "NOT":
                operand = values.get(stmt.uses[0], _UNSET)
                if operand is _UNSET:
                    continue
                if operand is TOP:
                    changed |= assign(target, TOP)
                else:
                    changed |= assign(target, frozenset(v ^ UINT_MAX for v in operand))
            elif op == "MLOAD":
                address = const.get(stmt.uses[0])
                if address is None:
                    changed |= assign(target, TOP)
                else:
                    changed |= assign(target, memory_value(address))
            else:
                # Environment values, calldata, storage loads, hashes, call
                # results: unknown.
                changed |= assign(target, TOP)

    analysis.values = {
        var: value_set for var, value_set in values.items() if value_set is not None
    }
    if memory_sound:
        analysis.memory_values = {
            address: value_set
            for address, value_set in memory.items()
            if value_set is not None
        }
    return analysis
