"""Input-relation extraction from decompiled TAC.

Produces a :class:`ContractFacts` bundle: the statement/def-use/constant
indexes the analysis rules consume, plus the *local memory model* of §5 —
``MSTORE``/``MLOAD`` at constant addresses become reads/writes of pseudo
"memory variables" (``m0x80`` …), and ``SHA3`` over scratch memory is
resolved to its argument variables (``HashOf``), which is how Solidity
mapping-slot computations become visible to the data-structure rules.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.deadline import Deadline
from repro.ir.tac import TACProgram, TACStatement

# Opcodes whose result is a pure function of their *stack* operands; taint
# propagates operand -> result.  (SHA3 is handled via HashOf instead: its
# stack operands are buffer offsets, the data flows from memory.)
DATA_OPS = {
    "ADD", "MUL", "SUB", "DIV", "SDIV", "MOD", "SMOD", "ADDMOD", "MULMOD",
    "EXP", "SIGNEXTEND", "LT", "GT", "SLT", "SGT", "EQ", "ISZERO", "AND",
    "OR", "XOR", "NOT", "BYTE", "SHL", "SHR", "SAR",
}

# Environment opcodes whose results are attacker-independent.
ENV_OPS = {
    "ADDRESS", "ORIGIN", "CALLVALUE", "CALLDATASIZE", "CODESIZE", "GASPRICE",
    "RETURNDATASIZE", "COINBASE", "TIMESTAMP", "NUMBER", "DIFFICULTY",
    "GASLIMIT", "CHAINID", "SELFBALANCE", "PC", "MSIZE", "GAS", "BALANCE",
    "EXTCODESIZE", "EXTCODEHASH", "BLOCKHASH",
}


@dataclass
class StorageAccess:
    """One SLOAD/SSTORE: address variable, resolved constant slot if known."""

    statement: TACStatement
    address_var: str
    value_var: Optional[str]  # SSTORE only
    def_var: Optional[str]  # SLOAD only
    const_slot: Optional[int]


@dataclass
class MemoryAccess:
    """One MSTORE/MLOAD at a constant address."""

    statement: TACStatement
    address: int
    var: str  # stored value (MSTORE) or defined value (MLOAD)


@dataclass
class HashFact:
    """``def_var = SHA3(args...)`` with memory contents resolved."""

    statement: TACStatement
    def_var: str
    args: List[str]


@dataclass
class CallFact:
    """A CALL/DELEGATECALL/STATICCALL with named operand roles."""

    statement: TACStatement
    kind: str
    gas_var: str
    address_var: str
    value_var: Optional[str]
    in_offset: Optional[int]
    out_offset: Optional[int]
    in_offset_var: str = ""
    out_offset_var: str = ""


@dataclass
class ContractFacts:
    """All input relations for one contract."""

    program: TACProgram
    def_stmt: Dict[str, TACStatement] = field(default_factory=dict)
    const: Dict[str, int] = field(default_factory=dict)
    # Flow edges (source_var, dest_var, statement) through ops/phis/hash args.
    flow_edges: List[Tuple[str, str, TACStatement]] = field(default_factory=list)
    copy_edges: List[Tuple[str, str]] = field(default_factory=list)  # PHI only
    memory_writes: List[MemoryAccess] = field(default_factory=list)
    memory_reads: List[MemoryAccess] = field(default_factory=list)
    storage_stores: List[StorageAccess] = field(default_factory=list)
    storage_loads: List[StorageAccess] = field(default_factory=list)
    hashes: List[HashFact] = field(default_factory=list)
    caller_defs: Set[str] = field(default_factory=set)
    calldata_defs: List[Tuple[str, TACStatement]] = field(default_factory=list)
    selfdestructs: List[TACStatement] = field(default_factory=list)
    calls: List[CallFact] = field(default_factory=list)
    jumpis: List[TACStatement] = field(default_factory=list)
    returndatasize_blocks: Set[str] = field(default_factory=set)
    # The ``VariableValues`` relation from the optional value-analysis
    # stratum (:mod:`repro.ir.value_analysis`): var -> bounded set of
    # possible 256-bit values.  Empty when the stratum is disabled.
    variable_values: Dict[str, FrozenSet[int]] = field(default_factory=dict)

    def value_set(self, variable: str) -> Optional[FrozenSet[int]]:
        """Bounded value set for ``variable``: the value-analysis relation
        when populated, else a lifter-constant singleton, else None."""
        values = self.variable_values.get(variable)
        if values:
            return values
        constant = self.const.get(variable)
        if constant is not None:
            return frozenset((constant,))
        return None

    def with_variable_values(
        self, values: Dict[str, FrozenSet[int]]
    ) -> "ContractFacts":
        """A copy of these facts carrying ``values`` as ``VariableValues``.

        A *copy*, not a mutation: the bare facts artifact may be shared
        with the task's configurations that have the value-analysis
        stratum disabled (see :func:`repro.core.pipeline.run_pipeline`).
        """
        return dataclasses.replace(self, variable_values=dict(values))

    @property
    def known_slots(self) -> Set[int]:
        """All constant storage slots appearing in any access ("arising in
        the analysis", per rule StorageWrite-2)."""
        slots: Set[int] = set()
        for access in self.storage_stores + self.storage_loads:
            if access.const_slot is not None:
                slots.add(access.const_slot)
        return slots


def _resolve_memory_word(
    last_write: Dict[int, str], address: int
) -> Optional[str]:
    return last_write.get(address)


def extract_facts(
    program: TACProgram, deadline: Optional[Deadline] = None
) -> ContractFacts:
    """Build :class:`ContractFacts` from a decompiled program in one pass
    over its blocks, ticking ``deadline`` once per block by its statement
    count."""
    deadline = deadline or Deadline()
    facts = ContractFacts(program=program)
    def_stmt = facts.def_stmt
    facts.const = dict(program.const_value)

    for block in program.blocks.values():
        deadline.tick(len(block.statements))
        # Block-local memory model for SHA3 argument recovery: last constant
        # write per word address; cleared by unknown-address writes and calls
        # (which may write their output buffer).
        last_write: Dict[int, str] = {}
        for stmt in block.statements:
            for var in stmt.defs:
                def_stmt[var] = stmt
            op = stmt.opcode
            if op == "PHI":
                for source in stmt.uses:
                    facts.copy_edges.append((source, stmt.def_var))
                    facts.flow_edges.append((source, stmt.def_var, stmt))
                continue
            if op == "CONST":
                continue
            if op in DATA_OPS:
                for source in stmt.uses:
                    facts.flow_edges.append((source, stmt.def_var, stmt))
                continue
            if op == "CALLER":
                facts.caller_defs.add(stmt.def_var)
                continue
            if op in ("CALLDATALOAD",):
                facts.calldata_defs.append((stmt.def_var, stmt))
                continue
            if op == "MSTORE":
                address_var, value_var = stmt.uses
                address = facts.const.get(address_var)
                if address is not None:
                    facts.memory_writes.append(
                        MemoryAccess(statement=stmt, address=address, var=value_var)
                    )
                    last_write[address] = value_var
                else:
                    last_write.clear()
                continue
            if op == "MSTORE8":
                last_write.clear()
                continue
            if op == "MLOAD":
                (address_var,) = stmt.uses
                address = facts.const.get(address_var)
                if address is not None:
                    facts.memory_reads.append(
                        MemoryAccess(statement=stmt, address=address, var=stmt.def_var)
                    )
                continue
            if op == "SHA3":
                offset_var, size_var = stmt.uses
                offset = facts.const.get(offset_var)
                size = facts.const.get(size_var)
                if offset is not None and size is not None and size % 32 == 0:
                    args: List[str] = []
                    complete = True
                    for word in range(size // 32):
                        value = _resolve_memory_word(last_write, offset + 32 * word)
                        if value is None:
                            complete = False
                            break
                        args.append(value)
                    if complete and args:
                        facts.hashes.append(
                            HashFact(statement=stmt, def_var=stmt.def_var, args=args)
                        )
                        for arg in args:
                            facts.flow_edges.append((arg, stmt.def_var, stmt))
                        continue
                # Unresolved hash: taint still propagates from the offset
                # operands conservatively (rarely matters).
                for source in stmt.uses:
                    facts.flow_edges.append((source, stmt.def_var, stmt))
                continue
            if op == "SSTORE":
                address_var, value_var = stmt.uses
                facts.storage_stores.append(
                    StorageAccess(
                        statement=stmt,
                        address_var=address_var,
                        value_var=value_var,
                        def_var=None,
                        const_slot=facts.const.get(address_var),
                    )
                )
                continue
            if op == "SLOAD":
                (address_var,) = stmt.uses
                facts.storage_loads.append(
                    StorageAccess(
                        statement=stmt,
                        address_var=address_var,
                        value_var=None,
                        def_var=stmt.def_var,
                        const_slot=facts.const.get(address_var),
                    )
                )
                continue
            if op == "SELFDESTRUCT":
                facts.selfdestructs.append(stmt)
                continue
            if op in ("CALL", "CALLCODE"):
                gas, address, value, in_off, in_size, out_off, out_size = stmt.uses
                facts.calls.append(
                    CallFact(
                        statement=stmt,
                        kind=op,
                        gas_var=gas,
                        address_var=address,
                        value_var=value,
                        in_offset=facts.const.get(in_off),
                        out_offset=facts.const.get(out_off),
                        in_offset_var=in_off,
                        out_offset_var=out_off,
                    )
                )
                last_write.clear()  # the call may write its output buffer
                continue
            if op in ("DELEGATECALL", "STATICCALL"):
                gas, address, in_off, in_size, out_off, out_size = stmt.uses
                facts.calls.append(
                    CallFact(
                        statement=stmt,
                        kind=op,
                        gas_var=gas,
                        address_var=address,
                        value_var=None,
                        in_offset=facts.const.get(in_off),
                        out_offset=facts.const.get(out_off),
                        in_offset_var=in_off,
                        out_offset_var=out_off,
                    )
                )
                last_write.clear()
                continue
            if op == "RETURNDATASIZE":
                facts.returndatasize_blocks.add(block.ident)
                continue
            if op == "JUMPI":
                facts.jumpis.append(stmt)
                continue
            if op == "CALLDATACOPY":
                # dest, src, size: a constant-destination copy taints the
                # memory words it covers (conservatively only the first word
                # unless the size is constant).
                dest_var, _src, size_var = stmt.uses
                dest = facts.const.get(dest_var)
                size = facts.const.get(size_var)
                if dest is not None:
                    words = (size // 32 + 1) if size is not None else 1
                    for word in range(min(words, 64)):
                        synthetic = "cdcopy_%s_%d" % (stmt.ident, word)
                        facts.calldata_defs.append((synthetic, stmt))
                        facts.memory_writes.append(
                            MemoryAccess(
                                statement=stmt, address=dest + 32 * word, var=synthetic
                            )
                        )
                        last_write[dest + 32 * word] = synthetic
                else:
                    last_write.clear()
                continue
            # Other opcodes: results are environment values or irrelevant;
            # no flow edges.
    return facts
