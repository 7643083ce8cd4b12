"""Storage and data-structure modeling (paper §4.3, Figure 4).

Computes, over the extracted facts:

* **copy closure** — value equalities through ``PHI`` statements and the
  constant-address memory model (a flow-insensitive but address-precise
  rendering of §5's "memory modeled much like variables"),
* **DS/DSA** — the sender-keyed data-structure relations of Figure 4:
  ``DS(x)`` = x holds a data-structure element keyed by the caller,
  ``DSA(x)`` = x is the *address* of such an element.  ``sender``
  (``CALLER`` results) seeds DS; hashing a DS value gives a DSA; address
  arithmetic preserves DSA; loading through a DSA address gives DS,
* **StorageAliasVar** — ``x ~ S(v)``: x is a copy of the value loaded from
  constant slot v (used by guard rules Uguard-T and the computed sinks of
  §4.5),
* **mapping roots** — each resolved ``SHA3`` chain is attributed to the root
  mapping's constant base slot, giving the granularity at which "attacker
  can write an arbitrary element of mapping b" is tracked.

All of these are taint-independent and computed before the main fixpoint —
the paper's "previous stratum" (Figure 2 caption).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.facts import ContractFacts
from repro.deadline import Deadline


@dataclass
class MappingAccess:
    """A resolved mapping-element address: root base slot + outermost key."""

    address_var: str  # the SHA3 result used as a storage address
    base_slot: int  # root mapping's declared slot
    key_var: str  # key of this (innermost) lookup


@dataclass
class StorageModel:
    """Static value/data-structure information for one contract."""

    facts: ContractFacts
    # var -> set of vars it copies from (transitive, includes itself)
    copy_sources: Dict[str, Set[str]] = field(default_factory=dict)
    ds_vars: Set[str] = field(default_factory=set)
    dsa_vars: Set[str] = field(default_factory=set)
    storage_alias: Dict[str, Set[int]] = field(default_factory=dict)  # x ~ S(v)
    mapping_accesses: Dict[str, MappingAccess] = field(default_factory=dict)
    mem_var_of: Dict[int, str] = field(default_factory=dict)
    # Value-analysis resolution (populated only when the facts carry the
    # VariableValues relation): computed, non-constant storage indices whose
    # candidate slots the value-set stratum bounded.
    resolved_store_slots: Dict[str, Tuple[int, ...]] = field(default_factory=dict)
    resolved_load_slots: Dict[str, Tuple[int, ...]] = field(default_factory=dict)
    # x ~ S(v) through a value-resolved (singleton) load address.
    value_alias: Dict[str, Set[int]] = field(default_factory=dict)
    value_resolved_mappings: int = 0

    def is_sender_derived(self, variable: str) -> bool:
        """Whether ``variable`` is DS (holds sender-keyed data or the sender)."""
        return variable in self.ds_vars

    def aliases_of(self, variable: str) -> Set[int]:
        """Constant storage slots ``variable`` is a loaded copy of."""
        return self.storage_alias.get(variable, set())

    def value_aliases_of(self, variable: str) -> Set[int]:
        """Slots ``variable`` aliases only via the value-analysis stratum."""
        return self.value_alias.get(variable, set())


def memory_var(address: int) -> str:
    """Pseudo-variable name for the memory word at a constant address."""
    return "m0x%x" % address


def build_storage_model(
    facts: ContractFacts, deadline: Optional[Deadline] = None
) -> StorageModel:
    """Compute the taint-independent static strata (copies, DS/DSA,
    aliases, mapping roots) for one contract.

    ``deadline`` is ticked per slice of copy edges and of variables, for
    the memory accesses, and per copy-closure pop (a mutated bytecode can
    lift to 10^5 variables), and checked once per DS/DSA and
    mapping-attribution round."""
    deadline = deadline or Deadline()
    model = StorageModel(facts=facts)

    # ------------------------------------------------------ copy closure
    # Direct copy edges: PHI statements, plus memory-word round trips.
    direct: Dict[str, Set[str]] = {}

    def add_copy(source: str, dest: str) -> None:
        direct.setdefault(dest, set()).add(source)

    for chunk in deadline.chunks(facts.copy_edges):
        for source, dest in chunk:
            add_copy(source, dest)
    deadline.tick(len(facts.memory_writes) + len(facts.memory_reads))
    for write in facts.memory_writes:
        add_copy(write.var, memory_var(write.address))
        model.mem_var_of[write.address] = memory_var(write.address)
    for read in facts.memory_reads:
        add_copy(memory_var(read.address), read.var)

    # Transitive closure per variable, memoized, on an explicit stack: a
    # chain of memory round trips can be thousands of copies long.  It
    # replays a depth-first recursion's visit order exactly.  A variable's
    # set is registered before its sources are visited, so a PHI cycle back
    # to a variable still in progress copies that set as it stands then.
    # One call can build a whole chain's sets (the set unions at each pop
    # are the quadratic part), so each pop ticks the deadline by the size of
    # the set it completed.
    closure_cache: Dict[str, Set[str]] = {}
    tick = deadline.tick

    def closure(variable: str) -> Set[str]:
        result = closure_cache.get(variable)
        if result is not None:
            return result
        result = closure_cache[variable] = {variable}
        stack = [(result, iter(direct.get(variable, ())))]
        while stack:
            current, sources = stack[-1]
            for source in sources:
                known = closure_cache.get(source)
                if known is None:
                    child = closure_cache[source] = {source}
                    stack.append((child, iter(direct.get(source, ()))))
                    break
                current.update(known)
            else:
                stack.pop()
                if stack:
                    stack[-1][0].update(current)
                tick(len(current))
        return result

    all_vars: Set[str] = set(direct)
    all_vars.update(*direct.values())
    variables = list(all_vars)
    for variable in variables:  # ticked by the closure's pops
        model.copy_sources[variable] = closure(variable)

    def sources_of(variable: str) -> Set[str]:
        return model.copy_sources.get(variable, {variable})

    # -------------------------------------------------- storage aliasing
    for load in facts.storage_loads:
        if load.const_slot is None or load.def_var is None:
            continue
        model.storage_alias.setdefault(load.def_var, set()).add(load.const_slot)
    # Extend through copies: any var copying a loaded var aliases its slot.
    for chunk in deadline.chunks(variables):
        for variable in chunk:
            for source in sources_of(variable):
                slots = model.storage_alias.get(source)
                if slots:
                    model.storage_alias.setdefault(variable, set()).update(slots)

    # ---------------------------------------------- value-set resolution
    # When the facts carry the VariableValues relation, bound the candidate
    # slots of computed (non-constant) storage indices.  These feed the
    # taint stratum (StorageWrite-2 blast-radius shrinking) and the guard
    # stratum (singleton-resolved loads alias their slot like constant
    # loads do) but deliberately do NOT promote accesses to ``const_slot``:
    # StorageWrite-1 / StorageLoad stay keyed on directly-constant indices,
    # keeping the value-analysis configuration's warnings a subset of the
    # conservative configuration's.
    if facts.variable_values:
        for store in facts.storage_stores:
            if store.const_slot is not None:
                continue
            candidates = facts.value_set(store.address_var)
            if candidates:
                model.resolved_store_slots[store.statement.ident] = tuple(
                    sorted(candidates)
                )
        for load in facts.storage_loads:
            if load.const_slot is not None or load.def_var is None:
                continue
            candidates = facts.value_set(load.address_var)
            if not candidates:
                continue
            model.resolved_load_slots[load.statement.ident] = tuple(
                sorted(candidates)
            )
            if len(candidates) == 1:
                model.value_alias.setdefault(load.def_var, set()).add(
                    next(iter(candidates))
                )
        # Extend value aliases through copies, mirroring storage_alias.
        if model.value_alias:
            for chunk in deadline.chunks(variables):
                for variable in chunk:
                    for source in sources_of(variable):
                        slots = model.value_alias.get(source)
                        if slots:
                            aliases = model.value_alias.setdefault(variable, set())
                            aliases.update(slots)

    # ------------------------------------------------------ DS / DSA
    # Fixpoint over the Figure 4 rules plus copy propagation.
    ds: Set[str] = set(facts.caller_defs)
    dsa: Set[str] = set()

    # Pre-index flow shapes.
    op_edges: List[Tuple[str, str]] = []  # (operand, result) for DATA_OPS
    for source, dest, stmt in facts.flow_edges:
        if stmt.opcode not in ("PHI", "SHA3"):
            op_edges.append((source, dest))

    copy_edges_all: List[Tuple[str, str]] = []
    for dest, sources in direct.items():
        for source in sources:
            copy_edges_all.append((source, dest))

    changed = True
    while changed:
        deadline.check()
        changed = False
        # DS-Lookup / DSA-Lookup: hashing DS or DSA data yields a DSA.
        for hash_fact in facts.hashes:
            if hash_fact.def_var in dsa:
                continue
            if any(arg in ds or arg in dsa for arg in hash_fact.args):
                dsa.add(hash_fact.def_var)
                changed = True
        # DS-AddrOp: arithmetic over a DSA stays a DSA.
        for source, dest in op_edges:
            if source in dsa and dest not in dsa:
                dsa.add(dest)
                changed = True
        # Copies preserve both relations.
        for source, dest in copy_edges_all:
            if source in ds and dest not in ds:
                ds.add(dest)
                changed = True
            if source in dsa and dest not in dsa:
                dsa.add(dest)
                changed = True
        # DSA-Load: dereferencing a DSA address yields DS data.
        for load in facts.storage_loads:
            if load.def_var is None or load.def_var in ds:
                continue
            if load.address_var in dsa:
                ds.add(load.def_var)
                changed = True
    model.ds_vars = ds
    model.dsa_vars = dsa

    # ------------------------------------------------- mapping attribution
    # Resolve each SHA3 chain to its root mapping slot: SHA3(key, base) where
    # base is a constant, or base is itself an attributed mapping address.
    pending = list(facts.hashes)
    progress = True
    while progress and pending:
        deadline.check()
        progress = False
        remaining = []
        for hash_fact in pending:
            if len(hash_fact.args) != 2:
                continue  # not a mapping-slot computation
            key_var, base_var = hash_fact.args
            base_slot: Optional[int] = None
            base_const = facts.const.get(base_var)
            if base_const is not None:
                base_slot = base_const
            else:
                # A base slot that is not directly constant may still be a
                # value-analysis singleton (e.g. spilled through a memory
                # local and reloaded).
                candidates = facts.value_set(base_var)
                if candidates is not None and len(candidates) == 1:
                    base_slot = next(iter(candidates))
                    model.value_resolved_mappings += 1
                else:
                    for source in sources_of(base_var):
                        attributed = model.mapping_accesses.get(source)
                        if attributed is not None:
                            base_slot = attributed.base_slot
                            break
            if base_slot is None:
                remaining.append(hash_fact)
                continue
            model.mapping_accesses[hash_fact.def_var] = MappingAccess(
                address_var=hash_fact.def_var,
                base_slot=base_slot,
                key_var=key_var,
            )
            progress = True
        pending = remaining

    return model
