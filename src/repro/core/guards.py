"""Guard extraction: the ``StaticallyGuardedStatement`` relation of Figure 5.

A conditional branch guards the statements *dominated* by one of its
successors: to execute them, the branch condition must have had the
corresponding truth value.  This module:

1. walks every ``JUMPI``, normalizing the condition through ``ISZERO``
   chains to a base variable plus a polarity per branch side,
2. decomposes conjunctions (``AND``) into multiple guard atoms,
3. classifies each positive-polarity guard atom as *sender-scrutinizing* or
   not — folding the paper's Uguard-NDS rule into the static stratum: a
   guard that does not compare or look up the caller cannot sanitize, so it
   never appears in ``StaticallyGuardedStatement`` (its "protected"
   statements stay attacker-reachable),
4. assigns the guard to all statements in blocks dominated by the protected
   successor.

Guard kinds:

* ``EQ_SENDER`` — ``msg.sender == z``; carries the compared variable ``z``
  and its constant-slot aliases (feeding Uguard-T and the computed sinks of
  §4.5 — "tainted owner variable"),
* ``DS_LOOKUP`` — a truthiness check of a sender-keyed data-structure
  element, e.g. ``require(admins[msg.sender])``; carries the root mapping
  slot (compromised when the attacker can write arbitrary elements of that
  mapping).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.facts import ContractFacts
from repro.core.storage_model import StorageModel
from repro.deadline import Deadline
from repro.ir.dominators import compute_dominators
from repro.ir.tac import TACStatement

EQ_SENDER = "EQ_SENDER"
DS_LOOKUP = "DS_LOOKUP"


@dataclass(frozen=True)
class Guard:
    """One sender-scrutinizing guard atom."""

    ident: str
    kind: str  # EQ_SENDER | DS_LOOKUP
    base_var: str  # the (normalized) condition variable
    compared_var: Optional[str] = None  # EQ_SENDER: the non-sender operand
    compared_slots: Tuple[int, ...] = ()  # EQ_SENDER: constant-slot aliases of z
    mapping_slot: Optional[int] = None  # DS_LOOKUP: root mapping base slot


@dataclass
class GuardModel:
    """Guards per statement, plus the computed owner-variable sink slots."""

    guards: List[Guard] = field(default_factory=list)
    guarded_statements: Dict[str, Set[str]] = field(default_factory=dict)  # stmt -> guard ids
    guard_by_id: Dict[str, Guard] = field(default_factory=dict)
    sink_slots: Set[int] = field(default_factory=set)

    def guards_of(self, statement_id: str) -> List[Guard]:
        return [
            self.guard_by_id[guard_id]
            for guard_id in self.guarded_statements.get(statement_id, ())
        ]

    def is_guarded(self, statement_id: str) -> bool:
        return bool(self.guarded_statements.get(statement_id))


def _normalize(
    facts: ContractFacts, variable: str, polarity: bool
) -> Tuple[str, bool]:
    """Strip ISZERO chains: returns the base variable and final polarity."""
    current, current_polarity = variable, polarity
    for _ in range(64):  # chains are short; bound for safety
        defining = facts.def_stmt.get(current)
        if defining is None or defining.opcode != "ISZERO":
            return current, current_polarity
        current = defining.uses[0]
        current_polarity = not current_polarity
    return current, current_polarity


def _atoms(facts: ContractFacts, variable: str, polarity: bool) -> List[Tuple[str, bool]]:
    """Decompose a condition into guard atoms.

    A positive conjunction (``AND``) yields one atom per conjunct.  ``OR`` is
    kept whole (the disjunction is treated as scrutinizing if any disjunct
    is — a precision-favoring choice, see module docstring).
    """
    base, base_polarity = _normalize(facts, variable, polarity)
    defining = facts.def_stmt.get(base)
    if base_polarity and defining is not None and defining.opcode == "AND":
        out: List[Tuple[str, bool]] = []
        for operand in defining.uses:
            out.extend(_atoms(facts, operand, True))
        return out
    return [(base, base_polarity)]


def _classify(
    facts: ContractFacts, model: StorageModel, base: str, guard_counter: List[int]
) -> Optional[Guard]:
    """Classify a positive guard atom; None if not sender-scrutinizing."""
    defining = facts.def_stmt.get(base)

    def fresh_ident() -> str:
        guard_counter[0] += 1
        return "g%d" % guard_counter[0]

    # Case 1: equality with a sender-derived operand.
    if defining is not None and defining.opcode == "EQ":
        left, right = defining.uses
        sender_side: Optional[str] = None
        other_side: Optional[str] = None
        if model.is_sender_derived(left):
            sender_side, other_side = left, right
        elif model.is_sender_derived(right):
            sender_side, other_side = right, left
        if sender_side is not None:
            slots: Set[int] = set()
            for source in model.copy_sources.get(other_side, {other_side}):
                slots.update(model.aliases_of(source))
                # Slots the value-analysis stratum resolved: a load whose
                # computed address is a singleton aliases that slot exactly
                # like a directly-constant load.
                slots.update(model.value_aliases_of(source))
            return Guard(
                ident=fresh_ident(),
                kind=EQ_SENDER,
                base_var=base,
                compared_var=other_side,
                compared_slots=tuple(sorted(slots)),
            )

    # Case 2: truthiness of a sender-keyed data-structure element, e.g.
    # require(admins[msg.sender]) — the loaded value itself is DS.
    if model.is_sender_derived(base):
        mapping_slot: Optional[int] = None
        for source in model.copy_sources.get(base, {base}):
            source_def = facts.def_stmt.get(source)
            if source_def is not None and source_def.opcode == "SLOAD":
                address_var = source_def.uses[0]
                for addr_source in model.copy_sources.get(address_var, {address_var}):
                    access = model.mapping_accesses.get(addr_source)
                    if access is not None:
                        mapping_slot = access.base_slot
                        break
            if mapping_slot is not None:
                break
        return Guard(
            ident=fresh_ident(),
            kind=DS_LOOKUP,
            base_var=base,
            mapping_slot=mapping_slot,
        )

    # Case 3: OR whose disjuncts include a scrutinizing guard.
    if defining is not None and defining.opcode == "OR":
        for operand in defining.uses:
            inner_base, inner_polarity = _normalize(facts, operand, True)
            if inner_polarity:
                inner = _classify(facts, model, inner_base, guard_counter)
                if inner is not None:
                    return inner
    return None


def build_guard_model(
    facts: ContractFacts, model: StorageModel, deadline: Optional[Deadline] = None
) -> GuardModel:
    """Compute StaticallyGuardedStatement and the §4.5 sink slots, ticking
    ``deadline`` once for the dominators and per block a guard protects."""
    deadline = deadline or Deadline()
    guard_model = GuardModel()
    program = facts.program
    if not program.blocks:
        return guard_model

    successors = {ident: block.successors for ident, block in program.blocks.items()}
    dominators = compute_dominators(program.entry, successors)
    deadline.tick(len(dominators))
    # Invert: dominated_by[s] = set of blocks s dominates.
    dominated_by: Dict[str, Set[str]] = {}
    for block_id, doms in dominators.items():
        for dominator in doms:
            dominated_by.setdefault(dominator, set()).add(block_id)

    guard_counter = [0]
    classified: Dict[Tuple[str, str], Optional[Guard]] = {}

    for stmt in facts.jumpis:
        block = program.blocks.get(stmt.block)
        if block is None:
            continue
        condition_var = stmt.uses[1]
        sides: List[Tuple[Optional[str], bool]] = [
            (block.taken_successor, True),
            (block.fallthrough_successor, False),
        ]
        for successor, polarity in sides:
            if successor is None or successor not in program.blocks:
                continue
            atoms = _atoms(facts, condition_var, polarity)
            side_guards: List[Guard] = []
            for base, atom_polarity in atoms:
                if not atom_polarity:
                    continue  # negative sender comparisons don't sanitize
                key = (base, "pos")
                if key not in classified:
                    classified[key] = _classify(facts, model, base, guard_counter)
                guard = classified[key]
                if guard is not None:
                    side_guards.append(guard)
            if not side_guards:
                continue
            protected_blocks = dominated_by.get(successor, set())
            for guard in side_guards:
                if guard.ident not in guard_model.guard_by_id:
                    guard_model.guard_by_id[guard.ident] = guard
                    guard_model.guards.append(guard)
                for block_id in protected_blocks:
                    statements = program.blocks[block_id].statements
                    deadline.tick(len(statements))
                    for protected in statements:
                        guard_model.guarded_statements.setdefault(
                            protected.ident, set()
                        ).add(guard.ident)

    # Computed sinks (§4.5): slots compared against the sender in a guard
    # that actually protects at least one statement are "owner variables".
    active_guards = {
        guard_id
        for guard_ids in guard_model.guarded_statements.values()
        for guard_id in guard_ids
    }
    for guard in guard_model.guards:
        if guard.ident in active_guards and guard.kind == EQ_SENDER:
            guard_model.sink_slots.update(guard.compared_slots)
    return guard_model
