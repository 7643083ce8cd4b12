"""The composite taint / attacker-reachability fixpoint (paper §4, §5).

This is the heart of Ethainter: the mutual recursion of Figure 5 —
``TaintedFlow`` / ``AttackerModelInfoflow`` / ``ReachableByAttacker`` /
``StaticallyGuardedStatement`` — refined with the two taint *flavors* of the
formal model (Figure 3):

* **input taint** (``↓I``) — attacker calldata within one transaction.  It
  propagates only through statements the attacker can execute
  (``ReachableByAttacker``): a guarded statement never sees the attacker's
  input because the attacker's transaction reverts at the guard
  (rule Guard-2), while the privileged caller's inputs are trusted.
* **storage taint** (``↓T``) — taint that reached persistent storage.  It
  propagates through *all* statements, guarded or not: the privileged user
  executes the guarded code in their own transactions and thereby carries
  the poisoned state onward (rule Guard-1, "taint through storage eludes
  guards").

Guards are *compromised* — making their protected statements attacker
reachable, the composite escalation of §2 — when:

* an ``EQ_SENDER`` guard compares the sender against a tainted storage slot
  (rule Uguard-T) or against a tainted variable, or
* a ``DS_LOOKUP`` guard reads a mapping the attacker can write arbitrary
  elements of (an attacker-reachable store through a hash-derived address
  whose key is tainted or sender-controlled — the ``registerSelf`` /
  ``referAdmin`` escalation of the paper's Illustration).

Over-approximation StorageWrite-2: a store with *both* address and value
tainted taints every constant slot known to the analysis.

The ablation switches correspond to Figure 8: ``model_guards=False`` (8b),
``model_storage_taint=False`` (8a), ``conservative_storage=True`` (8c).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.facts import ContractFacts
from repro.core.guards import DS_LOOKUP, EQ_SENDER, GuardModel
from repro.core.storage_model import StorageModel, memory_var
from repro.deadline import Deadline


@dataclass
class TaintOptions:
    """Analysis design switches (Figure 8 ablations)."""

    model_guards: bool = True
    model_storage_taint: bool = True
    conservative_storage: bool = False
    max_iterations: int = 10_000


@dataclass
class TaintResult:
    """Fixpoint output."""

    input_tainted: Set[str] = field(default_factory=set)
    storage_tainted: Set[str] = field(default_factory=set)
    tainted_slots: Set[int] = field(default_factory=set)
    reachable: Set[str] = field(default_factory=set)
    compromised_guards: Set[str] = field(default_factory=set)
    writable_mappings: Set[int] = field(default_factory=set)
    # Witness source (a CALLDATALOAD statement id) per tainted variable/slot.
    witness: Dict[str, str] = field(default_factory=dict)
    slot_witness: Dict[int, str] = field(default_factory=dict)
    iterations: int = 0
    # Datalog-engine observability (EngineStats.as_dict()); None when the
    # tuned Python fixpoint produced this result.
    engine_stats: Optional[Dict] = None

    def is_tainted(self, variable: str) -> bool:
        return variable in self.input_tainted or variable in self.storage_tainted

    def is_reachable(self, statement_id: str) -> bool:
        return statement_id in self.reachable


class TaintAnalysis:
    """Runs the fixpoint for one contract, checking ``deadline`` once per
    fixpoint iteration so a slow-converging run respects the paper's 120 s
    decompile+analyze cutoff."""

    def __init__(
        self,
        facts: ContractFacts,
        storage: StorageModel,
        guards: GuardModel,
        options: Optional[TaintOptions] = None,
        deadline: Optional[Deadline] = None,
    ):
        self.facts = facts
        self.storage = storage
        self.guards = guards
        self.options = options or TaintOptions()
        self.deadline = deadline or Deadline()
        self._edges = self._build_edges()

    # --------------------------------------------------------------- edges

    def _build_edges(self) -> List[Tuple[str, str, str]]:
        """(source var, dest var, statement id) data-flow edges, including
        the constant-address memory model (§5: memory modeled like
        variables, taint sanitized like input taint)."""
        edges: List[Tuple[str, str, str]] = []
        for source, dest, stmt in self.facts.flow_edges:
            edges.append((source, dest, stmt.ident))
        for write in self.facts.memory_writes:
            edges.append((write.var, memory_var(write.address), write.statement.ident))
        for read in self.facts.memory_reads:
            edges.append((memory_var(read.address), read.var, read.statement.ident))
        return edges

    # ------------------------------------------------------------ fixpoint

    def run(self) -> TaintResult:
        result = TaintResult()
        facts, options = self.facts, self.options
        guarded = self.guards.guarded_statements if options.model_guards else {}

        def reachable(statement_id: str) -> bool:
            guard_ids = guarded.get(statement_id)
            if not guard_ids:
                return True
            return any(g in result.compromised_guards for g in guard_ids)

        def taint_input(variable: str, source: str) -> bool:
            if variable in result.input_tainted:
                return False
            result.input_tainted.add(variable)
            result.witness.setdefault(variable, source)
            return True

        def taint_storage_var(variable: str, source: str) -> bool:
            if variable in result.storage_tainted:
                return False
            result.storage_tainted.add(variable)
            result.witness.setdefault(variable, source)
            return True

        def taint_slot(slot: int, source: str) -> bool:
            if slot in result.tainted_slots:
                return False
            result.tainted_slots.add(slot)
            result.slot_witness.setdefault(slot, source)
            return True

        def witness_of(variable: str) -> str:
            return result.witness.get(variable, "?")

        def effective_taint(variable: str, statement_id: str) -> Optional[str]:
            """Does ``variable`` carry taint *at* ``statement_id``?

            Storage taint is carried by the privileged caller everywhere;
            input taint only where the attacker can execute.
            """
            if variable in result.storage_tainted:
                return "storage"
            if variable in result.input_tainted and reachable(statement_id):
                return "input"
            return None

        any_unknown_tainted_store = False

        changed = True
        while changed:
            result.iterations += 1
            if result.iterations > options.max_iterations:
                raise RuntimeError("taint fixpoint did not converge")
            self.deadline.check()
            changed = False

            # 1. Guard compromise (skipped entirely when guards are not
            # modeled: reachability ignores them, Fig. 8b).
            for guard in self.guards.guards if options.model_guards else ():
                if guard.ident in result.compromised_guards:
                    continue
                compromised = False
                if guard.kind == EQ_SENDER:
                    if any(slot in result.tainted_slots for slot in guard.compared_slots):
                        compromised = True  # Uguard-T
                    elif guard.compared_var is not None and (
                        guard.compared_var in result.input_tainted
                        or guard.compared_var in result.storage_tainted
                    ):
                        compromised = True
                elif guard.kind == DS_LOOKUP:
                    if (
                        guard.mapping_slot is not None
                        and guard.mapping_slot in result.writable_mappings
                    ):
                        compromised = True
                    elif (
                        guard.base_var in result.input_tainted
                        or guard.base_var in result.storage_tainted
                    ):
                        compromised = True
                if compromised:
                    result.compromised_guards.add(guard.ident)
                    changed = True

            # 2. Taint sources: attacker calldata at reachable statements.
            for variable, stmt in facts.calldata_defs:
                if reachable(stmt.ident) and variable not in result.input_tainted:
                    taint_input(variable, stmt.ident)
                    changed = True

            # 3. Flow edges.
            for source, dest, statement_id in self._edges:
                if source in result.storage_tainted:
                    if taint_storage_var(dest, witness_of(source)):
                        changed = True
                if source in result.input_tainted and reachable(statement_id):
                    if taint_input(dest, witness_of(source)):
                        changed = True

            if options.model_storage_taint:
                known_slots = facts.known_slots

                # 4. Stores.
                for store in facts.storage_stores:
                    statement_id = store.statement.ident
                    value_taint = effective_taint(store.value_var, statement_id)
                    if store.const_slot is not None:
                        if value_taint and taint_slot(
                            store.const_slot, witness_of(store.value_var)
                        ):
                            changed = True
                        continue
                    # Unknown-address store.  A store whose address resolves
                    # to a mapping element (hash-derived, collision-free) is
                    # *confined* to that mapping and cannot alias scalar
                    # slots — this is the data-structure modeling that
                    # separates Ethainter from Securify's "unrestricted
                    # write" smearing (§6.2).  StorageWrite-2 therefore only
                    # fires for genuinely unresolved addresses.
                    is_mapping_confined = any(
                        source in self.storage.mapping_accesses
                        for source in self.storage.copy_sources.get(
                            store.address_var, {store.address_var}
                        )
                    )
                    address_taint = effective_taint(store.address_var, statement_id)
                    if value_taint and address_taint and not is_mapping_confined:
                        # StorageWrite-2: everything known becomes tainted —
                        # unless the value-analysis stratum bounded the
                        # address, in which case only the candidate slots
                        # (a subset of the known slots) can be written.
                        resolved = self.storage.resolved_store_slots.get(
                            statement_id
                        )
                        if resolved is None:
                            targets = known_slots
                        else:
                            targets = [s for s in resolved if s in known_slots]
                        for slot in targets:
                            if taint_slot(slot, witness_of(store.value_var)):
                                changed = True
                    if options.conservative_storage and value_taint:
                        if not any_unknown_tainted_store:
                            any_unknown_tainted_store = True
                            changed = True
                        for slot in known_slots:
                            if taint_slot(slot, witness_of(store.value_var)):
                                changed = True
                    # Attacker-writable mapping detection: a reachable store
                    # through a hash-derived address whose key the attacker
                    # chooses (tainted) or *is* (sender-derived).
                    for address_source in self.storage.copy_sources.get(
                        store.address_var, {store.address_var}
                    ):
                        access = self.storage.mapping_accesses.get(address_source)
                        if access is None:
                            continue
                        key = access.key_var
                        key_controlled = (
                            effective_taint(key, statement_id) is not None
                            or (
                                self.storage.is_sender_derived(key)
                                and reachable(statement_id)
                            )
                        )
                        if key_controlled and access.base_slot not in result.writable_mappings:
                            result.writable_mappings.add(access.base_slot)
                            changed = True

                # 5. Loads: storage taint flows out everywhere (Guard-1).
                for load in facts.storage_loads:
                    if load.def_var is None:
                        continue
                    if load.const_slot is not None:
                        if load.const_slot in result.tainted_slots:
                            if taint_storage_var(
                                load.def_var,
                                result.slot_witness.get(load.const_slot, "?"),
                            ):
                                changed = True
                    elif options.conservative_storage:
                        if any_unknown_tainted_store or result.tainted_slots:
                            if taint_storage_var(load.def_var, "conservative"):
                                changed = True

        # Final reachability snapshot.
        for stmt in facts.program.statements():
            if reachable(stmt.ident):
                result.reachable.add(stmt.ident)
        return result
