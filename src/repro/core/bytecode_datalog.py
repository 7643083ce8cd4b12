"""The bytecode-level Ethainter analysis as Datalog rules (paper §5).

The paper's implementation is "several hundred declarative rules in the
Datalog language" executed by Soufflé.  :mod:`repro.core.taint` implements
the same logic as a hand-written Python fixpoint (the fast path used by the
benchmarks); this module states the rules declaratively on
:mod:`repro.datalog` — the Figure 5 skeleton, elaborated with the two taint
flavors and the guard-compromise machinery — and runs them on the engine.

``analyze_with_datalog`` produces a :class:`~repro.core.taint.TaintResult`
from the Datalog fixpoint; the test suite checks it coincides with the
Python fixpoint over the whole corpus and under every ablation.

Rule inventory (relations named after Figure 5 where they exist there):

EDB (extracted facts):
    Stmt(s)                       every TAC statement
    Infoflow(x, y, s)             one-step flow x -> y at statement s
    CALLDATALOAD(s, x)            taint source (Fig. 5 verbatim)
    StaticallyGuardedStatement(s, g)
    GuardComparesSlot(g, v)       EQ_SENDER guard g compares slot v
    GuardComparesVar(g, x)        ... and the compared variable
    GuardDsBase(g, x)             DS_LOOKUP guard's condition variable
    GuardDsMapping(g, b)          DS_LOOKUP guard's root mapping slot
    SStoreConst(s, v, x)          store x to constant slot v
    SStoreUnknown(s, a, x)        store through non-constant address a
    MappingStore(s, b, k)         store resolved to mapping b with key k
    SenderKey(k)                  k is sender-derived (DS)
    MappingConfined(a)            address a resolves to a mapping element
    SLoadConst(s, v, x)           load constant slot v into x
    KnownSlot(v)                  constant slots arising in the analysis
    ResolvedStore(s)              value analysis bounded store s's address
    ResolvedStoreSlot(s, v)       ... and v is one of its candidate slots

Reentrancy ordering stratum (from :mod:`repro.core.ordering`; only emitted
when the contract has a reentrancy-capable call, so call-free contracts
keep a byte-identical EDB/ruleset):

    ReentrancyCall(c)             gas-forwarding CALL/CALLCODE statement c
    CallBeforeStore(c, s, p)      store s to path p on a path after call c
    CallPathRead(c, p)            path p loaded before call c
    MutexedCall(c)                a storage mutex protects call c

IDB:
    ReachableByAttacker(s), Guarded(s) [projection for negation],
    InputTaint(x), StorageTaint(x), TaintedStorage(v),
    WritableMapping(b), CompromisedGuard(g),
    GuardedByMutex(c), ReentrantCall(c), StateWriteAfterCall(c)
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Set, Tuple

from repro.core.facts import ContractFacts, extract_facts
from repro.core.guards import DS_LOOKUP, EQ_SENDER, GuardModel, build_guard_model
from repro.core.ordering import CallOrderModel, build_call_order_model
from repro.core.storage_model import StorageModel, build_storage_model, memory_var
from repro.core.taint import TaintOptions, TaintResult
from repro.datalog import CompiledProgram, Database, Engine, parse_program
from repro.deadline import Deadline
from repro.decompiler import lift

# --------------------------------------------------------------------- rules

# Core mutual recursion (Fig. 5), flavored per the formal model (Fig. 3).
CORE_RULES = r"""
Guarded(s) :- StaticallyGuardedStatement(s, g).

// s is reachable if not guarded (Fig. 5) ...
ReachableByAttacker(s) :- Stmt(s), !Guarded(s).
// ... or if (any of) its guard(s) is compromised — tainted or bypassable.
ReachableByAttacker(s) :- StaticallyGuardedStatement(s, g), CompromisedGuard(g).

// Taint introduction: attacker calldata at attacker-executable statements.
InputTaint(x) :- CALLDATALOAD(s, x), ReachableByAttacker(s).

// Input taint propagates only through attacker-executable statements
// (Guard-2: the attacker's transaction reverts at an effective guard).
InputTaint(y) :- Infoflow(x, y, s), InputTaint(x), ReachableByAttacker(s).

// Storage taint propagates through every statement (Guard-1: the
// privileged caller executes guarded code over poisoned state).
StorageTaint(y) :- Infoflow(x, y, s), StorageTaint(x).

// StorageWrite-1: a tainted value stored to a constant slot.
TaintedStorage(v) :- SStoreConst(s, v, x), StorageTaint(x).
TaintedStorage(v) :- SStoreConst(s, v, x), InputTaint(x), ReachableByAttacker(s).

// StorageLoad: loads from tainted slots carry storage taint anywhere.
StorageTaint(x) :- SLoadConst(s, v, x), TaintedStorage(v).

// Guard compromise: Uguard-T (sender compared against a tainted slot) ...
CompromisedGuard(g) :- GuardComparesSlot(g, v), TaintedStorage(v).
CompromisedGuard(g) :- GuardComparesVar(g, x), InputTaint(x).
CompromisedGuard(g) :- GuardComparesVar(g, x), StorageTaint(x).
// ... or a sender-keyed lookup into an attacker-writable mapping.
CompromisedGuard(g) :- GuardDsMapping(g, b), WritableMapping(b).
CompromisedGuard(g) :- GuardDsBase(g, x), InputTaint(x).
CompromisedGuard(g) :- GuardDsBase(g, x), StorageTaint(x).

// A mapping is attacker-writable if a reachable store targets one of its
// elements with a key the attacker chooses (tainted) or is (the sender).
WritableMapping(b) :- MappingStore(s, b, k), StorageTaint(k), ReachableByAttacker(s).
WritableMapping(b) :- MappingStore(s, b, k), InputTaint(k), ReachableByAttacker(s).
WritableMapping(b) :- MappingStore(s, b, k), SenderKey(k), ReachableByAttacker(s).
"""

# StorageWrite-2 (the over-approximation): value- and address-tainted store
# through an address NOT confined to a mapping taints every known slot —
# unless the value-analysis stratum bounded the address (ResolvedStore), in
# which case only the candidate slots are tainted.  Four flavor
# combinations each way, input flavors requiring reachability.  With the
# stratum disabled both Resolved* relations are empty, so the first four
# rules degenerate to the original smear and the rest never fire.
WRITE2_RULES = r"""
TaintedStorage(v) :- SStoreUnknown(s, a, x), StorageTaint(x), StorageTaint(a),
                     !MappingConfined(a), !ResolvedStore(s), KnownSlot(v).
TaintedStorage(v) :- SStoreUnknown(s, a, x), StorageTaint(x), InputTaint(a),
                     ReachableByAttacker(s), !MappingConfined(a), !ResolvedStore(s), KnownSlot(v).
TaintedStorage(v) :- SStoreUnknown(s, a, x), InputTaint(x), StorageTaint(a),
                     ReachableByAttacker(s), !MappingConfined(a), !ResolvedStore(s), KnownSlot(v).
TaintedStorage(v) :- SStoreUnknown(s, a, x), InputTaint(x), InputTaint(a),
                     ReachableByAttacker(s), !MappingConfined(a), !ResolvedStore(s), KnownSlot(v).
TaintedStorage(v) :- SStoreUnknown(s, a, x), StorageTaint(x), StorageTaint(a),
                     !MappingConfined(a), ResolvedStoreSlot(s, v), KnownSlot(v).
TaintedStorage(v) :- SStoreUnknown(s, a, x), StorageTaint(x), InputTaint(a),
                     ReachableByAttacker(s), !MappingConfined(a), ResolvedStoreSlot(s, v), KnownSlot(v).
TaintedStorage(v) :- SStoreUnknown(s, a, x), InputTaint(x), StorageTaint(a),
                     ReachableByAttacker(s), !MappingConfined(a), ResolvedStoreSlot(s, v), KnownSlot(v).
TaintedStorage(v) :- SStoreUnknown(s, a, x), InputTaint(x), InputTaint(a),
                     ReachableByAttacker(s), !MappingConfined(a), ResolvedStoreSlot(s, v), KnownSlot(v).
"""

# Conservative storage modeling (Fig. 8c): any tainted store through an
# unknown address smears over all known slots, and unknown-address loads
# pick up taint whenever anything tainted was stored anywhere.
CONSERVATIVE_RULES = r"""
AnyTaintedStore() :- SStoreUnknown(s, a, x), StorageTaint(x).
AnyTaintedStore() :- SStoreUnknown(s, a, x), InputTaint(x), ReachableByAttacker(s).
TaintedStorage(v) :- AnyTaintedStore(), KnownSlot(v).
AnySlotTainted() :- TaintedStorage(v).
StorageTaint(x) :- SLoadUnknown(s, a, x), AnyTaintedStore().
StorageTaint(x) :- SLoadUnknown(s, a, x), AnySlotTainted().
"""

# Reentrancy stratum (rule shapes after Chinen et al. / Samreen & Alalfi):
# a gas-forwarding call the attacker reaches, followed by a write to a
# storage path that the code also *checked* before the call, with no mutex
# on the way, lets the callee re-enter while the check sees stale state.
# ReentrantCall composes with the escalation machinery for free: an
# owner-guarded withdraw becomes ReachableByAttacker — hence reentrant —
# once CompromisedGuard fires on its guard (the tainted-owner chain).
# StateWriteAfterCall is the weaker checks-effects-interactions residue,
# derived in a later stratum so it never double-reports a ReentrantCall.
REENTRANCY_RULES = r"""
GuardedByMutex(c) :- MutexedCall(c).
ReentrantCall(c) :- ReentrancyCall(c), CallBeforeStore(c, s, p), CallPathRead(c, p),
                    ReachableByAttacker(c), !GuardedByMutex(c).
StateWriteAfterCall(c) :- ReentrancyCall(c), CallBeforeStore(c, s, p),
                          ReachableByAttacker(c), !GuardedByMutex(c), !ReentrantCall(c).
"""


def _facts_to_edb(
    facts: ContractFacts,
    storage: StorageModel,
    guards: GuardModel,
    options: TaintOptions,
    ordering: Optional[CallOrderModel] = None,
    deadline: Optional[Deadline] = None,
) -> Dict[str, Set[Tuple]]:
    """The EDB as plain per-relation fact sets (a relation with no rows is
    absent), ticking ``deadline`` once per block, slice or relation."""
    deadline = deadline or Deadline()
    relations: Dict[str, Set[Tuple]] = {}

    def add(relation: str, fact: Tuple) -> None:
        relations.setdefault(relation, set()).add(fact)

    for block in facts.program.blocks.values():
        deadline.tick(len(block.statements))
        for stmt in block.statements:
            add("Stmt", (stmt.ident,))

    # One-step flows, including the constant-address memory model.
    for chunk in deadline.chunks(facts.flow_edges):
        for source, dest, stmt in chunk:
            add("Infoflow", (source, dest, stmt.ident))
    deadline.tick(len(facts.memory_writes) + len(facts.memory_reads))
    for write in facts.memory_writes:
        add("Infoflow", (write.var, memory_var(write.address), write.statement.ident))
    for read in facts.memory_reads:
        add("Infoflow", (memory_var(read.address), read.var, read.statement.ident))

    deadline.tick(len(facts.calldata_defs))
    for variable, stmt in facts.calldata_defs:
        add("CALLDATALOAD", (stmt.ident, variable))

    if options.model_guards:
        deadline.tick(len(guards.guarded_statements) + len(guards.guards))
        for statement_id, guard_ids in guards.guarded_statements.items():
            for guard_id in guard_ids:
                add("StaticallyGuardedStatement", (statement_id, guard_id))
        for guard in guards.guards:
            if guard.kind == EQ_SENDER:
                for slot in guard.compared_slots:
                    add("GuardComparesSlot", (guard.ident, slot))
                if guard.compared_var is not None:
                    add("GuardComparesVar", (guard.ident, guard.compared_var))
            elif guard.kind == DS_LOOKUP:
                add("GuardDsBase", (guard.ident, guard.base_var))
                if guard.mapping_slot is not None:
                    add("GuardDsMapping", (guard.ident, guard.mapping_slot))

    if options.model_storage_taint:
        known_slots = facts.known_slots
        deadline.tick(
            len(known_slots) + len(facts.storage_stores) + len(facts.storage_loads)
        )
        for slot in known_slots:
            add("KnownSlot", (slot,))
        for store in facts.storage_stores:
            ident = store.statement.ident
            if store.const_slot is not None:
                add("SStoreConst", (ident, store.const_slot, store.value_var))
                continue
            add("SStoreUnknown", (ident, store.address_var, store.value_var))
            resolved = storage.resolved_store_slots.get(ident)
            if resolved is not None:
                add("ResolvedStore", (ident,))
                for slot in resolved:
                    add("ResolvedStoreSlot", (ident, slot))
            for address_source in storage.copy_sources.get(
                store.address_var, {store.address_var}
            ):
                access = storage.mapping_accesses.get(address_source)
                if access is not None:
                    add("MappingStore", (ident, access.base_slot, access.key_var))
        for load in facts.storage_loads:
            if load.def_var is None:
                continue
            if load.const_slot is not None:
                add("SLoadConst", (load.statement.ident, load.const_slot, load.def_var))
            else:
                add(
                    "SLoadUnknown",
                    (load.statement.ident, load.address_var, load.def_var),
                )
        # A variable is confined when one of its copy sources is a mapping
        # access; with no mapping access in the contract none is, and the
        # walk over every copy source of every variable is skipped.
        mapping_vars = storage.mapping_accesses.keys()
        if mapping_vars:
            for chunk in deadline.chunks(list(storage.copy_sources.items())):
                for variable, sources in chunk:
                    if not mapping_vars.isdisjoint(sources):
                        add("MappingConfined", (variable,))
        for variable in mapping_vars:
            add("MappingConfined", (variable,))
        deadline.tick(len(storage.ds_vars))
        for variable in storage.ds_vars:
            add("SenderKey", (variable,))

    # Reentrancy ordering stratum: emitted only for reentrancy-capable
    # calls, independent of the ablation flags, so call-free contracts
    # keep a byte-identical EDB.
    if ordering is not None:
        deadline.tick(len(ordering.call_sites))
        for site in ordering.call_sites.values():
            if not site.reentrancy_capable:
                continue
            add("ReentrancyCall", (site.statement_id,))
            if site.mutex_guarded:
                add("MutexedCall", (site.statement_id,))
            for path, store_ids in site.stores_after.items():
                for store_id in store_ids:
                    add("CallBeforeStore", (site.statement_id, store_id, path))
            for path in site.paths_read_before:
                add("CallPathRead", (site.statement_id, path))
    return relations


def _load_edb(
    edb: Dict[str, Set[Tuple]], deadline: Optional[Deadline] = None
) -> Database:
    deadline = deadline or Deadline()
    database = Database()
    for relation, rows in edb.items():
        for chunk in deadline.chunks(list(rows)):
            database.add_all(relation, chunk)
    return database


# A ruleset's flag key: (model_storage_taint, conservative_storage,
# reentrancy), normalized so equal rulesets share one key.
RulesetKey = Tuple[bool, bool, bool]

# Every distinct key.  Conservative storage modeling only refines the
# storage rules, so it has no key of its own without them.
RULESET_KEYS: Tuple[RulesetKey, ...] = tuple(
    (storage, conservative, reentrancy)
    for storage, conservative in ((False, False), (True, False), (True, True))
    for reentrancy in (False, True)
)


def ruleset_key(options, reentrancy: bool = False) -> RulesetKey:
    """The flag key of the ruleset ``options`` (a :class:`TaintOptions` or
    an :class:`~repro.core.analysis.AnalysisConfig`) selects."""
    storage = bool(options.model_storage_taint)
    conservative = storage and bool(options.conservative_storage)
    return (storage, conservative, bool(reentrancy))


def ruleset_fragments(key: RulesetKey) -> List[Tuple[str, str]]:
    """``(name, text)`` of the rule texts making up the per-contract
    ruleset for ``key``, in order — the one map from flags to rules that
    the analysis, the cross-contract pass and the linter all read."""
    storage, conservative, reentrancy = key
    fragments = [("CORE_RULES", CORE_RULES)]
    if storage:
        fragments.append(("WRITE2_RULES", WRITE2_RULES))
        if conservative:
            fragments.append(("CONSERVATIVE_RULES", CONSERVATIVE_RULES))
    if reentrancy:
        fragments.append(("REENTRANCY_RULES", REENTRANCY_RULES))
    return fragments


def compile_fragments(fragments: List[Tuple[str, str]]) -> CompiledProgram:
    """Parse and compile concatenated rule texts."""
    text = "".join(text for _, text in fragments)
    return CompiledProgram(parse_program(text).rules)


@lru_cache(maxsize=None)
def ruleset_program(key: RulesetKey) -> CompiledProgram:
    """The per-contract ruleset for ``key``, built on first use and shared
    by every later analysis under the same flags."""
    return compile_fragments(ruleset_fragments(key))


def _rules(options: TaintOptions, reentrancy: bool = False) -> CompiledProgram:
    return ruleset_program(ruleset_key(options, reentrancy))


def analyze_with_datalog(
    runtime_bytecode: Optional[bytes] = None,
    facts: Optional[ContractFacts] = None,
    storage: Optional[StorageModel] = None,
    guards: Optional[GuardModel] = None,
    options: Optional[TaintOptions] = None,
    track_provenance: bool = False,
    use_plans: bool = True,
    columnar: Optional[bool] = None,
    ordering: Optional[CallOrderModel] = None,
    deadline: Optional[Deadline] = None,
) -> TaintResult:
    """Run the declarative bytecode analysis.

    Either pass raw ``runtime_bytecode`` or pre-extracted
    ``facts``/``storage``/``guards`` (as produced by the standard pipeline).
    Returns a :class:`TaintResult` comparable to
    :meth:`repro.core.taint.TaintAnalysis.run`'s (witness bookkeeping is not
    reconstructed — the Datalog path is the specification, not the
    reporting path).  With ``track_provenance=True`` the evaluating
    :class:`~repro.datalog.Engine` is attached as ``result.engine`` so
    callers can render derivation trees for the findings.
    ``use_plans`` and ``columnar`` remain only so existing callers keep
    working: the engine has one executor, so they accept ``use_plans=True``
    and ``columnar`` None or False, and raise :class:`ValueError` on
    anything else.
    Every call loads a fresh database and evaluates its fixpoint from
    scratch.  The engine's profiling counters land in ``result.engine_stats``.
    ``deadline`` is the run's budget; every stage this call runs ticks it.
    """
    if use_plans is not True or not (columnar is None or columnar is False):
        raise ValueError(
            "analyze_with_datalog runs compiled plans only: got "
            "use_plans=%r, columnar=%r" % (use_plans, columnar)
        )
    options = options or TaintOptions()
    deadline = deadline or Deadline()
    if facts is None:
        if runtime_bytecode is None:
            raise ValueError("need runtime_bytecode or extracted facts")
        program = lift(runtime_bytecode, deadline=deadline)
        facts = extract_facts(program, deadline=deadline)
    if storage is None:
        storage = build_storage_model(facts, deadline=deadline)
    if guards is None:
        guards = build_guard_model(facts, storage, deadline=deadline)
    if ordering is None:
        ordering = build_call_order_model(facts, storage, guards)

    edb = _facts_to_edb(
        facts, storage, guards, options, ordering=ordering, deadline=deadline
    )
    database = _load_edb(edb, deadline)
    engine = Engine(
        _rules(options, reentrancy="ReentrancyCall" in edb),
        track_provenance=track_provenance,
    )
    engine.evaluate(database, deadline=deadline)

    result = TaintResult()
    result.input_tainted = {row[0] for row in database.facts("InputTaint")}
    result.storage_tainted = {row[0] for row in database.facts("StorageTaint")}
    result.tainted_slots = {row[0] for row in database.facts("TaintedStorage")}
    result.reachable = {row[0] for row in database.facts("ReachableByAttacker")}
    result.compromised_guards = {
        row[0] for row in database.facts("CompromisedGuard")
    }
    result.writable_mappings = {row[0] for row in database.facts("WritableMapping")}
    result.iterations = engine.stats.iterations
    result.engine_stats = engine.stats.as_dict()
    if track_provenance:
        result.engine = engine  # type: ignore[attr-defined]
    return result


def explain_warning(result_engine, warning, taint: TaintResult) -> str:
    """Render a derivation tree for one analysis warning.

    Maps each vulnerability kind to the IDB fact that justifies it and asks
    the provenance-tracking engine for its proof.
    """
    from repro.core.vulnerabilities import (
        ACCESSIBLE_SELFDESTRUCT,
        REENTRANT_CALL,
        STATE_WRITE_AFTER_CALL,
        TAINTED_OWNER,
    )

    if warning.kind == ACCESSIBLE_SELFDESTRUCT:
        return result_engine.format_explanation(
            "ReachableByAttacker", (warning.statement,)
        )
    if warning.kind == TAINTED_OWNER and warning.slot is not None:
        return result_engine.format_explanation("TaintedStorage", (warning.slot,))
    if warning.kind == REENTRANT_CALL:
        return result_engine.format_explanation(
            "ReentrantCall", (warning.statement,)
        )
    if warning.kind == STATE_WRITE_AFTER_CALL:
        return result_engine.format_explanation(
            "StateWriteAfterCall", (warning.statement,)
        )
    # Tainted selfdestruct/delegatecall/staticcall: explain the taint on the
    # sensitive variable named in the detail text where possible; fall back
    # to the statement's reachability.
    for relation in ("StorageTaint", "InputTaint"):
        for token in warning.detail.split():
            probe = (relation, (token,))
            if probe in result_engine.provenance:
                return result_engine.format_explanation(relation, (token,))
    return result_engine.format_explanation(
        "ReachableByAttacker", (warning.statement,)
    )
