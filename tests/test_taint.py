"""The composite taint fixpoint: flavors, guard compromise, ablations."""

import pytest

from repro import api
from repro.core.analysis import AnalysisConfig
from repro.core.facts import extract_facts
from repro.core.guards import build_guard_model
from repro.core.storage_model import build_storage_model
from repro.core.taint import TaintAnalysis, TaintOptions
from repro.decompiler import lift
from repro.minisol import compile_source


def taint_for(source, name=None, **options):
    facts = extract_facts(lift(compile_source(source, name).runtime))
    storage = build_storage_model(facts)
    guards = build_guard_model(facts, storage)
    result = TaintAnalysis(facts, storage, guards, TaintOptions(**options)).run()
    return facts, storage, guards, result


class TestSourcesAndFlavors:
    def test_calldata_is_input_tainted(self):
        facts, _, _, taint = taint_for(
            "contract C { uint256 x; function f(uint256 v) public { x = v; } }"
        )
        tainted_sources = {v for v, _ in facts.calldata_defs} & taint.input_tainted
        assert tainted_sources

    def test_storage_roundtrip_yields_storage_flavor(self):
        facts, _, _, taint = taint_for(
            """
contract C {
    uint256 x;
    function set(uint256 v) public { x = v; }
    function get() public returns (uint256) { return x; }
}
"""
        )
        assert 0 in taint.tainted_slots
        loads = [l for l in facts.storage_loads if l.const_slot == 0]
        assert any(l.def_var in taint.storage_tainted for l in loads)

    def test_caller_not_a_source(self):
        facts, _, _, taint = taint_for(
            "contract C { address last; function f() public { last = msg.sender; } }"
        )
        assert 0 not in taint.tainted_slots

    def test_constant_not_tainted(self):
        facts, _, _, taint = taint_for(
            "contract C { uint256 x; function f() public { x = 7; } }"
        )
        assert 0 not in taint.tainted_slots

    def test_calldata_in_guarded_code_not_tainted(self):
        """Guard-2: the attacker's transaction reverts at the guard, so the
        privileged caller's inputs are the only ones reaching the store."""
        facts, _, _, taint = taint_for(
            """
contract C {
    address owner;
    uint256 x;
    constructor() { owner = msg.sender; }
    function f(uint256 v) public { require(msg.sender == owner); x = v; }
}
"""
        )
        assert 1 not in taint.tainted_slots

    def test_storage_taint_passes_guards(self):
        """Guard-1: poisoned state flows through guarded code."""
        facts, _, _, taint = taint_for(
            """
contract C {
    address owner;
    address administrator;
    constructor() { owner = msg.sender; }
    function initAdmin(address a) public { administrator = a; }
    function close() public {
        require(msg.sender == owner);
        selfdestruct(administrator);
    }
}
"""
        )
        beneficiary = facts.selfdestructs[0].uses[0]
        assert beneficiary in taint.storage_tainted
        # But the selfdestruct statement itself stays unreachable.
        assert not taint.is_reachable(facts.selfdestructs[0].ident)


class TestGuardCompromise:
    def test_tainted_owner_compromises_eq_guard(self):
        facts, _, guards, taint = taint_for(
            """
contract C {
    address owner;
    function init(address o) public { owner = o; }
    function kill() public { require(msg.sender == owner); selfdestruct(owner); }
}
"""
        )
        assert taint.compromised_guards  # Uguard-T
        assert taint.is_reachable(facts.selfdestructs[0].ident)

    def test_clean_owner_guard_not_compromised(self):
        facts, _, guards, taint = taint_for(
            """
contract C {
    address owner;
    constructor() { owner = msg.sender; }
    function kill() public { require(msg.sender == owner); selfdestruct(owner); }
}
"""
        )
        assert not taint.compromised_guards
        assert not taint.is_reachable(facts.selfdestructs[0].ident)

    def test_self_registration_makes_mapping_writable(self):
        facts, _, _, taint = taint_for(
            """
contract C {
    mapping(address => bool) members;
    address t;
    constructor() { t = msg.sender; }
    function join() public { members[msg.sender] = true; }
    function retire() public { require(members[msg.sender]); selfdestruct(t); }
}
"""
        )
        assert 0 in taint.writable_mappings
        assert taint.is_reachable(facts.selfdestructs[0].ident)

    def test_guarded_mapping_write_not_writable_when_chain_unbroken(self):
        facts, _, _, taint = taint_for(
            """
contract C {
    address owner;
    mapping(address => bool) admins;
    uint256 x;
    constructor() { owner = msg.sender; admins[msg.sender] = true; }
    function addAdmin(address a) public {
        require(msg.sender == owner);
        admins[a] = true;
    }
    function sensitive(uint256 v) public {
        require(admins[msg.sender]);
        x = v;
    }
}
"""
        )
        assert 1 not in taint.writable_mappings
        assert not taint.compromised_guards

    def test_victim_full_escalation(self, victim_contract):
        facts = extract_facts(lift(victim_contract.runtime))
        storage = build_storage_model(facts)
        guards = build_guard_model(facts, storage)
        taint = TaintAnalysis(facts, storage, guards).run()
        assert taint.writable_mappings == {0, 1}
        assert len(taint.compromised_guards) == len(guards.guards)
        assert 2 in taint.tainted_slots  # owner
        assert taint.is_reachable(facts.selfdestructs[0].ident)


class TestStorageWrite2:
    RAW_WRITE = """
contract C {
    uint256 a;
    address owner;
    constructor() { owner = msg.sender; }
    function poke(uint256 slot, uint256 value) public {
        sha3(slot);
        a = a;
    }
}
"""

    def test_mapping_confined_write_does_not_smear(self, token_contract):
        facts = extract_facts(lift(token_contract.runtime))
        storage = build_storage_model(facts)
        guards = build_guard_model(facts, storage)
        taint = TaintAnalysis(facts, storage, guards).run()
        # balances[to] += value has tainted key AND value, but is confined
        # to the mapping: the owner slot must stay clean.
        owner_slot = 1
        assert owner_slot not in taint.tainted_slots


class TestAblations:
    TAINTED_OWNER = """
contract C {
    address owner;
    function init(address o) public { owner = o; }
    function kill() public { require(msg.sender == owner); selfdestruct(owner); }
}
"""

    def test_no_guard_model_flags_safe_contract(self, safe_contract):
        result = api.analyze(
            safe_contract.runtime, AnalysisConfig(model_guards=False)
        )
        assert result.has("accessible-selfdestruct")

    def test_no_storage_model_loses_composite(self, victim_contract):
        result = api.analyze(
            victim_contract.runtime, AnalysisConfig(model_storage_taint=False)
        )
        assert not result.warnings

    def test_no_storage_keeps_direct_taint(self):
        source = "contract C { function f(address to) public { selfdestruct(to); } }"
        result = api.analyze(
            compile_source(source).runtime, AnalysisConfig(model_storage_taint=False)
        )
        kinds = {w.kind for w in result.warnings}
        assert "tainted-selfdestruct" in kinds

    def test_conservative_storage_smears(self, token_contract):
        result = api.analyze(
            token_contract.runtime, AnalysisConfig(conservative_storage=True)
        )
        assert result.has("tainted-owner-variable")

    def test_default_is_precise_on_token(self, token_contract):
        result = api.analyze(token_contract.runtime)
        assert not result.warnings

    def test_ablations_are_monotone_on_flag_count(self, victim_contract):
        """No-guard modeling can only add warnings; no-storage only remove."""
        default = api.analyze(victim_contract.runtime)
        no_guards = api.analyze(
            victim_contract.runtime, AnalysisConfig(model_guards=False)
        )
        no_storage = api.analyze(
            victim_contract.runtime, AnalysisConfig(model_storage_taint=False)
        )
        assert len(no_guards.warnings) >= len(default.warnings)
        assert len(no_storage.warnings) <= len(default.warnings)


class TestFixpointMechanics:
    def test_iteration_count_recorded(self, victim_contract):
        facts = extract_facts(lift(victim_contract.runtime))
        storage = build_storage_model(facts)
        guards = build_guard_model(facts, storage)
        taint = TaintAnalysis(facts, storage, guards).run()
        assert taint.iterations >= 2  # composite chains need several rounds

    def test_witness_points_to_calldataload(self, tainted_owner_contract):
        facts = extract_facts(lift(tainted_owner_contract.runtime))
        storage = build_storage_model(facts)
        guards = build_guard_model(facts, storage)
        taint = TaintAnalysis(facts, storage, guards).run()
        witness = taint.slot_witness[0]
        stmt = next(s for s in facts.program.statements() if s.ident == witness)
        assert stmt.opcode == "CALLDATALOAD"

    def test_reachability_monotone_with_guards_off(self, victim_contract):
        facts = extract_facts(lift(victim_contract.runtime))
        storage = build_storage_model(facts)
        guards = build_guard_model(facts, storage)
        with_guards = TaintAnalysis(facts, storage, guards).run()
        without = TaintAnalysis(
            facts, storage, guards, TaintOptions(model_guards=False)
        ).run()
        assert with_guards.reachable <= without.reachable


class TestMemoryModeling:
    """§5 bullet 3: memory modeled like variables; memory taint is
    sanitized via guards, much like input taint."""

    def test_input_taint_through_memory_blocked_by_guard(self):
        facts, _, _, taint = taint_for(
            """
contract C {
    address owner;
    uint256 x;
    constructor() { owner = msg.sender; }
    function f(uint256 v) public {
        uint256 cached = v;
        require(msg.sender == owner);
        x = cached;
    }
}
"""
        )
        # The local round-trips through memory, but the store is guarded:
        # the attacker's input never lands in storage.
        assert 1 not in taint.tainted_slots

    def test_input_taint_through_memory_flows_when_unguarded(self):
        facts, _, _, taint = taint_for(
            """
contract C {
    uint256 x;
    function f(uint256 v) public {
        uint256 cached = v + 1;
        x = cached;
    }
}
"""
        )
        assert 0 in taint.tainted_slots

    def test_storage_taint_through_memory_passes_guards(self):
        facts, _, _, taint = taint_for(
            """
contract C {
    address owner;
    address admin;
    constructor() { owner = msg.sender; }
    function seed(address a) public { admin = a; }
    function pay() public {
        address cached = admin;
        require(msg.sender == owner);
        selfdestruct(cached);
    }
}
"""
        )
        beneficiary = facts.selfdestructs[0].uses[0]
        assert beneficiary in taint.storage_tainted


class TestFuzzRobustness:
    def test_random_bytecode_never_crashes_analysis(self):
        import random as _random

        rng = _random.Random(0xF022)
        for _ in range(40):
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 400)))
            result = api.analyze(blob)
            assert result.error is None or result.error.startswith("lift-error")
