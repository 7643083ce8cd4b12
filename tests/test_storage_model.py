"""Storage/data-structure modeling: DS/DSA, aliases, mapping attribution."""

import pytest

from repro.core.facts import extract_facts
from repro.core.pipeline import Deadline, DeadlineExceeded
from repro.core.storage_model import build_storage_model, memory_var
from repro.decompiler import lift
from repro.minisol import compile_source


def model_for(source, name=None):
    facts = extract_facts(lift(compile_source(source, name).runtime))
    return facts, build_storage_model(facts)


SENDER_MAP_SOURCE = """
contract M {
    mapping(address => bool) allowed;
    function check() public returns (bool) { return allowed[msg.sender]; }
}
"""

ARG_MAP_SOURCE = """
contract M {
    mapping(address => bool) allowed;
    function check(address who) public returns (bool) { return allowed[who]; }
}
"""


class TestDS:
    def test_caller_is_ds(self):
        facts, model = model_for(SENDER_MAP_SOURCE)
        assert facts.caller_defs <= model.ds_vars

    def test_sender_keyed_lookup_value_is_ds(self):
        facts, model = model_for(SENDER_MAP_SOURCE)
        loaded = {
            load.def_var for load in facts.storage_loads if load.const_slot is None
        }
        assert loaded & model.ds_vars  # DSA-Load: element of sender-keyed DS

    def test_hash_of_sender_is_dsa(self):
        facts, model = model_for(SENDER_MAP_SOURCE)
        hash_defs = {h.def_var for h in facts.hashes}
        assert hash_defs & model.dsa_vars

    def test_arg_keyed_lookup_not_ds(self):
        facts, model = model_for(ARG_MAP_SOURCE)
        loaded = {
            load.def_var for load in facts.storage_loads if load.const_slot is None
        }
        assert not (loaded & model.ds_vars)

    def test_ds_propagates_through_memory_copies(self):
        # msg.sender stored to a local and reloaded must remain DS.
        facts, model = model_for(
            """
contract M {
    mapping(address => bool) allowed;
    function check() public returns (bool) {
        address me = msg.sender;
        return allowed[me];
    }
}
"""
        )
        loaded = {
            load.def_var for load in facts.storage_loads if load.const_slot is None
        }
        assert loaded & model.ds_vars


class TestStorageAlias:
    def test_loaded_scalar_aliases_slot(self):
        facts, model = model_for(
            """
contract A {
    uint256 pad;
    address owner;
    function get() public returns (address) { return owner; }
}
"""
        )
        aliases = set()
        for load in facts.storage_loads:
            if load.const_slot == 1:
                aliases |= model.aliases_of(load.def_var)
        assert 1 in aliases

    def test_alias_extends_through_copies(self, safe_contract):
        facts = extract_facts(lift(safe_contract.runtime))
        model = build_storage_model(facts)
        # Some variable somewhere aliases the owner slot 0.
        assert any(0 in slots for slots in model.storage_alias.values())


class TestMappingAttribution:
    def test_simple_mapping_root(self):
        facts, model = model_for(SENDER_MAP_SOURCE)
        assert model.mapping_accesses
        assert {a.base_slot for a in model.mapping_accesses.values()} == {0}

    def test_two_mappings_distinct_roots(self, victim_contract):
        facts = extract_facts(lift(victim_contract.runtime))
        model = build_storage_model(facts)
        roots = {a.base_slot for a in model.mapping_accesses.values()}
        assert roots == {0, 1}  # admins and users

    def test_nested_mapping_attributed_to_root(self):
        facts, model = model_for(
            """
contract N {
    uint256 pad;
    mapping(address => mapping(address => uint256)) allowed;
    function get(address a, address b) public returns (uint256) {
        return allowed[a][b];
    }
}
"""
        )
        roots = {a.base_slot for a in model.mapping_accesses.values()}
        assert roots == {1}

    def test_key_var_recorded(self):
        facts, model = model_for(ARG_MAP_SOURCE)
        access = next(iter(model.mapping_accesses.values()))
        assert access.key_var


class TestCopyClosure:
    def test_memory_round_trip_copies(self):
        facts, model = model_for(
            """
contract C {
    function f(uint256 x) public returns (uint256) {
        uint256 y = x;
        return y;
    }
}
"""
        )
        # Some variable must copy (transitively) from a memory var.
        assert any(
            any(source.startswith("m0x") for source in sources)
            for sources in model.copy_sources.values()
        )

    def test_memory_var_naming(self):
        assert memory_var(0x80) == "m0x80"

    def test_copy_sources_include_self(self):
        facts, model = model_for(SENDER_MAP_SOURCE)
        for variable, sources in model.copy_sources.items():
            assert variable in sources


# A mutated corpus contract that lifts to ~200k TAC statements: its copy
# closure kept the storage stage busy for ~8 s past a 2 s analysis
# deadline.
_WIDE_COPY_GRAPH = bytes.fromhex(
    "60003560e01c80630685cb2814610049578063aae7857b146100595780638e97ede21461"
    "000057806345f9447a14610073578063f35a1d441461008757806337151970146100a157"
    "005ba104356080526100576100b5565b005b60043560a0526100676100d1565b005b6100"
    "b56100ed565b00a861007b610107565b60405160005260206000f35b60043560c0526100"
    "95610119565b60405160005260206000f35b6100a9610131565b604051603d5260206000"
    "f35b60005433146100c45760006000fd5b6080516001556000604052565b600054331461"
    "00e05760006000fd5b60a0516000556000604052565b60005433146100fc5760816000fd"
    "5b600054ff6000604052565b65bbe8a415c4c9604052566000604052565b60c051600254"
    "01600255600254604052566000604052565b610db160405256600060405256"
)


class TestDeadline:
    def test_wide_copy_graph_stops_at_the_deadline(self):
        facts = extract_facts(lift(_WIDE_COPY_GRAPH))
        budget = Deadline(0.3)
        with pytest.raises(DeadlineExceeded):
            build_storage_model(facts, deadline=budget)
        assert budget.elapsed() < 0.3 + 1.5

    def test_no_deadline_is_unlimited(self):
        facts, model = model_for(SENDER_MAP_SOURCE)
        assert build_storage_model(facts, deadline=Deadline(None)).ds_vars == (
            model.ds_vars
        )
