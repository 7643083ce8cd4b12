"""Storage/data-structure modeling: DS/DSA, aliases, mapping attribution."""

import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.core.facts import ContractFacts, extract_facts
from repro.core.pipeline import Deadline, DeadlineExceeded
from repro.core.storage_model import build_storage_model, memory_var
from repro.deadline import CHECK_INTERVAL
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

    @pytest.mark.parametrize("engine", ["python", "datalog"])
    def test_long_memory_chain_analyzes(self, engine):
        """A copy chain 2400 variables long (it raised RecursionError out
        of the recursive closure)."""
        result = api.analyze(
            _memory_chain(1200), api.AnalysisConfig(engine=engine)
        )
        assert result.error is None
        assert "tainted-selfdestruct" in {w.kind for w in result.warnings}


def _memory_chain(hops):
    """CALLDATALOAD, then ``hops`` round trips through distinct memory
    words (``PUSH2 a; MSTORE; PUSH2 a; MLOAD``), then SELFDESTRUCT: the
    calldata word reaches the beneficiary through 2 * ``hops`` copies."""
    code = bytearray(b"\x60\x00\x35")
    for hop in range(hops):
        address = (32 * hop).to_bytes(2, "big")
        code += b"\x61" + address + b"\x52\x61" + address + b"\x51"
    return bytes(code + b"\xff")


def _recursive_copy_sources(facts):
    """The copy closure as the memoized recursion computed it before it
    moved onto an explicit stack: the oracle for the rewrite, down to how a
    PHI cycle copies a set that is still being built."""
    direct = {}

    def add_copy(source, dest):
        direct.setdefault(dest, set()).add(source)

    for source, dest in facts.copy_edges:
        add_copy(source, dest)
    for write in facts.memory_writes:
        add_copy(write.var, memory_var(write.address))
    for read in facts.memory_reads:
        add_copy(memory_var(read.address), read.var)
    closure_cache = {}

    def closure(variable):
        cached = closure_cache.get(variable)
        if cached is not None:
            return cached
        result = {variable}
        closure_cache[variable] = result
        for source in direct.get(variable, ()):
            result.update(closure(source))
        return result

    all_vars = set(direct)
    for sources in direct.values():
        all_vars.update(sources)
    return {variable: closure(variable) for variable in list(all_vars)}


def _seed7_bytecodes():
    """The e2ebench seed-7 input set (300 contracts, fixed template mix)."""
    path = Path(__file__).resolve().parent.parent / "e2ebench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("e2ebench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [
        bytes.fromhex(contract["bytecode"])
        for contract in module.generate(7, 300)["contracts"]
    ]


_NODES = ["v%d" % index for index in range(8)]


class TestCopyClosureOracle:
    def test_seed7_set_matches_recursive_closure(self):
        for bytecode in _seed7_bytecodes():
            facts = extract_facts(lift(bytecode))
            assert build_storage_model(facts).copy_sources == (
                _recursive_copy_sources(facts)
            )

    @settings(max_examples=200, deadline=None)
    @given(
        edges=st.lists(
            st.tuples(st.sampled_from(_NODES), st.sampled_from(_NODES)),
            max_size=24,
        )
    )
    def test_cyclic_graphs_match_recursive_closure(self, edges):
        facts = ContractFacts(program=None, copy_edges=edges)
        assert build_storage_model(facts).copy_sources == (
            _recursive_copy_sources(facts)
        )


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

    def test_ds_dsa_rounds_read_the_clock_per_slice(self):
        """3000 copy edges from caller data: the DS/DSA fixpoint's first
        round copies DS across all of them and the second finds nothing
        new.  Each round walks its loops in slices that tick the budget,
        so the clock is read inside a round, not only at its start."""

        class ClockReads(Deadline):
            """Records the storage model's round checks and each clock
            read."""

            def __init__(self):
                super().__init__(3600.0)
                self.events = []

            def check(self):
                if sys._getframe(1).f_code.co_name == "build_storage_model":
                    self.events.append("round")
                super().check()

            def elapsed(self):
                self.events.append("read")
                return super().elapsed()

        edges = [("a%d" % n, "b%d" % n) for n in range(3000)]
        facts = ContractFacts(
            program=None,
            copy_edges=edges,
            caller_defs={source for source, _ in edges},
        )
        deadline = ClockReads()
        model = build_storage_model(facts, deadline=deadline)
        assert {dest for _, dest in edges} <= model.ds_vars
        rounds = "".join(
            "|" if event == "round" else "r" for event in deadline.events
        ).split("|")[1:]
        # The round check reads the clock, and so does every full slice.
        full_slices = len(edges) // CHECK_INTERVAL
        assert [round.count("r") for round in rounds] == [1 + full_slices] * 2
