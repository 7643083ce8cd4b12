"""Fixed-size arrays: layout, semantics, the unrestricted-write bug class."""

import pytest

from repro import api
from repro.chain import Blockchain
from repro.minisol import ast_nodes as ast
from repro.minisol import compile_source
from repro.minisol.abi import decode_word
from repro.minisol.checker import CheckError
from repro.minisol.parser import parse

ARRAY_SOURCE = """
contract A {
    uint256 before;
    uint256[3] cells;
    address after;

    constructor() { before = 7; after = msg.sender; }
    function put(uint256 i, uint256 v) public { cells[i] = v; }
    function get(uint256 i) public returns (uint256) { return cells[i]; }
}
"""


def deployed(source=ARRAY_SOURCE):
    contract = compile_source(source)
    chain = Blockchain()
    chain.fund(0xA, 10**18)
    address = chain.deploy(0xA, contract.init_with_args()).contract_address
    return chain, contract, address


class TestParsing:
    def test_array_type_parsed(self):
        contract = parse(ARRAY_SOURCE).contracts[0]
        array = contract.state_var("cells").var_type
        assert isinstance(array, ast.ArrayType)
        assert array.size == 3
        assert str(array) == "uint256[3]"

    def test_bad_size_literal(self):
        from repro.minisol.parser import ParseError

        with pytest.raises(ParseError):
            parse("contract C { uint256[x] a; }")


class TestChecking:
    def test_slot_layout_reserves_array_slots(self):
        from repro.minisol.checker import check

        contract = check(parse(ARRAY_SOURCE)).contracts[0]
        assert contract.state_var("before").slot == 0
        assert contract.state_var("cells").slot == 1
        assert contract.state_var("after").slot == 4

    def test_zero_size_rejected(self):
        with pytest.raises(CheckError):
            compile_source("contract C { uint256[0] a; }")

    def test_double_index_rejected(self):
        with pytest.raises(CheckError):
            compile_source(
                "contract C { uint256[2] a; function f() public { a[0][1] = 1; } }"
            )

    def test_bare_array_read_rejected(self):
        with pytest.raises(CheckError):
            compile_source(
                "contract C { uint256[2] a; uint256 b;"
                " function f() public returns (uint256) { return a + b; } }"
            )

    def test_array_initializer_rejected(self):
        with pytest.raises(CheckError):
            compile_source("contract C { uint256[2] a = 1; }")


class TestSemantics:
    def test_in_bounds_read_write(self):
        chain, contract, address = deployed()
        chain.transact(0xB, address, contract.calldata("put", 1, 42))
        assert (
            decode_word(
                chain.call(0xB, address, contract.calldata("get", 1)).return_data
            )
            == 42
        )

    def test_elements_land_in_consecutive_slots(self):
        chain, contract, address = deployed()
        for index in range(3):
            chain.transact(0xB, address, contract.calldata("put", index, index + 10))
        for index in range(3):
            assert chain.state.get_storage(address, 1 + index) == index + 10

    def test_out_of_bounds_write_aliases_neighbor_slot(self):
        """No bounds check: index 3 lands on `after` (slot 4) — the
        storage-collision bug class this feature exists to reproduce."""
        chain, contract, address = deployed()
        chain.transact(0xB, address, contract.calldata("put", 3, 0xE71))
        assert chain.state.get_storage(address, 4) == 0xE71


class TestAnalysis:
    UNCHECKED = """
contract A {
    uint256[3] cells;
    address owner;
    constructor() { owner = msg.sender; }
    function store(uint256 i, uint256 v) public { cells[i] = v; }
    function shutdown() public {
        require(msg.sender == owner);
        selfdestruct(owner);
    }
}
"""

    def test_unchecked_array_write_triggers_storage_write2(self):
        result = api.analyze(compile_source(self.UNCHECKED).runtime)
        kinds = {w.kind for w in result.warnings}
        assert "tainted-owner-variable" in kinds
        assert "accessible-selfdestruct" in kinds

    def test_constant_index_write_is_precise(self):
        """A constant array index folds to a constant slot: no smear."""
        source = """
contract A {
    uint256[3] cells;
    address owner;
    constructor() { owner = msg.sender; }
    function bump(uint256 v) public { cells[1] = v; }
    function shutdown() public {
        require(msg.sender == owner);
        selfdestruct(owner);
    }
}
"""
        result = api.analyze(compile_source(source).runtime)
        assert not result.warnings

    def test_untainted_value_write_is_precise(self):
        """Tainted index but constant value: StorageWrite-2 needs BOTH."""
        source = """
contract A {
    uint256[3] cells;
    address owner;
    constructor() { owner = msg.sender; }
    function mark(uint256 i) public { cells[i] = 1; }
    function shutdown() public {
        require(msg.sender == owner);
        selfdestruct(owner);
    }
}
"""
        result = api.analyze(compile_source(source).runtime)
        assert not result.warnings

    def test_exploit_end_to_end(self):
        """The analysis-predicted attack works on the VM: overwrite the
        owner slot through the array, then pass the guard."""
        contract = compile_source(self.UNCHECKED)
        chain = Blockchain()
        chain.fund(0xD, 10**18)
        attacker = 0xBAD
        chain.fund(attacker, 10**18)
        address = chain.deploy(0xD, contract.init_with_args(), value=123).contract_address
        denied = chain.transact(attacker, address, contract.calldata("shutdown"))
        assert not denied.success
        # owner sits at slot 3 (after cells[0..2]); index 3 reaches it.
        chain.transact(attacker, address, contract.calldata("store", 3, attacker))
        receipt = chain.transact(attacker, address, contract.calldata("shutdown"))
        assert receipt.success
        assert chain.state.is_destroyed(address)
