"""Value-set analysis: transfer functions, widening, memory model, and the
end-to-end precision effect on computed storage indices."""

import pytest

from repro import api
from repro.core import AnalysisConfig
from repro.ir.tac import TACBlock, TACProgram, TACStatement
from repro.ir.value_analysis import BOOL_SET, analyze_values
from repro.minisol import compile_source


def make_program(statements, const_value=None):
    """Single-block program over the given statements."""
    block = TACBlock(ident="B0", offset=0, statements=list(statements))
    return TACProgram(
        blocks={"B0": block}, entry="B0", const_value=dict(const_value or {})
    )


def stmt(ident, opcode, defs=(), uses=()):
    return TACStatement(
        ident=ident, opcode=opcode, defs=list(defs), uses=list(uses)
    )


class TestTransferFunctions:
    def test_const_singleton(self):
        program = make_program([stmt("s0", "CONST", ["a"])], {"a": 42})
        analysis = analyze_values(program)
        assert analysis.value_set("a") == frozenset((42,))
        assert analysis.singleton("a") == 42

    def test_add_of_constants(self):
        program = make_program(
            [
                stmt("s0", "CONST", ["a"]),
                stmt("s1", "CONST", ["b"]),
                stmt("s2", "ADD", ["c"], ["a", "b"]),
            ],
            {"a": 3, "b": 4},
        )
        assert analyze_values(program).singleton("c") == 7

    def test_add_wraps_mod_2_256(self):
        program = make_program(
            [
                stmt("s0", "CONST", ["a"]),
                stmt("s1", "CONST", ["b"]),
                stmt("s2", "ADD", ["c"], ["a", "b"]),
            ],
            {"a": (1 << 256) - 1, "b": 2},
        )
        assert analyze_values(program).singleton("c") == 1

    def test_shl_takes_shift_amount_first(self):
        # Stack order: SHL(shift, value) — matches the lifter's folding.
        program = make_program(
            [
                stmt("s0", "CONST", ["sh"]),
                stmt("s1", "CONST", ["v"]),
                stmt("s2", "SHL", ["r"], ["sh", "v"]),
            ],
            {"sh": 4, "v": 3},
        )
        assert analyze_values(program).singleton("r") == 48

    def test_environment_value_is_top(self):
        program = make_program([stmt("s0", "CALLDATALOAD", ["x"], ["off"])])
        analysis = analyze_values(program)
        assert analysis.value_set("x") is None  # TOP

    def test_arith_over_top_is_top(self):
        program = make_program(
            [
                stmt("s0", "CALLDATALOAD", ["x"], ["off"]),
                stmt("s1", "CONST", ["one"]),
                stmt("s2", "ADD", ["y"], ["x", "one"]),
            ],
            {"one": 1},
        )
        assert analyze_values(program).value_set("y") is None


class TestComparisons:
    def test_eq_over_top_is_bool_set(self):
        """The key rule: a comparison of attacker data is still {0, 1}."""
        program = make_program(
            [
                stmt("s0", "CALLDATALOAD", ["x"], ["off"]),
                stmt("s1", "CONST", ["m"]),
                stmt("s2", "EQ", ["r"], ["x", "m"]),
            ],
            {"m": 7},
        )
        assert analyze_values(program).value_set("r") == BOOL_SET

    def test_eq_of_constants_is_exact(self):
        program = make_program(
            [
                stmt("s0", "CONST", ["a"]),
                stmt("s1", "CONST", ["b"]),
                stmt("s2", "EQ", ["r"], ["a", "b"]),
            ],
            {"a": 5, "b": 5},
        )
        assert analyze_values(program).value_set("r") == frozenset((1,))

    def test_iszero_over_top_is_bool_set(self):
        program = make_program(
            [
                stmt("s0", "CALLDATALOAD", ["x"], ["off"]),
                stmt("s1", "ISZERO", ["r"], ["x"]),
            ]
        )
        assert analyze_values(program).value_set("r") == BOOL_SET

    def test_iszero_of_nonzero_constant(self):
        program = make_program(
            [stmt("s0", "CONST", ["a"]), stmt("s1", "ISZERO", ["r"], ["a"])],
            {"a": 5},
        )
        assert analyze_values(program).value_set("r") == frozenset((0,))

    def test_double_iszero_normalizes_to_bool(self):
        program = make_program(
            [
                stmt("s0", "CALLDATALOAD", ["x"], ["off"]),
                stmt("s1", "ISZERO", ["a"], ["x"]),
                stmt("s2", "ISZERO", ["b"], ["a"]),
            ]
        )
        assert analyze_values(program).value_set("b") == BOOL_SET


class TestPhi:
    def test_phi_unions_operands(self):
        program = make_program(
            [
                stmt("s0", "CONST", ["a"]),
                stmt("s1", "CONST", ["b"]),
                stmt("s2", "PHI", ["m"], ["a", "b"]),
            ],
            {"a": 1, "b": 2},
        )
        assert analyze_values(program).value_set("m") == frozenset((1, 2))

    def test_phi_with_top_operand_is_top(self):
        """Regression: a TOP operand must widen the PHI, not be skipped."""
        program = make_program(
            [
                stmt("s0", "CONST", ["a"]),
                stmt("s1", "CALLDATALOAD", ["x"], ["off"]),
                stmt("s2", "PHI", ["m"], ["a", "x"]),
            ],
            {"a": 1},
        )
        assert analyze_values(program).value_set("m") is None

    def test_widening_past_cap_is_top(self):
        consts = [stmt("s%d" % i, "CONST", ["c%d" % i]) for i in range(10)]
        phi = stmt("sp", "PHI", ["m"], ["c%d" % i for i in range(10)])
        program = make_program(
            consts + [phi], {"c%d" % i: i for i in range(10)}
        )
        analysis = analyze_values(program, max_set_size=4)
        assert analysis.value_set("m") is None


class TestMemoryModel:
    def test_constant_store_load_chain(self):
        program = make_program(
            [
                stmt("s0", "CONST", ["addr"]),
                stmt("s1", "CONST", ["v"]),
                stmt("s2", "MSTORE", [], ["addr", "v"]),
                stmt("s3", "MLOAD", ["r"], ["addr"]),
            ],
            {"addr": 0x40, "v": 9},
        )
        analysis = analyze_values(program)
        # {0} for the never-written path, plus the stored value.
        assert analysis.value_set("r") == frozenset((0, 9))
        assert analysis.memory_sound

    def test_unknown_address_store_poisons_memory(self):
        program = make_program(
            [
                stmt("s0", "CALLDATALOAD", ["p"], ["off"]),
                stmt("s1", "CONST", ["v"]),
                stmt("s2", "MSTORE", [], ["p", "v"]),
                stmt("s3", "CONST", ["addr"]),
                stmt("s4", "MLOAD", ["r"], ["addr"]),
            ],
            {"v": 9, "addr": 0x40},
        )
        analysis = analyze_values(program)
        assert not analysis.memory_sound
        assert analysis.value_set("r") is None

    def test_calldatacopy_marks_words_unknown(self):
        program = make_program(
            [
                stmt("s0", "CONST", ["dest"]),
                stmt("s1", "CONST", ["src"]),
                stmt("s2", "CONST", ["size"]),
                stmt("s3", "CALLDATACOPY", [], ["dest", "src", "size"]),
                stmt("s4", "MLOAD", ["r"], ["dest"]),
            ],
            {"dest": 0x80, "src": 4, "size": 32},
        )
        analysis = analyze_values(program)
        assert analysis.memory_sound
        assert analysis.value_set("r") is None

    def test_exported_drops_top(self):
        program = make_program(
            [
                stmt("s0", "CONST", ["a"]),
                stmt("s1", "CALLDATALOAD", ["x"], ["off"]),
            ],
            {"a": 1},
        )
        exported = analyze_values(program).exported()
        assert exported == {"a": frozenset((1,))}


PROBE_SOURCE = """
contract Probe {
    uint256[2] flags;
    address owner;

    constructor() { owner = msg.sender; }

    function set(uint256 choice, uint256 value) public {
        flags[choice == 7] = value;
    }

    function kill() public {
        require(msg.sender == owner);
        selfdestruct(owner);
    }
}
"""


@pytest.fixture(scope="module")
def probe_runtime():
    return compile_source(PROBE_SOURCE).runtime


class TestEndToEnd:
    def test_flag_off_smears(self, probe_runtime):
        result = api.analyze(probe_runtime)
        kinds = {w.kind for w in result.warnings}
        assert "tainted-owner-variable" in kinds

    def test_flag_on_resolves_computed_index(self, probe_runtime):
        result = api.analyze(
            probe_runtime, AnalysisConfig(value_analysis=True)
        )
        assert result.warnings == []

    def test_warnings_shrink_only(self, probe_runtime):
        off = api.analyze(probe_runtime)
        on = api.analyze(probe_runtime, AnalysisConfig(value_analysis=True))
        off_kinds = {(w.kind, w.slot) for w in off.warnings}
        on_kinds = {(w.kind, w.slot) for w in on.warnings}
        assert on_kinds <= off_kinds

    def test_datalog_engine_agrees_with_flag_on(self, probe_runtime):
        python = api.analyze(
            probe_runtime, AnalysisConfig(value_analysis=True)
        )
        datalog = api.analyze(
            probe_runtime, AnalysisConfig(value_analysis=True, engine="datalog")
        )
        assert {(w.kind, w.slot) for w in python.warnings} == {
            (w.kind, w.slot) for w in datalog.warnings
        }

    def test_datalog_engine_agrees_with_flag_off(self, probe_runtime):
        python = api.analyze(probe_runtime)
        datalog = api.analyze(probe_runtime, AnalysisConfig(engine="datalog"))
        assert {(w.kind, w.slot) for w in python.warnings} == {
            (w.kind, w.slot) for w in datalog.warnings
        }

    def test_precision_counters_populated(self, probe_runtime):
        off = api.analyze(probe_runtime)
        on = api.analyze(probe_runtime, AnalysisConfig(value_analysis=True))
        assert off.precision.value_tracked_vars == 0
        assert on.precision.value_tracked_vars > 0
        assert on.precision.resolved_store_indices > off.precision.resolved_store_indices

    def test_storage_model_records_resolved_slots(self, probe_runtime):
        result = api.analyze(
            probe_runtime, AnalysisConfig(value_analysis=True)
        )
        resolved = result.storage.resolved_store_slots
        assert any(set(slots) == {0, 1} for slots in resolved.values())
