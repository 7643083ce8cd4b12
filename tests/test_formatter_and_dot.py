"""Source formatter round-trips and dot export."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.decompiler import lift
from repro.ir.dot import to_dot
from repro.minisol import ast_nodes as ast
from repro.minisol import compile_source
from repro.minisol.formatter import format_expr, format_program, format_stmt
from repro.minisol.parser import parse
from tests.conftest import (
    SAFE_OWNED_SOURCE,
    TAINTED_OWNER_SOURCE,
    TOKEN_SOURCE,
    VICTIM_SOURCE,
)


def ast_equal(left, right) -> bool:
    """Structural equality ignoring line numbers and slot assignments."""
    if type(left) is not type(right):
        return False
    if isinstance(left, (int, str, bool, type(None))):
        return left == right
    if isinstance(left, (list, tuple)):
        return len(left) == len(right) and all(
            ast_equal(a, b) for a, b in zip(left, right)
        )
    if hasattr(left, "__dataclass_fields__"):
        for field_name in left.__dataclass_fields__:
            if field_name in ("line", "slot"):
                continue
            if not ast_equal(getattr(left, field_name), getattr(right, field_name)):
                return False
        return True
    return left == right


CANONICAL_SOURCES = [VICTIM_SOURCE, SAFE_OWNED_SOURCE, TAINTED_OWNER_SOURCE, TOKEN_SOURCE]


class TestFormatterRoundTrip:
    @pytest.mark.parametrize("source", CANONICAL_SOURCES)
    def test_parse_format_parse_fixpoint(self, source):
        first = parse(source)
        formatted = format_program(first)
        second = parse(formatted)
        assert ast_equal(first, second)

    def test_formatted_source_compiles_and_analyzes_identically(self):
        original = compile_source(VICTIM_SOURCE)
        formatted_source = format_program(parse(VICTIM_SOURCE))
        reformatted = compile_source(formatted_source)
        original_kinds = {w.kind for w in api.analyze(original.runtime).warnings}
        reformatted_kinds = {
            w.kind for w in api.analyze(reformatted.runtime).warnings
        }
        assert original_kinds == reformatted_kinds

    def test_corpus_templates_round_trip(self):
        import random

        from repro.corpus import TEMPLATES

        for name, template in sorted(TEMPLATES.items()):
            output = template(random.Random(5))
            first = parse(output.source)
            second = parse(format_program(first))
            assert ast_equal(first, second), name

    def test_external_call_forms(self):
        source = (
            'contract C { function f(address t, uint256 v) public {'
            ' call(t, "a(uint256)", v);'
            ' delegatecall(t, "b()");'
            ' callvalue_to(t, v, "c()"); } }'
        )
        first = parse(source)
        second = parse(format_program(first))
        assert ast_equal(first, second)

    def test_expression_parenthesization_preserves_shape(self):
        source = (
            "contract C { function f(uint256 a, uint256 b) public returns (uint256)"
            " { return a + b * 2 - (a / 3); } }"
        )
        first = parse(source)
        second = parse(format_program(first))
        assert ast_equal(first, second)


class TestDotExport:
    def test_dot_contains_blocks_and_edges(self, victim_contract):
        program = lift(victim_contract.runtime)
        dot = to_dot(program)
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        for block_id in program.blocks:
            assert '"%s"' % block_id in dot
        assert "->" in dot

    def test_highlighting_marks_flagged_statement(self, victim_contract):
        result = api.analyze(victim_contract.runtime)
        flagged = {w.statement for w in result.warnings if w.statement}
        dot = to_dot(result.program, highlight_statements=flagged)
        assert "color=red" in dot

    def test_branch_edges_labeled(self, safe_contract):
        dot = to_dot(lift(safe_contract.runtime))
        assert '[label="T"]' in dot
        assert '[label="F"]' in dot

    def test_entry_block_bold(self, safe_contract):
        program = lift(safe_contract.runtime)
        dot = to_dot(program)
        assert "style=bold" in dot
