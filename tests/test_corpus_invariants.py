"""Corpus-wide pipeline invariants.

These run the full pipeline over a corpus sample and assert structural
properties that must hold for EVERY generated contract — the kind of
whole-system health check that catches integration regressions no unit
test sees.
"""

import pytest

from repro import api
from repro.core.facts import extract_facts
from repro.corpus import generate_corpus
from repro.decompiler import find_public_functions, lift
from repro.evm.hashing import function_selector


@pytest.fixture(scope="module")
def sample():
    return generate_corpus(60, seed=77)


class TestDecompilerInvariants:
    def test_all_jumps_resolved(self, sample):
        for contract in sample:
            program = lift(contract.runtime)
            assert program.unresolved_jumps == [], contract.template

    def test_all_public_selectors_recovered(self, sample):
        for contract in sample:
            program = lift(contract.runtime)
            found = {public.selector for public in find_public_functions(program)}
            expected = {
                function_selector(fn.signature)
                for fn in contract.compiled.public_functions
            }
            assert found == expected, contract.template

    def test_single_assignment_holds(self, sample):
        for contract in sample[:20]:
            program = lift(contract.runtime)
            defined = set()
            for stmt in program.statements():
                for var in stmt.defs:
                    assert var not in defined
                    defined.add(var)


class TestAnalysisInvariants:
    def test_analysis_never_errors(self, sample):
        for contract in sample:
            result = api.analyze(contract.runtime)
            assert result.error is None, contract.template

    def test_flags_match_ground_truth_expectations(self, sample):
        for contract in sample:
            result = api.analyze(contract.runtime)
            flagged = {w.kind for w in result.warnings}
            expected = contract.labels | contract.expected_fp_kinds
            assert flagged == expected, (contract.template, flagged, expected)

    def test_every_selfdestruct_bytecode_has_statement(self, sample):
        for contract in sample:
            has_opcode = b"\xff" in contract.runtime
            facts = extract_facts(lift(contract.runtime))
            # Every SELFDESTRUCT statement implies the opcode byte exists
            # (the converse can fail: 0xff bytes appear in push data).
            if facts.selfdestructs:
                assert has_opcode

    def test_no_storage_is_subset_of_default(self, sample):
        from repro.core import AnalysisConfig

        for contract in sample[:25]:
            default_kinds = {
                w.kind for w in api.analyze(contract.runtime).warnings
            }
            ablated_kinds = {
                w.kind
                for w in api.analyze(
                    contract.runtime, AnalysisConfig(model_storage_taint=False)
                ).warnings
            }
            assert ablated_kinds <= default_kinds, contract.template

    def test_no_guards_is_superset_of_default(self, sample):
        from repro.core import AnalysisConfig

        for contract in sample[:25]:
            default_kinds = {
                w.kind for w in api.analyze(contract.runtime).warnings
            }
            ablated_kinds = {
                w.kind
                for w in api.analyze(
                    contract.runtime, AnalysisConfig(model_guards=False)
                ).warnings
            }
            # Tainted-owner needs guards to define its sinks; all other
            # kinds can only grow when guards are ignored.
            assert default_kinds - {"tainted-owner-variable"} <= ablated_kinds, (
                contract.template
            )
