"""Warning explanations: Datalog derivation trees for findings."""

import pytest

from repro import api
from repro.core.bytecode_datalog import analyze_with_datalog, explain_warning
from repro.core.taint import TaintOptions
from repro.minisol import compile_source


@pytest.fixture(scope="module")
def explained(tainted_owner_module):
    result = api.analyze(tainted_owner_module.runtime)
    taint = analyze_with_datalog(
        facts=result.facts,
        storage=result.storage,
        guards=result.guards,
        options=TaintOptions(),
        track_provenance=True,
    )
    return result, taint


@pytest.fixture(scope="module")
def tainted_owner_module():
    from tests.conftest import TAINTED_OWNER_SOURCE

    return compile_source(TAINTED_OWNER_SOURCE)


class TestExplainWarning:
    def test_accessible_selfdestruct_explained_via_compromised_guard(self, explained):
        result, taint = explained
        warning = next(
            w for w in result.warnings if w.kind == "accessible-selfdestruct"
        )
        text = explain_warning(taint.engine, warning, taint)
        assert "ReachableByAttacker" in text
        assert "CompromisedGuard" in text
        assert "CALLDATALOAD" in text  # bottoms out at the taint source

    def test_tainted_owner_explained_via_storage_write(self, explained):
        result, taint = explained
        warning = next(
            w for w in result.warnings if w.kind == "tainted-owner-variable"
        )
        text = explain_warning(taint.engine, warning, taint)
        assert "TaintedStorage" in text
        assert "SStoreConst" in text

    def test_tainted_selfdestruct_explains_beneficiary_taint(self, explained):
        result, taint = explained
        warning = next(w for w in result.warnings if w.kind == "tainted-selfdestruct")
        text = explain_warning(taint.engine, warning, taint)
        assert "StorageTaint" in text or "InputTaint" in text

    def test_composite_chain_explanation_crosses_guards(self, victim_contract):
        result = api.analyze(victim_contract.runtime)
        taint = analyze_with_datalog(
            facts=result.facts,
            storage=result.storage,
            guards=result.guards,
            options=TaintOptions(),
            track_provenance=True,
        )
        warning = next(
            w for w in result.warnings if w.kind == "accessible-selfdestruct"
        )
        text = explain_warning(taint.engine, warning, taint)
        # The proof goes through the writable-mapping escalation.
        assert "WritableMapping" in text
        assert "MappingStore" in text


class TestCliExplain:
    def test_explain_flag(self, tmp_path, capsys):
        from repro.cli import main
        from tests.conftest import TAINTED_OWNER_SOURCE

        path = tmp_path / "c.msol"
        path.write_text(TAINTED_OWNER_SOURCE)
        assert main(["analyze", "--source", str(path), "--explain"]) == 1
        output = capsys.readouterr().out
        assert "why [accessible-selfdestruct]" in output
        assert "via" in output
