"""Report objects and the report-emitting CLI paths."""

import json

import pytest

from repro import api
from repro.core.report import ContractReport, SweepReport
from repro.core.vulnerabilities import VULNERABILITY_KINDS


class TestContractReport:
    def test_from_result_fields(self, victim_contract):
        result = api.analyze(victim_contract.runtime)
        report = ContractReport.from_result(
            result, name="Victim", bytecode_size=len(victim_contract.runtime)
        )
        assert report.name == "Victim"
        assert report.bytecode_size == len(victim_contract.runtime)
        assert report.block_count == result.block_count
        assert len(report.warnings) == len(result.warnings)

    def test_json_roundtrip(self, victim_contract):
        result = api.analyze(victim_contract.runtime)
        report = ContractReport.from_result(result, name="Victim")
        data = json.loads(report.to_json())
        assert data["name"] == "Victim"
        kinds = {w["kind"] for w in data["warnings"]}
        assert "accessible-selfdestruct" in kinds

    def test_error_report(self):
        from repro.core import AnalysisConfig

        result = api.analyze(b"\x60\x01" * 3, AnalysisConfig(max_lift_states=0))
        report = ContractReport.from_result(result)
        assert report.error is not None


class TestSweepReport:
    def _reports(self, contracts):
        sweep = SweepReport()
        for contract in contracts:
            result = api.analyze(contract.runtime)
            sweep.add(ContractReport.from_result(result, name=contract.name))
        return sweep

    def test_counts(self, victim_contract, safe_contract):
        sweep = self._reports([victim_contract, safe_contract])
        assert sweep.total_contracts == 2
        assert sweep.analyzed == 2
        assert sweep.flagged == 1
        assert 0 < sweep.flag_rate < 1

    def test_kind_counts_keys(self, safe_contract):
        sweep = self._reports([safe_contract])
        assert set(sweep.kind_counts) == set(VULNERABILITY_KINDS)

    def test_late_finish_counted_once(self):
        """A completed-but-late run (error=None, deadline_exceeded=True)
        counts as analyzed+flagged, never as an error — the old behaviour
        double-counted it in both flag and error totals."""
        late = ContractReport(
            name="late",
            bytecode_size=10,
            block_count=1,
            statement_count=2,
            elapsed_seconds=130.0,
            error=None,
            deadline_exceeded=True,
            warnings=[
                {
                    "kind": "accessible-selfdestruct",
                    "pc": 1,
                    "statement": "s",
                    "slot": None,
                    "detail": "d",
                }
            ],
        )
        sweep = SweepReport()
        sweep.add(late)
        assert sweep.analyzed == 1
        assert sweep.flagged == 1
        assert sweep.errors == 0
        assert sweep.deadline_exceeded == 1
        assert sweep.kind_counts["accessible-selfdestruct"] == 1

    def test_aborted_timeout_not_flagged(self):
        aborted = ContractReport(
            name="aborted",
            bytecode_size=10,
            block_count=0,
            statement_count=0,
            elapsed_seconds=120.0,
            error="timeout",
            deadline_exceeded=True,
        )
        sweep = SweepReport()
        sweep.add(aborted)
        assert sweep.errors == 1
        assert sweep.analyzed == 0
        assert sweep.flagged == 0
        assert sweep.deadline_exceeded == 1

    def test_stage_seconds_aggregated(self, victim_contract):
        result = api.analyze(victim_contract.runtime)
        sweep = SweepReport()
        sweep.add(ContractReport.from_result(result))
        sweep.add(ContractReport.from_result(result))
        summary = sweep.summary()
        assert set(summary["stage_seconds"]) == {
            "lift", "facts", "values", "storage", "guards", "ordering", "taint", "detect",
        }
        assert "cache" not in summary

    def test_summary_json(self, victim_contract):
        sweep = self._reports([victim_contract])
        payload = json.loads(sweep.to_json())
        assert payload["flagged"] == 1
        assert len(payload["contracts"]) == 1
        compact = json.loads(sweep.to_json(include_contracts=False))
        assert "contracts" not in compact


class TestSchemaV2:
    def test_contract_report_carries_schema_version(self, victim_contract):
        result = api.analyze(victim_contract.runtime)
        report = ContractReport.from_result(result, name="Victim")
        payload = json.loads(report.to_json())
        assert payload["schema_version"] == 2
        # schema_version leads the payload so readers can dispatch early.
        assert next(iter(payload)) == "schema_version"

    def test_sweep_report_carries_schema_version(self, victim_contract):
        sweep = SweepReport()
        sweep.add(
            ContractReport.from_result(api.analyze(victim_contract.runtime))
        )
        payload = json.loads(sweep.to_json())
        assert payload["schema_version"] == 2
        assert "error_kind_counts" in payload
        assert "orchestrator" in payload

    def test_contract_report_from_json_roundtrip(self, victim_contract):
        result = api.analyze(victim_contract.runtime)
        report = ContractReport.from_result(result, name="Victim", bytecode_size=7)
        text = report.to_json()
        assert ContractReport.from_json(text).to_json() == text

    def test_sweep_report_from_json_roundtrip(self, victim_contract, safe_contract):
        sweep = SweepReport()
        for contract in (victim_contract, safe_contract):
            sweep.add(
                ContractReport.from_result(
                    api.analyze(contract.runtime), name=contract.name
                )
            )
        sweep.orchestrator = {"mode": "serial", "crashes": 0}
        text = sweep.to_json()
        restored = SweepReport.from_json(text)
        assert restored.to_json() == text
        assert restored.orchestrator == {"mode": "serial", "crashes": 0}

    def test_schema_version_1_accepted_unknown_rejected(self):
        assert ContractReport.from_json({"schema_version": 1, "name": "x"}).name == "x"
        with pytest.raises(ValueError):
            ContractReport.from_json({"schema_version": 99})
        with pytest.raises(ValueError):
            SweepReport.from_json({"schema_version": 3})
        with pytest.raises(ValueError):
            ContractReport.from_json(json.dumps([1, 2]))

    def test_reports_with_cache_counters_still_parse(self, victim_contract):
        """v2 reports written when stages had a process-wide cache carry
        ``cache_hits``/``cache_misses`` per contract and a sweep ``cache``
        block: they still parse, and re-emit without those keys."""
        report = ContractReport.from_result(api.analyze(victim_contract.runtime))
        older = json.loads(report.to_json())
        older.update(cache_hits=0, cache_misses=8)
        assert ContractReport.from_json(older).to_json() == report.to_json()
        sweep = SweepReport()
        sweep.add(report)
        older = json.loads(sweep.to_json())
        older["cache"] = {"hits": 0, "misses": 8}
        for contract in older["contracts"]:
            contract.update(cache_hits=0, cache_misses=8)
        assert SweepReport.from_json(json.dumps(older)).to_json() == sweep.to_json()

    def test_from_entry_matches_from_result(self, victim_contract):
        from repro.core.batch import _entry_from_result

        result = api.analyze(victim_contract.runtime)
        from_result = ContractReport.from_result(
            result, name="Victim", bytecode_size=9
        )
        from_entry = ContractReport.from_entry(
            _entry_from_result(0, result), name="Victim", bytecode_size=9
        )
        assert from_entry.to_json() == from_result.to_json()

    def test_error_kind_counts(self):
        sweep = SweepReport()
        sweep.add(ContractReport(name="a", error="timeout"))
        sweep.add(ContractReport(name="b", error="worker_crashed: exit 9"))
        sweep.add(ContractReport(name="c", error="worker_crashed: exit 11"))
        assert sweep.error_kind_counts() == {
            "timeout": 1,
            "worker_crashed": 2,
        }


class TestCliJsonPaths:
    def test_analyze_json(self, tmp_path, capsys):
        from repro.cli import main
        from tests.conftest import OPEN_KILL_SOURCE

        path = tmp_path / "c.msol"
        path.write_text(OPEN_KILL_SOURCE)
        code = main(["analyze", "--source", str(path), "--json"])
        assert code == 1
        data = json.loads(capsys.readouterr().out)
        assert data["warnings"]

    def test_sweep_command(self, tmp_path, capsys):
        from repro.cli import main

        json_path = tmp_path / "sweep.json"
        assert main(["sweep", "--size", "10", "--seed", "4", "--json", str(json_path)]) == 0
        output = capsys.readouterr().out
        assert "flag rate" in output
        payload = json.loads(json_path.read_text())
        assert payload["total_contracts"] == 10


class TestSchemaVersionErrors:
    """Regression: the unsupported-version message interpolates the
    supported range from SUPPORTED_SCHEMA_VERSIONS, not a stale literal."""

    def test_message_names_every_supported_version(self):
        from repro.core.report import SUPPORTED_SCHEMA_VERSIONS

        with pytest.raises(ValueError) as excinfo:
            ContractReport.from_json({"schema_version": 99})
        message = str(excinfo.value)
        assert "schema_version 99" in message
        expected = ", ".join(str(v) for v in SUPPORTED_SCHEMA_VERSIONS)
        assert "(supported: %s)" % expected in message

    def test_sweep_report_same_message(self):
        with pytest.raises(ValueError, match="unsupported SweepReport"):
            SweepReport.from_json({"schema_version": 99})

    def test_current_and_v1_still_parse(self):
        from repro.core.report import SUPPORTED_SCHEMA_VERSIONS

        for version in SUPPORTED_SCHEMA_VERSIONS:
            assert ContractReport.from_json({"schema_version": version})


class TestPr8CounterRoundTrips:
    """Regression: error_kind_counts and the PR 8 dedup counters survive
    a from_json round-trip, contracts included or not."""

    def _errored_sweep(self):
        report = SweepReport()
        report.add(ContractReport(name="t", error="timeout: budget exhausted"))
        report.add(ContractReport(name="l", error="lift-error: bad jump"))
        report.add(ContractReport(name="ok"))
        report.orchestrator = {
            "tasks_total": 30,
            "tasks_unique": 3,
            "dedup_hits": 27,
            "result_cache_hits": 5,
        }
        return report

    def test_round_trip_with_contracts_is_byte_identical(self):
        report = self._errored_sweep()
        text = report.to_json()
        assert SweepReport.from_json(text).to_json() == text

    def test_summary_only_round_trip_keeps_error_kinds_and_dedup(self):
        report = self._errored_sweep()
        text = report.to_json(include_contracts=False)
        parsed = SweepReport.from_json(text)
        assert parsed.error_kind_counts() == {"timeout": 1, "lift-error": 1}
        assert parsed.orchestrator["dedup_hits"] == 27
        assert parsed.orchestrator["result_cache_hits"] == 5
        # And the round-trip is still byte-identical without contracts.
        assert parsed.to_json(include_contracts=False) == text

    def test_contracts_recompute_wins_over_fallback(self):
        report = self._errored_sweep()
        parsed = SweepReport.from_json(report.to_json())
        # With contracts present the counts come from them, not the cache.
        parsed.error_kind_fallback = {"bogus": 99}
        assert parsed.error_kind_counts() == {"timeout": 1, "lift-error": 1}


class TestDatalogPayloadParity:
    """Regression: batch entries carry the full EngineStats payload, so a
    report built from an entry equals one built from the result."""

    def test_from_entry_matches_from_result_for_datalog_engine(self):
        from repro import api
        from repro.core.batch import _entry_from_result
        from repro.corpus import generate_corpus

        contract = generate_corpus(3, seed=11)[2]
        result = api.analyze(
            contract.runtime, api.AnalysisConfig(engine="datalog")
        )
        assert result.datalog_stats, "datalog engine must report stats"
        entry = _entry_from_result(0, result)
        via_entry = ContractReport.from_entry(
            entry, name="c", bytecode_size=len(contract.runtime)
        )
        via_result = ContractReport.from_result(
            result, name="c", bytecode_size=len(contract.runtime)
        )
        assert via_entry.to_json() == via_result.to_json()
        # The non-scalar members made the trip.
        assert "rule_derivations" in via_entry.datalog
        assert isinstance(via_entry.datalog.get("stratum_iterations"), list)

    def test_datalog_totals_skips_non_scalar_members(self):
        from repro.core.batch import BatchEntry, BatchSummary

        summary = BatchSummary()
        summary.entries.append(
            BatchEntry(
                index=0,
                kinds=(),
                error=None,
                elapsed_seconds=0.0,
                statement_count=1,
                datalog={
                    "derived_facts": 5,
                    "rule_derivations": {"r1": 5},
                    "stratum_iterations": [1, 2],
                },
            )
        )
        summary.entries.append(
            BatchEntry(
                index=1,
                kinds=(),
                error=None,
                elapsed_seconds=0.0,
                statement_count=1,
                datalog={"derived_facts": 7, "rule_derivations": {"r1": 7}},
            )
        )
        assert summary.datalog_totals() == {"derived_facts": 12}
