"""Command-line interface."""

import json

import pytest

from repro.cli import main
from tests.conftest import OPEN_KILL_SOURCE, SAFE_OWNED_SOURCE, VICTIM_SOURCE


@pytest.fixture
def victim_file(tmp_path):
    path = tmp_path / "victim.msol"
    path.write_text(VICTIM_SOURCE)
    return str(path)


@pytest.fixture
def safe_file(tmp_path):
    path = tmp_path / "safe.msol"
    path.write_text(SAFE_OWNED_SOURCE)
    return str(path)


class TestAnalyze:
    def test_vulnerable_exits_1(self, victim_file, capsys):
        assert main(["analyze", "--source", victim_file]) == 1
        output = capsys.readouterr().out
        assert "accessible-selfdestruct" in output

    def test_safe_exits_0(self, safe_file, capsys):
        assert main(["analyze", "--source", safe_file]) == 0
        assert "no vulnerabilities" in capsys.readouterr().out

    def test_ablation_flag(self, safe_file, capsys):
        assert main(["analyze", "--source", safe_file, "--no-guards"]) == 1

    def test_hex_input(self, tmp_path, victim_contract, capsys):
        hex_file = tmp_path / "code.hex"
        hex_file.write_text("0x" + victim_contract.runtime.hex())
        assert main(["analyze", "--hex", str(hex_file)]) == 1

    def test_compare_flag(self, victim_file, capsys):
        main(["analyze", "--source", victim_file, "--compare"])
        assert "baselines" in capsys.readouterr().out

    def test_missing_input_errors(self):
        with pytest.raises(SystemExit):
            main(["analyze"])

    def test_compile_error_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.msol"
        bad.write_text("contract {")
        assert main(["analyze", "--source", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "compile error" in err and "line 1" in err

    def test_profile_prints_stage_breakdown(self, victim_file, capsys):
        assert main(["analyze", "--source", victim_file, "--profile"]) == 1
        output = capsys.readouterr().out
        assert "pipeline profile:" in output
        for stage in ("lift", "facts", "values", "storage", "guards", "ordering", "taint", "detect"):
            assert stage in output
        assert "cache" in output

    def test_sweep_profile_prints_aggregate(self, capsys):
        assert main(["sweep", "--size", "6", "--seed", "3", "--profile"]) == 0
        output = capsys.readouterr().out
        assert "pipeline profile:" in output
        assert "lift" in output and "taint" in output


class TestCompileDisasmDecompile:
    def test_compile_prints_hex(self, safe_file, capsys):
        assert main(["compile", safe_file]) == 0
        output = capsys.readouterr().out.strip()
        bytes.fromhex(output)  # valid hex

    def test_disasm(self, safe_file, capsys):
        assert main(["disasm", "--source", safe_file]) == 0
        assert "JUMPI" in capsys.readouterr().out

    def test_decompile(self, safe_file, capsys):
        assert main(["decompile", "--source", safe_file]) == 0
        assert "block" in capsys.readouterr().out


class TestAbi:
    def test_abi_lists_selectors_and_events(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "c.msol"
        path.write_text(
            "contract C { event E(uint256 v);"
            " function kill() public { selfdestruct(msg.sender); } }"
        )
        assert main(["abi", str(path)]) == 0
        output = capsys.readouterr().out
        assert "kill()" in output
        assert "E(uint256)" in output
        assert "0x" in output


class TestDecompileDot:
    def test_dot_output(self, safe_file, capsys):
        from repro.cli import main

        assert main(["decompile", "--source", safe_file, "--dot"]) == 0
        output = capsys.readouterr().out
        assert output.startswith("digraph")


class TestCorpus:
    def test_corpus_writes_files(self, tmp_path, capsys):
        out_dir = tmp_path / "corpus"
        assert main(["corpus", "--size", "5", "--seed", "1", "--out", str(out_dir)]) == 0
        index = json.loads((out_dir / "index.json").read_text())
        assert len(index) == 5
        assert all("template" in entry for entry in index)
        assert len(list(out_dir.glob("*.msol"))) == 5


class TestKill:
    def test_kill_destroys_vulnerable(self, tmp_path, capsys):
        path = tmp_path / "open.msol"
        path.write_text(OPEN_KILL_SOURCE)
        assert main(["kill", str(path), "--value", "100"]) == 1
        assert "DESTROYED" in capsys.readouterr().out

    def test_kill_safe_contract_survives(self, safe_file, capsys):
        assert main(["kill", safe_file]) == 0
        assert "not destroyed" in capsys.readouterr().out


class TestEngineFlag:
    def test_datalog_engine_flag(self, victim_file, capsys):
        from repro.cli import main

        assert main(["analyze", "--source", victim_file, "--engine", "datalog"]) == 1
        assert "accessible-selfdestruct" in capsys.readouterr().out

    def test_columnar_engine_flag(self, victim_file, capsys):
        """The deleted executors' engine names are unknown engines now."""
        import pytest

        from repro.cli import main

        for name in ("datalog-columnar", "datalog-legacy"):
            with pytest.raises(SystemExit) as excinfo:
                main(["analyze", "--source", victim_file, "--engine", name])
            assert excinfo.value.code == 2
            assert "invalid choice: %r" % name in capsys.readouterr().err

    def test_help_enumerates_engine_choices(self, capsys):
        import pytest

        from repro.cli import main
        from repro.core.pipeline import ENGINE_CHOICES

        for command in ("analyze", "sweep"):
            with pytest.raises(SystemExit) as excinfo:
                main([command, "--help"])
            assert excinfo.value.code == 0
            # argparse re-wraps help text; compare on collapsed whitespace.
            output = " ".join(capsys.readouterr().out.split())
            for name, description in ENGINE_CHOICES.items():
                assert name in output
                assert description in output

    def test_unknown_engine_fails_naming_valid_set(self, victim_file, capsys):
        import pytest

        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "--source", victim_file, "--engine", "sqlite"])
        assert excinfo.value.code == 2
        errors = capsys.readouterr().err
        assert "invalid choice: 'sqlite'" in errors
        assert "choose from 'datalog', 'python'" in errors

    def test_unknown_engine_config_raises_clear_error(self):
        import pytest

        from repro import api
        from repro.core.pipeline import UnknownEngineError

        with pytest.raises(UnknownEngineError, match="datalog, python$"):
            api.analyze(b"\x00", api.AnalysisConfig(engine="sqlite"))
        with pytest.raises(UnknownEngineError, match="'datalog-legacy'"):
            api.analyze(b"\x00", api.AnalysisConfig(engine="datalog-legacy"))


class TestLintRules:
    def test_shipped_rules_pass(self, capsys):
        assert main(["lint-rules"]) == 0
        output = capsys.readouterr().out
        assert "0 error(s)" in output

    def test_bad_file_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.dl"
        bad.write_text(
            ".decl Edge(a, b)\n"
            "Path(x) :- Edge(x, y, z).\n"
            "Bad(x, q) :- Edge(x, y).\n"
            "Odd(x) :- Edge(x, y), !Odd(y).\n"
        )
        assert main(["lint-rules", str(bad)]) == 1
        output = capsys.readouterr().out
        assert "arity-mismatch" in output
        assert "unsafe-rule" in output
        assert "negation-in-recursion" in output
        # Diagnostics carry file and line.
        assert "%s:2:" % bad in output

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        good = tmp_path / "good.dl"
        good.write_text("Path(x, y) :- Edge(x, y).\n")
        assert main(["lint-rules", str(good)]) == 0

    def test_warnings_only_exit_zero(self, tmp_path, capsys):
        warned = tmp_path / "warned.dl"
        warned.write_text(".decl Ghost(a)\nPath(x, y) :- Edge(x, y).\n")
        assert main(["lint-rules", str(warned)]) == 0
        assert "unused-relation" in capsys.readouterr().out

    def test_strata_preview(self, capsys):
        assert main(["lint-rules", "--strata"]) == 0
        output = capsys.readouterr().out
        assert "strata for" in output
        assert "TaintedStorage" in output


class TestValueAnalysisFlag:
    def test_flag_changes_probe_verdict(self, tmp_path, capsys):
        probe = tmp_path / "probe.msol"
        probe.write_text(
            """
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
        )
        assert main(["analyze", "--source", str(probe)]) == 1
        capsys.readouterr()
        assert main(["analyze", "--source", str(probe), "--value-analysis"]) == 0
        assert "no vulnerabilities" in capsys.readouterr().out

    def test_profile_prints_precision_counters(self, safe_file, capsys):
        main(["analyze", "--source", safe_file, "--profile"])
        output = capsys.readouterr().out
        assert "precision counters:" in output
        assert "resolved_store_indices" in output

    def test_sweep_accepts_value_analysis(self, capsys):
        assert main(["sweep", "--size", "4", "--seed", "3", "--value-analysis",
                     "--profile"]) == 0
        assert "precision counters:" in capsys.readouterr().out


class TestUnifiedFlags:
    """``analyze`` and ``sweep`` share one parent parser: identical
    spellings for --engine, --value-analysis, --deadline, --profile and
    --json (bare --json = report on stdout, --json FILE = report file)."""

    def test_shared_flags_have_identical_spellings(self):
        from repro.cli import build_parser

        parser = build_parser()
        subparsers = next(
            action
            for action in parser._actions
            if hasattr(action, "choices") and action.choices
        )
        shared = {"--engine", "--value-analysis", "--deadline", "--profile", "--json"}
        for command in ("analyze", "sweep"):
            spellings = {
                option
                for action in subparsers.choices[command]._actions
                for option in action.option_strings
            }
            assert shared <= spellings, command

    def test_analyze_accepts_deadline(self, victim_file):
        assert main(["analyze", "--source", victim_file, "--deadline", "60"]) == 1

    def test_analyze_timeout_alias_still_works(self, victim_file):
        assert main(["analyze", "--source", victim_file, "--timeout", "60"]) == 1

    def test_sweep_accepts_deadline(self, capsys):
        assert main(["sweep", "--size", "4", "--seed", "3", "--deadline", "60"]) == 0

    def test_analyze_json_to_file(self, victim_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["analyze", "--source", victim_file, "--json", str(out)]) == 1
        assert "report written" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 2

    def test_sweep_bare_json_goes_to_stdout(self, capsys):
        assert main(["sweep", "--size", "4", "--seed", "3", "--json"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["total_contracts"] == 4
        # the human summary moved to stderr
        assert "flag rate" in captured.err

    def test_sweep_json_report_is_schema_v2_with_orchestrator(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--size", "4", "--seed", "3", "--jobs", "2",
                     "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 2
        assert payload["orchestrator"]["mode"] == "orchestrator"
        assert payload["orchestrator"]["workers"] == 2


class TestSweepOrchestration:
    def test_sweep_jobs_parallel(self, capsys):
        assert main(["sweep", "--size", "6", "--seed", "3", "--jobs", "2",
                     "--profile"]) == 0
        output = capsys.readouterr().out
        assert "orchestrator:" in output
        assert "crashes" in output

    def test_sweep_executor_serial_even_with_jobs(self, capsys):
        assert main(["sweep", "--size", "4", "--seed", "3", "--jobs", "1",
                     "--profile"]) == 0
        assert "mode                         serial" in capsys.readouterr().out

    def test_sweep_resume_flow(self, tmp_path, capsys):
        journal = tmp_path / "sweep.jsonl"
        assert main(["sweep", "--size", "5", "--seed", "3",
                     "--resume", str(journal)]) == 0
        capsys.readouterr()
        # journal now complete: the second run resumes everything
        assert main(["sweep", "--size", "5", "--seed", "3", "--jobs", "2",
                     "--resume", str(journal), "--profile"]) == 0
        output = capsys.readouterr().out
        assert "resumed                      5" in output

    def test_sweep_mp_context_spawn(self, capsys):
        assert main(["sweep", "--size", "4", "--seed", "3", "--jobs", "2",
                     "--mp-context", "spawn"]) == 0
        assert "analyzed 4 contracts" in capsys.readouterr().out
