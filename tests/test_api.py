"""The ``repro.api`` public surface: the one supported import point."""

import random
import time
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.corpus import generate_corpus
from repro.deadline import Deadline, DeadlineExceeded
from repro.decompiler import lift

# Untrusted bytecode: every input must end in a structured result within
# the analysis deadline (plus slack for a loaded host), never a crash or
# a hang.  Examples are derandomized so the suite's run time stays fixed:
# an input that hits the deadline costs the whole deadline.
UNTRUSTED_DEADLINE = 1.0
_SEED_CODES = [contract.runtime for contract in generate_corpus(6, seed=13)]


@st.composite
def _untrusted_bytecode(draw):
    kind = draw(st.sampled_from(["random", "truncated", "mutated"]))
    if kind == "random":
        return draw(st.binary(max_size=600))
    code = draw(st.sampled_from(_SEED_CODES))
    if kind == "truncated":
        return code[: draw(st.integers(0, len(code)))]
    mutated = bytearray(code)
    for _ in range(draw(st.integers(1, 8))):
        mutated[draw(st.integers(0, len(code) - 1))] = draw(st.integers(0, 255))
    return bytes(mutated)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(8, seed=7)


@pytest.fixture(scope="module")
def bytecodes(corpus):
    return [contract.runtime for contract in corpus]


class TestSurface:
    def test_all_names_resolve(self):
        for name in api.__all__:
            assert getattr(api, name) is not None, name

    def test_expected_surface(self):
        assert {
            "analyze",
            "sweep",
            "battery",
            "AnalysisConfig",
            "AnalysisResult",
            "BatchEntry",
            "BatchSummary",
            "ContractReport",
            "EthainterAnalysis",
            "FaultPlan",
            "Finding",
            "OrchestratorOptions",
            "OrchestratorStats",
            "SweepReport",
            "VULNERABILITY_KINDS",
            "Warning",
        } <= set(api.__all__)

    def test_top_level_package_exposes_api(self):
        import repro

        assert repro.api is api


class TestAnalyze:
    def test_analyze_matches_class_facade(self, bytecodes):
        direct = api.EthainterAnalysis().analyze(bytecodes[0])
        convenient = api.analyze(bytecodes[0])
        assert {w.kind for w in convenient.warnings} == {
            w.kind for w in direct.warnings
        }

    def test_analyze_honors_config(self, bytecodes):
        loose = api.analyze(bytecodes[0], api.AnalysisConfig(model_guards=False))
        strict = api.analyze(bytecodes[0])
        assert len(loose.warnings) >= len(strict.warnings)


class TestUntrustedBytecode:
    @pytest.mark.parametrize("engine", ["python", "datalog"])
    @given(code=_untrusted_bytecode())
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_ends_in_a_structured_result_in_time(self, engine, code):
        request = api.AnalyzeRequest(
            bytecode=code, engine=engine, deadline=UNTRUSTED_DEADLINE
        )
        start = time.monotonic()
        result = api.analyze(request)
        elapsed = time.monotonic() - start
        assert isinstance(result, api.AnalysisResult)
        assert result.error is None or isinstance(result.error, str)
        assert elapsed < UNTRUSTED_DEADLINE + 2.0

    def test_four_megabytes_end_at_the_deadline(self):
        """4 MB of random bytes under a 0.05 s budget: when the lifter
        decoded and split its whole input before its first check, this took
        2-3 s.  A spent budget stops the byte sweep in its first slice."""
        code = random.Random(7).randbytes(4 << 20)
        start = time.monotonic()
        result = api.analyze(code, api.AnalysisConfig(timeout_seconds=0.05))
        assert time.monotonic() - start < 0.5
        assert result.error == "timeout"
        start = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            lift(code, deadline=Deadline(1e-9, started=0.0))
        assert time.monotonic() - start < 0.05


class TestSweepAndBattery:
    def test_sweep_returns_ordered_entries(self, bytecodes):
        summary = api.sweep(bytecodes)
        assert [entry.index for entry in summary.entries] == list(
            range(len(bytecodes))
        )
        assert summary.orchestrator["mode"] == "serial"

    def test_sweep_matches_per_contract_analyze(self, bytecodes):
        summary = api.sweep(bytecodes)
        for bytecode, entry in zip(bytecodes, summary.entries):
            direct = api.analyze(bytecode)
            assert set(entry.kinds) == {w.kind for w in direct.warnings}

    def test_battery_aligns_with_configs(self, bytecodes):
        configs = [
            api.AnalysisConfig(),
            api.AnalysisConfig(model_guards=False),
        ]
        summaries = api.battery(bytecodes, configs)
        assert len(summaries) == 2
        assert summaries[1].flagged >= summaries[0].flagged

    def test_battery_requires_configs(self, bytecodes):
        with pytest.raises(ValueError):
            api.battery(bytecodes, [])

    def test_explicit_options_not_clobbered_by_defaults(self):
        from repro.api import _options

        options = api.OrchestratorOptions(mp_context="spawn", max_retries=7)
        resolved = _options(
            mp_context=None,
            max_retries=None,
            dedup=None,
            result_cache=None,
            on_event=None,
            options=options,
        )
        assert resolved.mp_context == "spawn"
        assert resolved.max_retries == 7
        # and the caller's object is copied, not mutated
        resolved.max_retries = 1
        assert options.max_retries == 7

    def test_keywords_override_options_copy(self):
        from repro.api import _options

        options = api.OrchestratorOptions(max_retries=7)
        resolved = _options(
            mp_context=None,
            max_retries=1,
            dedup=None,
            result_cache="rc",
            on_event=None,
            options=options,
        )
        assert resolved.max_retries == 1
        assert resolved.result_cache_path == "rc"
        assert options.max_retries == 7 and options.result_cache_path is None


class TestDeprecatedShims:
    """The deprecated deep-import shims are removed; nothing on the
    supported surface warns."""

    def test_supported_surface_does_not_warn(self, bytecodes):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            api.analyze(bytecodes[0])
            api.sweep(bytecodes[:2])
        assert not [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]


class TestAnalyzeRequest:
    def test_exported_and_frozen(self):
        import dataclasses

        assert "AnalyzeRequest" in api.__all__
        request = api.AnalyzeRequest(engine="datalog")
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.engine = "python"

    def test_config_matches_direct_construction(self):
        request = api.AnalyzeRequest(
            engine="datalog",
            value_analysis=True,
            deadline=30.0,
            kinds=("tainted-selfdestruct",),
            model_guards=False,
        )
        config = request.config()
        assert config == api.AnalysisConfig(
            engine="datalog",
            value_analysis=True,
            timeout_seconds=30.0,
            kinds=("tainted-selfdestruct",),
            model_guards=False,
        )

    def test_validation_is_lazy_and_loud(self):
        bad_engine = api.AnalyzeRequest(engine="nope")  # constructs fine
        with pytest.raises(ValueError, match="unknown engine"):
            bad_engine.config()
        from repro.core.vulnerabilities import UnknownKindError

        with pytest.raises(UnknownKindError):
            api.AnalyzeRequest(kinds=("not-a-kind",)).config()

    def test_runtime_from_bytecode_and_source(self, bytecodes):
        assert api.AnalyzeRequest(bytecode=bytecodes[0]).runtime() == bytecodes[0]
        source = "contract C { function f() public {} }"
        compiled = api.AnalyzeRequest(source=source).runtime()
        assert isinstance(compiled, bytes) and compiled
        with pytest.raises(ValueError, match="no contract input"):
            api.AnalyzeRequest().runtime()
        with pytest.raises(ValueError, match="not both"):
            api.AnalyzeRequest(bytecode=b"\x00", source=source).runtime()

    def test_identity_matches_sweep_identity(self, bytecodes):
        from repro.core.reuse import identity_key, sweep_fingerprint

        request = api.AnalyzeRequest(bytecode=bytecodes[0], engine="datalog")
        expected = identity_key(
            bytecodes[0], sweep_fingerprint((request.config(),))
        )
        assert request.identity() == expected

    def test_analyze_accepts_request(self, bytecodes):
        request = api.AnalyzeRequest(bytecode=bytecodes[0])
        direct = api.analyze(bytecodes[0])
        via_request = api.analyze(request)
        assert [w.kind for w in via_request.warnings] == [
            w.kind for w in direct.warnings
        ]
        with pytest.raises(ValueError, match="inside the AnalyzeRequest"):
            api.analyze(request, api.AnalysisConfig())

    def test_sweep_and_battery_accept_requests(self, bytecodes):
        request = api.AnalyzeRequest(engine="datalog")
        via_request = api.sweep(bytecodes[:3], request)
        direct = api.sweep(bytecodes[:3], api.AnalysisConfig(engine="datalog"))
        assert [e.kinds for e in via_request.entries] == [
            e.kinds for e in direct.entries
        ]
        battery = api.battery(bytecodes[:2], [request, api.AnalysisConfig()])
        assert len(battery) == 2
