"""Cross-contract analysis: bundles, call-graph linkage, merged fixpoint,
and the end-to-end exploit replay (repro.core.linkage / kill.bundle)."""

import json
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import api
from repro.core.analysis import AnalysisConfig
from repro.core.linkage import (
    ContractBundle,
    analyze_bundle,
    bundle_contract,
    bundle_from_specs,
    load_bundle_file,
    resolve_call_edges,
)
from repro.core.report import BundleReport
from repro.core.vulnerabilities import (
    CROSS_CONTRACT_ESCALATION,
    CROSS_CONTRACT_KINDS,
    PROXY_UPGRADE_HIJACK,
    VULNERABILITY_KINDS,
)
from repro.corpus import generate_corpus
from repro.corpus.bundles import (
    BUNDLE_TEMPLATES,
    DEPLOYER,
    LOGIC_ADDRESS,
    PROXY_ADDRESS,
    TREASURY_ADDRESS,
    TREASURY_BENEFICIARY_SLOT,
    VAULT_ADDRESS,
    benign_escalation_pair,
    benign_proxy_pair,
    escalation_pair,
    proxy_pair,
)
from repro.kill import BundleKill
from tests.test_serve import request, running_server

ENGINES = ["python", "datalog"]


# ----------------------------------------------------------------- bundles


class TestContractBundle:
    def test_requires_contracts(self):
        with pytest.raises(ValueError, match="at least one"):
            ContractBundle(contracts=())

    def test_rejects_duplicate_addresses(self):
        contract = bundle_contract(0x1, bytecode=b"\x00")
        with pytest.raises(ValueError, match="duplicate"):
            ContractBundle(contracts=(contract, contract))

    def test_source_compiles_eagerly(self):
        contract = bundle_contract(
            0x5, source="contract T { function f() public { } }"
        )
        assert contract.bytecode
        assert contract.runtime() == contract.bytecode

    def test_digest_covers_storage_seeds(self):
        a = bundle_contract(0x1, bytecode=b"\x00", storage={0: 1})
        b = bundle_contract(0x1, bytecode=b"\x00", storage={0: 2})
        assert (
            ContractBundle(contracts=(a,)).digest()
            != ContractBundle(contracts=(b,)).digest()
        )

    def test_lookup(self):
        contract = bundle_contract(0x7, bytecode=b"\x00")
        bundle = ContractBundle(contracts=(contract,))
        assert bundle.has(0x7) and not bundle.has(0x8)
        assert bundle.get(0x7) is contract
        with pytest.raises(KeyError):
            bundle.get(0x8)


class TestBundleFromSpecs:
    def test_round_trip(self):
        bundle = bundle_from_specs(
            [
                {
                    "address": "0x10",
                    "source": "contract T { function f() public { } }",
                    "name": "T",
                    "storage": {"0": "0x20"},
                }
            ]
        )
        assert bundle.addresses() == [0x10]
        assert bundle.get(0x10).storage_map() == {0: 0x20}

    def test_hex_bytecode(self):
        bundle = bundle_from_specs([{"address": 1, "bytecode": "0x6000ff"}])
        assert bundle.get(1).runtime() == bytes.fromhex("6000ff")

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown bundle contract field"):
            bundle_from_specs([{"address": 1, "bytecode": "00", "egnine": "x"}])

    def test_rejects_missing_input(self):
        with pytest.raises(ValueError, match="needs source or bytecode"):
            bundle_from_specs([{"address": 1}])

    def test_rejects_file_refs_without_allow_files(self):
        with pytest.raises(ValueError, match="only accepted by the CLI"):
            bundle_from_specs([{"address": 1, "hex_file": "evil.hex"}])

    def test_rejects_bad_address(self):
        with pytest.raises(ValueError, match="address"):
            bundle_from_specs([{"address": "street", "bytecode": "00"}])

    @pytest.mark.parametrize(
        "field, value",
        [
            ("storage", [1, 2]),
            ("storage", "0x1"),
            ("source", 5),
            ("name", 5),
            ("bytecode", 5),
            ("source_file", 5),
            ("hex_file", ["a.hex"]),
        ],
    )
    def test_rejects_wrong_typed_fields(self, field, value):
        spec = {"address": 1, "bytecode": "00", field: value}
        with pytest.raises(ValueError, match=field):
            bundle_from_specs([spec], allow_files=True)


# Any JSON value, for the bundle-file property.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)

# Bundle contract specs that keep a valid address and bytecode, so every
# other field, of any JSON type, is actually reached.
_SPECS = st.fixed_dictionaries(
    {"address": st.integers(1, 2**160 - 1), "bytecode": st.just("6000ff")},
    optional={
        "name": _JSON,
        "source": _JSON | st.just("contract {"),
        "storage": _JSON
        | st.dictionaries(st.text(max_size=4), _JSON, max_size=3),
        "source_file": _JSON | st.sampled_from([".", "missing.msol", "a\x00b"]),
        "hex_file": _JSON | st.sampled_from([".", "missing.hex"]),
    },
)


class TestBundleFileProperty:
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        contracts=st.lists(_SPECS, min_size=1, max_size=3) | _JSON,
        nesting=st.sampled_from([0, 0, 0, 100_000]),
    )
    def test_any_bundle_file_loads_or_is_an_error(
        self, tmp_path, contracts, nesting
    ):
        """Any JSON bundle file, wrong-typed spec fields and JSON nested
        far past the recursion limit included, gives a bundle, a
        ValueError or an OSError: never another exception."""
        path = tmp_path / "bundle.json"
        text = json.dumps({"contracts": contracts})
        if nesting:
            text = "[" * nesting + "]" * nesting
        path.write_text(text)
        try:
            bundle = load_bundle_file(path)
        except (ValueError, OSError):
            return
        assert isinstance(bundle, ContractBundle)


# -------------------------------------------------------------- call graph


class TestCallEdges:
    def test_delegatecall_resolves_through_storage_seed(self):
        out = proxy_pair()
        config = AnalysisConfig()
        results = {
            c.address: api.analyze(c.runtime(), config)
            for c in out.bundle.contracts
        }
        edges = resolve_call_edges(out.bundle, results)
        delegate = [e for e in edges if e.kind == "DELEGATECALL"]
        assert len(delegate) == 1
        edge = delegate[0]
        assert edge.caller == PROXY_ADDRESS
        assert edge.callee == LOGIC_ADDRESS
        assert edge.slot == 0

    def test_unseeded_target_stays_unresolved(self):
        contract = bundle_contract(
            0x1,
            source=(
                "contract P { address implementation;\n"
                "  function f() public { delegatecall(implementation); } }"
            ),
        )
        bundle = ContractBundle(contracts=(contract,))
        results = {0x1: api.analyze(contract.runtime(), AnalysisConfig())}
        edges = resolve_call_edges(bundle, results)
        assert len(edges) == 1
        assert edges[0].callee is None
        assert edges[0].slot == 0  # the slot itself is still identified


# ---------------------------------------------------------- merged fixpoint


class TestProxyUpgradeHijack:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_vulnerable_pair_flagged(self, engine):
        out = proxy_pair()
        result = analyze_bundle(out.bundle, AnalysisConfig(engine=engine))
        kinds = {f.kind for f in result.cross_findings}
        assert kinds == {PROXY_UPGRADE_HIJACK}
        finding = result.cross_findings[0]
        assert finding.address == PROXY_ADDRESS
        assert finding.slot == 0
        assert finding.via == LOGIC_ADDRESS

    @pytest.mark.parametrize("engine", ENGINES)
    def test_neither_contract_flagged_alone(self, engine):
        out = proxy_pair()
        config = AnalysisConfig(engine=engine)
        for contract in out.bundle.contracts:
            alone = api.analyze(contract.runtime(), config)
            assert alone.warnings == []

    @pytest.mark.parametrize("engine", ENGINES)
    def test_benign_pair_is_clean(self, engine):
        out = benign_proxy_pair()
        result = analyze_bundle(out.bundle, AnalysisConfig(engine=engine))
        assert result.cross_findings == []
        assert not result.flagged


class TestCrossContractEscalation:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_vulnerable_pair_flagged(self, engine):
        out = escalation_pair()
        result = analyze_bundle(out.bundle, AnalysisConfig(engine=engine))
        kinds = {f.kind for f in result.cross_findings}
        assert kinds == {CROSS_CONTRACT_ESCALATION}
        finding = result.cross_findings[0]
        assert finding.address == TREASURY_ADDRESS
        assert finding.slot == TREASURY_BENEFICIARY_SLOT
        assert finding.via == VAULT_ADDRESS

    @pytest.mark.parametrize("engine", ENGINES)
    def test_benign_pair_is_clean(self, engine):
        out = benign_escalation_pair()
        result = analyze_bundle(out.bundle, AnalysisConfig(engine=engine))
        assert result.cross_findings == []

    def test_neither_contract_flagged_alone(self):
        out = escalation_pair()
        for contract in out.bundle.contracts:
            alone = api.analyze(contract.runtime(), AnalysisConfig())
            assert alone.warnings == []


class TestEngineAgreement:
    def test_all_templates_agree_across_engines(self):
        for name, build in BUNDLE_TEMPLATES.items():
            out = build()
            verdicts = {}
            for engine in ENGINES:
                result = analyze_bundle(
                    out.bundle, AnalysisConfig(engine=engine)
                )
                verdicts[engine] = {f.kind for f in result.cross_findings}
            assert (
                len(set(map(frozenset, verdicts.values()))) == 1
            ), "engines disagree on %s: %r" % (name, verdicts)
            assert verdicts["datalog"] == out.labels, name


class TestSingletonBundles:
    def test_singleton_skips_merged_fixpoint(self):
        contract = bundle_contract(
            0x9, source="contract T { function f() public { } }"
        )
        result = analyze_bundle(ContractBundle(contracts=(contract,)))
        assert result.call_edges == []
        assert result.cross_findings == []
        assert result.engine_stats is None


# ----------------------------------------------------------------- kinds


class TestKindConstants:
    def test_cross_kinds_are_separate_namespace(self):
        assert PROXY_UPGRADE_HIJACK in CROSS_CONTRACT_KINDS
        assert CROSS_CONTRACT_ESCALATION in CROSS_CONTRACT_KINDS
        # Per-contract kind filters and SweepReport.kind_counts keep their
        # exact shape: cross verdicts never appear there.
        assert not set(CROSS_CONTRACT_KINDS) & set(VULNERABILITY_KINDS)


# -------------------------------------------------------------- api surface


class TestApiDispatch:
    def test_analyze_dispatches_bundle_requests(self):
        out = proxy_pair()
        request = api.AnalyzeRequest(bundle=out.bundle, engine="datalog")
        result = api.analyze(request)
        assert isinstance(result, api.BundleResult)
        assert {f.kind for f in result.cross_findings} == {PROXY_UPGRADE_HIJACK}

    def test_analyze_bundle_accepts_request(self):
        out = benign_proxy_pair()
        request = api.AnalyzeRequest(bundle=out.bundle)
        result = api.analyze_bundle(request)
        assert result.cross_findings == []

    def test_bundle_identity_differs_from_bytecode_identity(self):
        out = proxy_pair()
        request = api.AnalyzeRequest(bundle=out.bundle)
        identity = request.identity()
        assert identity.startswith("bundle:")
        assert out.bundle.digest() in identity

    def test_bundle_identity_tracks_config(self):
        out = proxy_pair()
        a = api.AnalyzeRequest(bundle=out.bundle, engine="datalog").identity()
        b = api.AnalyzeRequest(bundle=out.bundle, engine="python").identity()
        assert a != b

    def test_bundle_plus_bytecode_rejected(self):
        out = proxy_pair()
        request = api.AnalyzeRequest(bundle=out.bundle, bytecode=b"\x00")
        with pytest.raises(ValueError, match="not both"):
            api.analyze(request)

    def test_runtime_refuses_bundles(self):
        request = api.AnalyzeRequest(bundle=proxy_pair().bundle)
        with pytest.raises(ValueError, match="no single runtime"):
            request.runtime()


# ------------------------------------------------------------------ report


class TestBundleReport:
    def test_multi_contract_shape(self):
        result = analyze_bundle(proxy_pair().bundle, AnalysisConfig())
        report = BundleReport.from_result(result)
        payload = json.loads(report.to_json())
        assert payload["schema_version"] == 2
        assert payload["addresses"] == ["0x1000", "0x2000"]
        assert len(payload["contracts"]) == 2
        assert payload["call_edges"][0]["kind"] == "DELEGATECALL"
        assert payload["call_edges"][0]["callee"] == "0x2000"
        kinds = [w["kind"] for w in payload["cross_warnings"]]
        assert kinds == [PROXY_UPGRADE_HIJACK]
        assert report.flagged

    def test_round_trip(self):
        result = analyze_bundle(escalation_pair().bundle, AnalysisConfig())
        report = BundleReport.from_result(result)
        again = BundleReport.from_json(report.to_json())
        assert again.to_json() == report.to_json()


# --------------------------------------------------------------- serve codec


class TestServeCodec:
    def test_decode_request_builds_bundle(self):
        from repro.serve.codecs import decode_request

        request = decode_request(
            {
                "bundle": [
                    {"address": "0x1", "bytecode": "6000ff"},
                ]
            },
            api.AnalyzeRequest(),
        )
        assert request.bundle is not None
        assert request.bundle.get(1).runtime() == bytes.fromhex("6000ff")

    def test_decode_request_rejects_file_refs(self):
        from repro.serve.codecs import BadRequest, decode_request

        with pytest.raises(BadRequest, match="bad bundle"):
            decode_request(
                {"bundle": [{"address": 1, "hex_file": "/etc/passwd"}]},
                api.AnalyzeRequest(),
            )


# --------------------------------------------------------------------- CLI


class TestCliBundle:
    def test_analyze_bundle_flag(self, tmp_path, capsys):
        from repro.cli import main

        out = proxy_pair()
        specs = []
        for contract in out.bundle.contracts:
            specs.append(
                {
                    "address": "0x%x" % contract.address,
                    "name": contract.name,
                    "bytecode": contract.runtime().hex(),
                    "storage": {
                        str(slot): "0x%x" % value
                        for slot, value in contract.storage
                    },
                }
            )
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps({"contracts": specs}))
        code = main(["analyze", "--bundle", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "proxy-upgrade-hijack" in captured.out

        code = main(["analyze", "--bundle", str(path), "--json", "-"])
        captured = capsys.readouterr()
        assert code == 1
        payload = json.loads(captured.out)
        assert [w["kind"] for w in payload["cross_warnings"]] == [
            PROXY_UPGRADE_HIJACK
        ]

    @pytest.mark.parametrize(
        "text",
        [
            json.dumps({"contracts": [{"address": 1, "source_file": 5}]}),
            json.dumps({"contracts": [{"address": 1, "bytecode": "00",
                                       "storage": [1, 2]}]}),
            "[" * 100_000 + "]" * 100_000,
        ],
    )
    def test_bad_bundle_file_is_an_error_not_a_traceback(self, tmp_path, text):
        from repro.cli import main

        path = tmp_path / "bundle.json"
        path.write_text(text)
        with pytest.raises(SystemExit, match="bad bundle file"):
            main(["analyze", "--bundle", str(path)])

    def test_bundle_conflicts_with_source(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "bundle.json"
        path.write_text(json.dumps({"contracts": [{"address": 1, "bytecode": "00"}]}))
        with pytest.raises(SystemExit, match="replaces"):
            main(["analyze", "--bundle", str(path), "--hex", "whatever.hex"])


# ---------------------------------------------------------------- deadline


def _bundle_specs(bundle):
    """``bundle`` as the JSON contract specs a bundle file or request holds."""
    return [
        {
            "address": "0x%x" % contract.address,
            "name": contract.name,
            "bytecode": contract.runtime().hex(),
            "storage": {str(slot): "0x%x" % value for slot, value in contract.storage},
        }
        for contract in bundle.contracts
    ]


class TestBundleDeadline:
    """One budget covers a bundle's members and its merged pass, and a
    bundle that runs out of it reports ``error="timeout"``."""

    def test_large_bundle_ends_near_its_budget(self):
        """The 64 largest seed-7 corpus contracts as one bundle under 0.5 s:
        when each member got a fresh budget and the merged fixpoint none,
        it ran 2.7-3.4 s and ended with no error."""
        codes = sorted(
            (contract.runtime for contract in generate_corpus(300, seed=7)),
            key=len,
            reverse=True,
        )[:64]
        bundle = ContractBundle(
            contracts=tuple(
                bundle_contract(0x1000 + index, bytecode=code)
                for index, code in enumerate(codes)
            )
        )
        started = time.monotonic()
        result = analyze_bundle(bundle, AnalysisConfig(timeout_seconds=0.5))
        assert time.monotonic() - started < 1.0
        assert result.error == "timeout" and result.deadline_exceeded
        assert result.cross_findings == [] and result.engine_stats is None

    def test_timeout_through_the_api(self):
        out = proxy_pair()
        result = api.analyze_bundle(out.bundle, AnalysisConfig(timeout_seconds=1e-9))
        assert result.error == "timeout" and result.deadline_exceeded
        assert result.cross_findings == []
        payload = json.loads(BundleReport.from_result(result).to_json())
        assert payload["error"] == "timeout" and payload["deadline_exceeded"]
        assert payload["cross_warnings"] == []

    def test_timeout_through_the_cli(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bundle.json"
        path.write_text(json.dumps({"contracts": _bundle_specs(proxy_pair().bundle)}))
        code = main(["analyze", "--bundle", str(path), "--deadline", "1e-9"])
        captured = capsys.readouterr()
        assert code == 2
        assert "analysis error: timeout" in captured.out
        assert "no cross-contract vulnerabilities found" not in captured.out

    def test_timeout_through_post_analyze(self):
        payload = {"bundle": _bundle_specs(proxy_pair().bundle), "deadline": 1e-9}
        with running_server() as (_server, port):
            status, body = request(port, "POST", "/analyze", payload)
        assert status == 200
        report = json.loads(body)
        assert report["error"] == "timeout" and report["cross_warnings"] == []


# ------------------------------------------------------------- kill replay


class TestBundleKill:
    def test_proxy_hijack_destroys_vulnerable_proxy(self):
        out = proxy_pair()
        outcome = BundleKill().hijack_proxy(
            out.bundle, PROXY_ADDRESS, "execute(address)"
        )
        assert outcome.success
        assert outcome.transactions == 2

    def test_benign_proxy_survives(self):
        out = benign_proxy_pair()
        outcome = BundleKill().hijack_proxy(
            out.bundle, PROXY_ADDRESS, "execute(address)"
        )
        assert not outcome.success

    def test_escalation_rewrites_guarded_slot(self):
        out = escalation_pair()
        outcome = BundleKill().escalate(
            out.bundle,
            VAULT_ADDRESS,
            TREASURY_ADDRESS,
            "route(address)",
            TREASURY_BENEFICIARY_SLOT,
        )
        assert outcome.success

    def test_benign_escalation_blocked(self):
        out = benign_escalation_pair()
        outcome = BundleKill().escalate(
            out.bundle,
            VAULT_ADDRESS,
            TREASURY_ADDRESS,
            "route(address)",
            TREASURY_BENEFICIARY_SLOT,
        )
        assert not outcome.success

    def test_verdict_matches_replay_for_all_templates(self):
        # The analysis verdict and the concrete replay agree on every
        # bundle template: flagged <=> exploitable.
        for name, build in BUNDLE_TEMPLATES.items():
            out = build()
            result = analyze_bundle(out.bundle, AnalysisConfig())
            flagged = bool(result.cross_findings)
            if "proxy" in name:
                outcome = BundleKill().hijack_proxy(
                    out.bundle, PROXY_ADDRESS, "execute(address)"
                )
            else:
                outcome = BundleKill().escalate(
                    out.bundle,
                    VAULT_ADDRESS,
                    TREASURY_ADDRESS,
                    "route(address)",
                    TREASURY_BENEFICIARY_SLOT,
                )
            assert flagged == outcome.success, name
