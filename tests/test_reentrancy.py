"""The reentrancy stratum: ordering facts, detector verdicts, engine
equivalence, mutex edge cases, the composite guard-bypass chain, the
``kinds`` filter, and the end-to-end drain (with its CEI negative
control)."""

import random

import pytest

from repro.chain import Blockchain
from repro.core.abstract_analysis import analyze_abstract
from repro.core.analysis import AnalysisConfig, EthainterAnalysis
from repro.core.datalog_rules import analyze_with_datalog as abstract_datalog
from repro.core.lang import parse_abstract
from repro.core.vulnerabilities import (
    REENTRANT_CALL,
    STATE_WRITE_AFTER_CALL,
    TAINTED_OWNER,
    VULNERABILITY_KINDS,
    UnknownKindError,
    validate_kinds,
)
from repro.corpus import REENTRANCY_TEMPLATES
from repro.evm.assembler import init_code_for
from repro.evm.hashing import function_selector
from repro.kill import ReentrancyKill
from repro.minisol import compile_source

ENGINES = ("python", "datalog")
REENTRANCY_KINDS = {REENTRANT_CALL, STATE_WRITE_AFTER_CALL}


def analyze(source, engine="python", **config_kwargs):
    contract = compile_source(source)
    config = AnalysisConfig(engine=engine, **config_kwargs)
    return contract, EthainterAnalysis(config).analyze(contract.runtime)


def reentrancy_warnings(result):
    return sorted(
        (w.kind, w.statement) for w in result.warnings if w.kind in REENTRANCY_KINDS
    )


VULNERABLE_VAULT = """
contract Vault {
    mapping(address => uint256) deposits;

    function deposit() public {
        deposits[msg.sender] += msg.value;
    }
    function withdraw(uint256 amount) public {
        require(deposits[msg.sender] >= amount);
        transfer(msg.sender, amount);
        deposits[msg.sender] -= amount;
    }
}
"""

CEI_VAULT = """
contract SafeVault {
    mapping(address => uint256) deposits;

    function deposit() public {
        deposits[msg.sender] += msg.value;
    }
    function withdraw(uint256 amount) public {
        require(deposits[msg.sender] >= amount);
        deposits[msg.sender] -= amount;
        transfer(msg.sender, amount);
    }
}
"""


class TestDetector:
    def test_dao_pattern_flagged(self):
        _contract, result = analyze(VULNERABLE_VAULT)
        kinds = {w.kind for w in result.warnings}
        assert REENTRANT_CALL in kinds
        assert STATE_WRITE_AFTER_CALL not in kinds  # never double-reported

    def test_cei_order_clean(self):
        _contract, result = analyze(CEI_VAULT)
        assert reentrancy_warnings(result) == []

    def test_write_after_call_without_stale_check(self):
        source = """
contract Payout {
    uint256 paidOut;

    function pay(address to, uint256 amount) public {
        transfer(to, amount);
        paidOut += amount;
    }
}
"""
        _contract, result = analyze(source)
        kinds = {w.kind for w in result.warnings}
        assert STATE_WRITE_AFTER_CALL in kinds
        assert REENTRANT_CALL not in kinds  # paidOut is never read before

    def test_staticcall_never_reentrant(self):
        """Regression: STATICCALL cannot re-enter (no state, no value) and
        must never be flagged, even with the full check/write sandwich."""
        source = """
contract Probe {
    mapping(address => uint256) deposits;
    uint256 cache;

    function deposit() public {
        deposits[msg.sender] += msg.value;
    }
    function refresh(address feed, uint256 amount) public {
        require(deposits[msg.sender] >= amount);
        cache = staticcall_unchecked(feed);
        deposits[msg.sender] -= amount;
    }
}
"""
        _contract, result = analyze(source)
        assert reentrancy_warnings(result) == []
        static_sites = [
            site
            for site in result.ordering.call_sites.values()
            if site.call.kind == "STATICCALL"
        ]
        assert static_sites, "the lifted bytecode must contain the STATICCALL"
        assert all(not site.reentrancy_capable for site in static_sites)


class TestMutexEdgeCases:
    MUTEX_BODY = """
contract Guarded {
    mapping(address => uint256) deposits;
    uint256 locked;
    uint256 other;

    function deposit() public {
        deposits[msg.sender] += msg.value;
    }
    function withdraw(uint256 amount) public {
        require(%(check)s == 0);
        %(set)s = 1;
        require(deposits[msg.sender] >= amount);
        transfer(msg.sender, amount);
        deposits[msg.sender] -= amount;%(clear)s
    }
}
"""

    def _result(self, check, set_, clear):
        clear_stmt = "\n        %s = 0;" % clear if clear else ""
        source = self.MUTEX_BODY % {"check": check, "set": set_, "clear": clear_stmt}
        return analyze(source)[1]

    def test_proper_mutex_clean(self):
        result = self._result("locked", "locked", "locked")
        assert reentrancy_warnings(result) == []
        assert any(site.mutex_guarded for site in result.ordering.call_sites.values())

    def test_mutex_never_cleared_still_protects(self):
        """A set-and-forget lock bricks withdraw after one use, but the
        re-entered call still bounces off it: no warning."""
        result = self._result("locked", "locked", clear=None)
        assert reentrancy_warnings(result) == []
        site = next(
            s for s in result.ordering.call_sites.values() if s.mutex_guarded
        )
        assert not site.mutex_cleared

    def test_mutex_on_wrong_slot_flagged(self):
        """Checking one flag but setting another is no mutex at all."""
        result = self._result("other", "locked", "locked")
        kinds = {w.kind for w in result.warnings}
        assert REENTRANT_CALL in kinds


class TestCompositeEscalation:
    def test_tainted_owner_opens_guarded_withdraw(self):
        """The composite chain: the withdraw is owner-guarded, but the
        owner slot itself is attacker-writable, so the guard does not
        sanitize and the reentrant call stays reachable."""
        output = REENTRANCY_TEMPLATES["composite_reentrancy"](random.Random(7))
        contract = compile_source(output.source, output.contract_name)
        result = EthainterAnalysis().analyze(contract.runtime)
        kinds = {w.kind for w in result.warnings}
        assert REENTRANT_CALL in kinds
        assert TAINTED_OWNER in kinds
        assert kinds >= output.labels


class TestEngineEquivalence:
    @pytest.mark.parametrize("template", sorted(REENTRANCY_TEMPLATES))
    def test_all_engines_agree_and_match_labels(self, template):
        output = REENTRANCY_TEMPLATES[template](random.Random(3))
        contract = compile_source(output.source, output.contract_name)
        verdicts = {}
        for engine in ENGINES:
            result = EthainterAnalysis(AnalysisConfig(engine=engine)).analyze(
                contract.runtime
            )
            verdicts[engine] = sorted(
                (w.kind, w.statement, w.slot) for w in result.warnings
            )
            assert {w.kind for w in result.warnings} == output.labels, (
                template,
                engine,
            )
        # The Python fixpoint and the Datalog rules agree on every (kind,
        # slot) verdict (statement attribution of taint warnings is an
        # engine presentation detail).
        by_kind_slot = {
            engine: sorted((kind, slot) for kind, _stmt, slot in rows)
            for engine, rows in verdicts.items()
        }
        assert len(set(map(tuple, by_kind_slot.values()))) == 1, by_kind_slot


class TestKindsFilter:
    def test_validate_kinds_roundtrip(self):
        assert validate_kinds(None) is None
        assert validate_kinds([REENTRANT_CALL, REENTRANT_CALL]) == (REENTRANT_CALL,)
        assert validate_kinds(VULNERABILITY_KINDS) == tuple(sorted(VULNERABILITY_KINDS))

    def test_unknown_kind_names_the_valid_set(self):
        with pytest.raises(UnknownKindError) as excinfo:
            validate_kinds(["bogus-kind"])
        assert excinfo.value.kind == "bogus-kind"
        for kind in VULNERABILITY_KINDS:
            assert kind in str(excinfo.value)

    def test_filter_restricts_warnings(self):
        _contract, unfiltered = analyze(VULNERABLE_VAULT)
        assert {w.kind for w in unfiltered.warnings} == {REENTRANT_CALL}
        _contract, filtered = analyze(
            VULNERABLE_VAULT, kinds=(STATE_WRITE_AFTER_CALL,)
        )
        assert filtered.warnings == []

    def test_analysis_rejects_unknown_kind_upfront(self):
        contract = compile_source(VULNERABLE_VAULT)
        config = AnalysisConfig(kinds=("no-such-kind",))
        with pytest.raises(UnknownKindError):
            EthainterAnalysis(config).analyze(contract.runtime)


class TestAbstractModel:
    # SSTORE f t stores value f at address t: every store below targets
    # slot 1, the same slot the preceding SLOAD checks.
    REENTRANT = """
s = CONST 0x1
v = CONST 0x2a
SLOAD s x
CALL c
SSTORE v s
"""
    CEI = """
s = CONST 0x1
v = CONST 0x2a
SLOAD s x
SSTORE v s
CALL c
"""
    STATIC = """
s = CONST 0x1
v = CONST 0x2a
SLOAD s x
STATICCALL c
SSTORE v s
"""

    @pytest.mark.parametrize(
        "text,reentrant,write_after",
        [(REENTRANT, {"c"}, set()), (CEI, set(), set()), (STATIC, set(), set())],
    )
    def test_fixpoint_and_datalog_agree(self, text, reentrant, write_after):
        program = parse_abstract(text)
        direct = analyze_abstract(program)
        datalog = abstract_datalog(program)
        assert direct.reentrant_calls == datalog.reentrant_calls == reentrant
        assert (
            direct.state_write_after_call
            == datalog.state_write_after_call
            == write_after
        )

    def test_write_after_call_without_read(self):
        program = parse_abstract(
            """
s = CONST 0x1
v = CONST 0x2a
CALL c
SSTORE v s
"""
        )
        for result in (analyze_abstract(program), abstract_datalog(program)):
            assert result.reentrant_calls == set()
            assert result.state_write_after_call == {"c"}


class TestKill:
    def _deploy(self, chain, source, user, funding):
        contract = compile_source(source)
        victim = chain.deploy(user, init_code_for(contract.runtime)).contract_address
        chain.transact(user, victim, contract.calldata("deposit"), value=funding)
        return contract, victim

    def test_drains_vulnerable_vault(self):
        chain = Blockchain()
        user = 0x5AFE
        chain.fund(user, 10**20)
        contract, victim = self._deploy(chain, VULNERABLE_VAULT, user, 5 * 10**18)
        result = EthainterAnalysis().analyze(contract.runtime)
        outcome = ReentrancyKill(chain).attack(victim, result)
        assert outcome.attempted
        assert outcome.drained
        assert chain.state.get_balance(victim) == 0
        assert outcome.attacker_profit == 5 * 10**18

    def test_cei_vault_survives_forced_replay(self):
        """Negative control: the planner never fires (not flagged), and
        even the forced replay of the exact exploit yields no profit."""
        chain = Blockchain()
        user = 0x5AFE
        chain.fund(user, 10**20)
        contract, victim = self._deploy(chain, CEI_VAULT, user, 5 * 10**18)
        result = EthainterAnalysis().analyze(contract.runtime)
        kill = ReentrancyKill(chain)
        outcome = kill.attack(victim, result)
        assert not outcome.attempted
        forced = kill.replay(
            victim,
            deposit_selector=function_selector("deposit()"),
            withdraw_selector=function_selector("withdraw(uint256)"),
        )
        assert forced.attempted
        assert not forced.drained
        assert forced.attacker_profit == 0
        assert chain.state.get_balance(victim) == 5 * 10**18

    def test_cross_function_template_drains(self):
        output = REENTRANCY_TEMPLATES["cross_function_reentrancy"](random.Random(5))
        contract = compile_source(output.source, output.contract_name)
        chain = Blockchain()
        user = 0x5AFE
        chain.fund(user, 10**20)
        victim = chain.deploy(user, init_code_for(contract.runtime)).contract_address
        chain.transact(user, victim, contract.calldata("deposit"), value=5 * 10**18)
        result = EthainterAnalysis().analyze(contract.runtime)
        outcome = ReentrancyKill(chain).attack(victim, result)
        assert outcome.drained
        assert chain.state.get_balance(victim) == 0
