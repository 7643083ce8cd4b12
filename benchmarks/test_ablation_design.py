"""Ablations for this reproduction's own design choices (DESIGN.md).

Two decisions beyond the paper's Figure 8 knobs deserve measurement:

1. **Context-sensitive decompilation** (the Gigahorse insight the paper
   leans on, §1/§5): cloning blocks per constant-stack context resolves the
   push-return-address calling convention.  Collapsing clones (the
   context-INsensitive configuration) leaves return jumps unresolved, which
   cascades into the analysis.
2. **Declarative vs. imperative fixpoint**: the paper runs Datalog compiled
   to C++ by Soufflé; we keep a declarative rule set
   (`repro.core.bytecode_datalog`) cross-checked against a hand-written
   Python fixpoint and measure the interpretation overhead that motivates
   exactly the Soufflé-style compilation the paper uses.
"""

import statistics
import time

from benchmarks.conftest import print_table
from repro.core.bytecode_datalog import analyze_with_datalog
from repro.core.facts import extract_facts
from repro.core.guards import build_guard_model
from repro.core.storage_model import build_storage_model
from repro.core.taint import TaintAnalysis
from repro.decompiler import lift
from repro.minisol import compile_source

WARM_REPEATS = 21  # timed calls per engine in the fixpoint comparison

INTERNAL_CALL_HEAVY = """
contract Heavy {
    uint256 acc;
    function h(uint256 x) internal returns (uint256) { return x + 1; }
    function g(uint256 x) internal returns (uint256) { return h(x) + h(x + 1); }
    function a() public returns (uint256) { return g(1); }
    function b() public returns (uint256) { return g(2) + h(9); }
    function c() public returns (uint256) { return g(3); }
}
"""


def test_context_sensitivity_resolves_returns(benchmark, corpus):
    runtime = compile_source(INTERNAL_CALL_HEAVY).runtime

    def both():
        sensitive = lift(runtime)
        collapsed = lift(runtime, max_clones=1)
        return sensitive, collapsed

    sensitive, collapsed = benchmark.pedantic(both, rounds=1, iterations=1)

    corpus_unresolved_sensitive = 0
    corpus_unresolved_collapsed = 0
    for contract in corpus[:80]:
        corpus_unresolved_sensitive += len(lift(contract.runtime).unresolved_jumps)
        corpus_unresolved_collapsed += len(
            lift(contract.runtime, max_clones=1).unresolved_jumps
        )

    print_table(
        "decompiler context sensitivity",
        ["configuration", "unresolved jumps (Heavy)", "unresolved (80-contract corpus)", "blocks (Heavy)"],
        [
            (
                "context-sensitive (default)",
                len(sensitive.unresolved_jumps),
                corpus_unresolved_sensitive,
                len(sensitive.blocks),
            ),
            (
                "collapsed clones",
                len(collapsed.unresolved_jumps),
                corpus_unresolved_collapsed,
                len(collapsed.blocks),
            ),
        ],
    )

    assert sensitive.unresolved_jumps == []
    assert corpus_unresolved_sensitive == 0
    # Without context cloning, shared-callee return jumps become symbolic.
    assert len(collapsed.unresolved_jumps) > 0


def _warm_median_seconds(call) -> float:
    """Median ``perf_counter`` seconds of ``WARM_REPEATS`` calls of
    ``call``, after one untimed call that pays first-call costs."""
    call()
    samples = []
    for _ in range(WARM_REPEATS):
        started = time.perf_counter()
        call()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def test_declarative_vs_imperative_fixpoint(benchmark, corpus):
    contract = next(c for c in corpus if c.template == "composite_victim")
    facts = extract_facts(lift(contract.runtime))
    storage = build_storage_model(facts)
    guards = build_guard_model(facts, storage)

    def imperative():
        return TaintAnalysis(facts, storage, guards).run()

    def declarative():
        return analyze_with_datalog(facts=facts, storage=storage, guards=guards)

    python_result = imperative()
    datalog_result = benchmark(declarative)
    python_time = _warm_median_seconds(imperative)
    datalog_time = _warm_median_seconds(declarative)

    print_table(
        "fixpoint engines on the composite Victim",
        ["engine", "median seconds (warm)", "tainted slots", "compromised guards"],
        [
            (
                "python fixpoint",
                "%.4f" % python_time,
                len(python_result.tainted_slots),
                len(python_result.compromised_guards),
            ),
            (
                "datalog engine",
                "%.4f" % datalog_time,
                len(datalog_result.tainted_slots),
                len(datalog_result.compromised_guards),
            ),
        ],
    )

    # Same answers, whatever the engine.
    assert python_result.tainted_slots == datalog_result.tainted_slots
    assert python_result.compromised_guards == datalog_result.compromised_guards
    assert python_result.reachable == datalog_result.reachable
