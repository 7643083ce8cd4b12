"""The measuring process of the end-to-end benchmark.

    python3 e2ebench/measure.py --workload analyze-python --seconds 30 \\
        --trace 0 < inputs.json

``run.py`` starts it with the output of ``inputs.py`` on stdin, so this
process sees only bytecodes and the verdicts their templates expect.  It
prints one JSON object: the attempted and failed operation counts and the
metrics, each with its host-normalized value, its raw value and its unit.

Every time is scaled by the host reference (``hostref.py``).  The analyze
loops run reference slices between calls; ``api.sweep`` runs with a
sampler thread.  See ``METHOD.json`` for the method and what each metric
should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from multiprocessing.reduction import ForkingPickler
from typing import Dict, List, Optional, Sequence

from hostref import HostReference, Sampler
from tracing import Tracer, recorder_cost_ns

HERE = os.path.dirname(os.path.abspath(__file__))

ENGINES = {
    "analyze-python": "python",
    "analyze-datalog": "datalog",
    "sweep-mainnet": "python",
}
WARMUP_CALLS = 10  # untimed calls that finish lazy set-up (rule plans, caches)
# Share of time the analyze loops spend on reference slices between calls:
# one ~150 us slice per default-engine call, several per Datalog call.
REFERENCE_DUTY = 0.045

E2E_UNITS = {
    "contracts_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "lift.busy_ms": "ms",
    "lift.blocks": "count",
    "lift.statements": "count",
    "lift.clone_ratio": "ratio",
    "facts.busy_ms": "ms",
    "storage.busy_ms": "ms",
    "guards.busy_ms": "ms",
    "ordering.busy_ms": "ms",
    "taint.python.busy_ms": "ms",
    "taint.datalog.busy_ms": "ms",
    "taint.datalog.iterations": "count",
    "taint.datalog.derived_facts": "count",
    "taint.datalog.matches": "count",
    "taint.datalog.derivation_yield": "ratio",
    "taint.datalog.join_probes": "count",
    "taint.datalog.index_builds": "count",
    "detect.busy_ms": "ms",
    "detect.warnings": "count",
    "pipeline.overhead_ms": "ms",
    "sweep.supervisor_cpu_ms": "ms",
    "sweep.worker_cpu_ms": "ms",
    "sweep.first_result_ms": "ms",
    "sweep.dispatch_ratio": "ratio",
    "sweep.ipc_batches": "count",
    "sweep.recycles": "count",
    "sweep.dedup_hits": "count",
    "sweep.reply_bytes": "bytes",
    "setup.import_s": "s",
    "setup.first_call_s": "s",
    "host.ref_us": "us",
    "host.raw_contracts_per_s": "1/s",
    "trace.overhead": "ratio",
}
UNITS = dict(E2E_UNITS, **LAYER_UNITS)
# The stage spans of the traced run, in pipeline order, before the taint
# engines.
FRONT_STAGES = ("lift", "facts", "storage", "guards", "ordering")
TAINT_ENGINES = ("python", "datalog")
DATALOG_COUNTERS = ("iterations", "derived_facts", "matches", "join_probes", "index_builds")


def load_method() -> dict:
    with open(os.path.join(HERE, "METHOD.json")) as handle:
        return json.load(handle)


def new_reference(method: dict) -> HostReference:
    ref = method["host_reference"]
    return HostReference(ref["ref_nominal_us"], ref["window_s"], ref["exponent"])


def worker_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: ``n * (1 - fraction)`` samples lie above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def metric(name: str, value: float, raw: Optional[float] = None) -> dict:
    """One figure: its normalized value, its raw value if it has one, and
    the unit the tables above give it."""
    entry = {"value": value, "unit": UNITS[name]}
    if raw is not None:
        entry["raw"] = raw
    return entry


class Tally:
    """Operations attempted and failed.  A failure is an error, a timeout
    or a verdict that differs from the template's ground truth."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.examples: List[str] = []

    def check(self, what: str, kinds, error: Optional[str], expected) -> None:
        self.attempted += 1
        if error is None and frozenset(kinds) == expected:
            return
        self.failed += 1
        if len(self.examples) < 5:
            self.examples.append(
                "%s: got %s error=%s, expected %s"
                % (what, sorted(kinds), error, sorted(expected))
            )

    def crashed(self, what: str, error: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.examples) < 5:
            self.examples.append("%s: %s: %s" % (what, type(error).__name__, error))


def peak_rss_mb(children: bool) -> float:
    """Peak RSS so far.  The loops read it after their first pass over the
    workload, which already reaches the program's peak, so the harness's
    own records, which grow with the number of calls a host completes,
    stay out of it."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def cpu_ns(who: int) -> int:
    usage = resource.getrusage(who)
    return int((usage.ru_utime + usage.ru_stime) * 1e9)


# ------------------------------------------------------------ analyze loops


def analyze_once(api, request, expected, tally: Tally, what: str):
    """One checked ``api.analyze`` call; returns its verdict (None if it
    raised)."""
    try:
        result = api.analyze(request)
    except Exception as error:  # counted as a failed operation
        tally.crashed(what, error)
        return None
    kinds = frozenset(warning.kind for warning in result.warnings)
    tally.check(what, kinds, result.error, expected)
    return kinds


def analyze_loop(inputs, engine: str, seconds: float, reference: HostReference, tally: Tally) -> Dict:
    """A closed loop with one caller: ``api.analyze`` over every unique
    contract, round after round, with reference slices between calls.

    Rounds run whole, until ``seconds`` have passed at a round's end, so
    every contract has as many repetitions as the others: a collector
    pause that lands in one repetition then drops out of the median once
    there are three."""
    from repro import api

    requests = [api.AnalyzeRequest(bytecode=code, engine=engine) for code in inputs.bytecodes]
    for request in requests[:WARMUP_CALLS]:
        api.analyze(request)
    calls = []
    last = 0.0
    deadline = time.perf_counter() + seconds
    peak = None
    while peak is None or time.perf_counter() < deadline:
        for index, request in enumerate(requests):
            reference.take_for(REFERENCE_DUTY * last)
            start = time.perf_counter()
            analyze_once(api, request, inputs.expected[index], tally, "contract %d" % index)
            end = time.perf_counter()
            calls.append((index, start, end))
            last = end - start
        if peak is None:
            peak = peak_rss_mb(children=False)
    reference.take_for(REFERENCE_DUTY * last)

    raw: List[List[float]] = [[] for _ in requests]
    normalized: List[List[float]] = [[] for _ in requests]
    for index, start, end in calls:
        raw[index].append(end - start)
        normalized[index].append((end - start) * reference.scale(start, end))
    metrics = {}
    for label, samples in (("value", normalized), ("raw", raw)):
        # Each contract's median over its repetitions; throughput is one
        # pass over the population at those medians.
        medians = [statistics.median(times) for times in samples]
        metrics.setdefault("contracts_per_s", {})[label] = len(medians) / sum(medians)
        metrics.setdefault("latency_p50_ms", {})[label] = percentile(medians, 0.50) * 1e3
        metrics.setdefault("latency_p95_ms", {})[label] = percentile(medians, 0.95) * 1e3
    result = {
        name: metric(name, values["value"], values["raw"]) for name, values in metrics.items()
    }
    result["peak_rss_mb"] = metric("peak_rss_mb", peak)
    return result


# ------------------------------------------------------------------- sweep


class SweepCall:
    """One ``api.sweep`` over the shard, with what the harness saw of it.

    Only figures are kept, not the summary, so the measuring process's
    peak RSS does not grow with the number of calls."""

    def __init__(self, api, inputs, engine: str, reference: HostReference, tally: Tally):
        events: Dict[int, float] = {}

        def on_event(event: Dict) -> None:
            if event["event"] == "task_done":
                events.setdefault(event["index"], time.perf_counter())

        request = api.AnalyzeRequest(engine=engine)
        self_before = cpu_ns(resource.RUSAGE_SELF)
        children_before = cpu_ns(resource.RUSAGE_CHILDREN)
        with Sampler(reference) as sampler:
            self.start = time.perf_counter()
            summary = api.sweep(
                inputs.submissions, request, jobs=worker_count(), on_event=on_event
            )
            self.end = time.perf_counter()
        self.supervisor_cpu_ns = cpu_ns(resource.RUSAGE_SELF) - self_before - sampler.cpu_ns
        self.worker_cpu_ns = cpu_ns(resource.RUSAGE_CHILDREN) - children_before
        self.scale = reference.scale(self.start, self.end)
        self.raw_seconds = self.end - self.start
        self.first_result = (min(events.values()) if events else self.end) - self.start
        self.counters = summary.orchestrator

        entries = {entry.index: entry for entry in summary.entries}
        replies = []
        for submission, unique in enumerate(inputs.shard):
            entry = entries.get(submission)
            if entry is None:
                tally.crashed("submission %d" % submission, LookupError("no entry"))
                continue
            tally.check(
                "submission %d" % submission, entry.kinds, entry.error, inputs.expected[unique]
            )
            if inputs.representative[submission] == submission:
                replies.append(len(ForkingPickler.dumps(("done", 0, submission, 0, (entry,)))))
        self.reply_bytes = statistics.mean(replies)
        # Time to verdict of each distinct contract: until the supervisor's
        # task_done event for its representative (its first submission),
        # from which the duplicates are fanned out.
        self.time_to_verdict = [
            events.get(submission, self.end) - self.start
            for submission in inputs.representatives
        ]


def sweep_loop(inputs, seconds: float, reference: HostReference, tally: Tally) -> Dict:
    """A closed loop of ``api.sweep(shard, jobs=nproc)`` with the default
    orchestrator, sampled by one low-duty reference thread."""
    from repro import api

    api.sweep(inputs.submissions[: 4 * WARMUP_CALLS], jobs=worker_count())
    calls: List[SweepCall] = []
    deadline = time.perf_counter() + seconds
    engine = ENGINES["sweep-mainnet"]
    calls.append(SweepCall(api, inputs, engine, reference, tally))
    peak = peak_rss_mb(children=True)
    while time.perf_counter() < deadline:
        calls.append(SweepCall(api, inputs, engine, reference, tally))
    submissions = len(inputs.submissions)
    result = {
        "contracts_per_s": metric(
            "contracts_per_s",
            submissions / statistics.median(call.raw_seconds * call.scale for call in calls),
            submissions / statistics.median(call.raw_seconds for call in calls),
        ),
        "peak_rss_mb": metric("peak_rss_mb", peak),
    }
    # Each shard's percentile over its distinct contracts, then the median
    # over the run's shards, so one shard that a burst slowed moves neither.
    for name, fraction in (("latency_p50_ms", 0.50), ("latency_p95_ms", 0.95)):
        result[name] = metric(
            name,
            statistics.median(
                percentile(call.time_to_verdict, fraction) * call.scale for call in calls
            ) * 1e3,
            statistics.median(percentile(call.time_to_verdict, fraction) for call in calls) * 1e3,
        )
    return result


# -------------------------------------------------------------- traced run


def _taint_python(facts, storage, guards, ordering, code):
    from repro.core.taint import TaintAnalysis, TaintOptions

    return TaintAnalysis(facts, storage, guards, TaintOptions()).run()


def _taint_datalog(facts, storage, guards, ordering, code):
    from repro.core.bytecode_datalog import analyze_with_datalog
    from repro.core.taint import TaintOptions

    # The "datalog" engine: compiled join plans, row storage.
    return analyze_with_datalog(
        runtime_bytecode=code,
        facts=facts,
        storage=storage,
        guards=guards,
        ordering=ordering,
        options=TaintOptions(),
        use_plans=True,
        columnar=False,
    )


TAINT_RUNNERS = {"python": _taint_python, "datalog": _taint_datalog}


def staged(tracer: Tracer, code: bytes, engine: str):
    """The pipeline's public stage calls, one span each, in pipeline order.

    ``engine``'s taint and detect run right after the front stages, as in
    ``api.analyze``; the other taint engine and its detect follow, so each
    taint layer has a figure on every workload.  Returns the lifted
    program, each engine's verdict and warning count, and the Datalog
    engine's counters."""
    from repro.core.facts import extract_facts
    from repro.core.guards import build_guard_model
    from repro.core.ordering import build_call_order_model
    from repro.core.storage_model import build_storage_model
    from repro.core.vulnerabilities import detect
    from repro.decompiler import lift

    program = tracer.call("lift", lift, code)
    facts = tracer.call("facts", extract_facts, program)
    storage = tracer.call("storage", build_storage_model, facts)
    guards = tracer.call("guards", build_guard_model, facts, storage)
    ordering = tracer.call("ordering", build_call_order_model, facts, storage, guards)
    verdicts = {}
    warnings = {}
    datalog_stats = {}
    for name in sorted(TAINT_ENGINES, key=lambda name: name != engine):
        taint = tracer.call(
            "taint." + name, TAINT_RUNNERS[name], facts, storage, guards, ordering, code
        )
        findings = tracer.call("detect", detect, facts, storage, guards, taint, ordering=ordering)
        verdicts[name] = frozenset(finding.kind for finding in findings)
        warnings[name] = len(findings)
        if name == "datalog":
            datalog_stats = taint.engine_stats
    return program, verdicts, warnings, datalog_stats


def staged_pass(api, inputs, engine: str, seconds: float, reference: HostReference, tally: Tally, tracer: Tracer):
    """Rounds over the unique contracts for ``seconds`` (at least one):
    the public stage calls under a ``contract`` span and ``api.analyze``
    under its own span, in alternating order so neither always finds warm
    CPU caches.  Returns ``(index, start, end, staged span, api span)`` per
    contract, and the first round's exact counts."""
    requests = [api.AnalyzeRequest(bytecode=code, engine=engine) for code in inputs.bytecodes]
    for request in requests[:WARMUP_CALLS]:
        api.analyze(request)
    for code in inputs.bytecodes[:WARMUP_CALLS]:
        staged(Tracer(), code, engine)

    counts = dict.fromkeys(("blocks", "statements", "offsets", "warnings") + DATALOG_COUNTERS, 0)
    contracts = []
    started = time.perf_counter()
    round_number = 0
    last = 0.0
    while round_number == 0 or time.perf_counter() - started < seconds:
        for index, code in enumerate(inputs.bytecodes):
            reference.take_for(REFERENCE_DUTY * last)
            start = time.perf_counter()
            for step in ("staged", "api") if (index + round_number) % 2 == 0 else ("api", "staged"):
                if step == "api":
                    with tracer.span("api.analyze", trace=index) as api_span:
                        api_verdict = analyze_once(
                            api, requests[index], inputs.expected[index], tally,
                            "contract %d" % index,
                        )
                else:
                    with tracer.span("contract", trace=index) as staged_span:
                        program, verdicts, warnings, stats = staged(tracer, code, engine)
            end = time.perf_counter()
            contracts.append((index, start, end, staged_span, api_span))
            last = end - start
            for name in TAINT_ENGINES:
                tally.check(
                    "staged %s contract %d" % (name, index),
                    verdicts[name], None, inputs.expected[index],
                )
            if api_verdict is not None:  # a raising call is already counted
                tally.check(
                    "staged vs api.analyze, contract %d" % index,
                    verdicts[engine], None, api_verdict,
                )
            if round_number == 0:
                blocks = program.blocks.values()
                counts["blocks"] += len(blocks)
                counts["statements"] += sum(len(block.statements) for block in blocks)
                counts["offsets"] += len({block.offset for block in blocks})
                counts["warnings"] += warnings[engine]
                for name in DATALOG_COUNTERS:
                    counts[name] += stats[name]
        round_number += 1
    reference.take_for(REFERENCE_DUTY * last)
    return contracts, counts


def stage_figures(tracer: Tracer, contracts, reference: HostReference) -> Dict:
    """Mean self time per call of each stage span, and the pipeline's own
    overhead per contract: ``api.analyze`` minus the stages it runs (the
    front stages, then the workload engine's taint and detect)."""
    self_times = tracer.self_times()
    children = tracer.children()
    raw: Dict[str, List[float]] = {}
    normalized: Dict[str, List[float]] = {}
    for _, start, end, staged_span, api_span in contracts:
        scale = reference.scale(start, end)
        stages = children[staged_span.ident]
        pipeline_stages = stages[: len(FRONT_STAGES) + 2]
        timed = [(span.name, self_times[span.ident]) for span in stages]
        timed.append(
            ("pipeline", api_span.duration - sum(span.duration for span in pipeline_stages))
        )
        for name, elapsed in timed:
            raw.setdefault(name, []).append(elapsed)
            normalized.setdefault(name, []).append(elapsed * scale)
    figures = {}
    for name in FRONT_STAGES + ("detect", "pipeline") + tuple("taint." + e for e in TAINT_ENGINES):
        label = "pipeline.overhead_ms" if name == "pipeline" else name + ".busy_ms"
        figures[label] = metric(
            label, statistics.mean(normalized[name]) / 1e6, statistics.mean(raw[name]) / 1e6
        )
    return figures


def sweep_figures(sweeps: List[SweepCall]) -> Dict:
    """Orchestrator figures, each the median over the run's sweep calls.

    Which worker takes which chunk depends on timing, so at full size
    ``dispatched`` and ``ipc_batches`` can differ a little between calls."""
    figures = {}
    for name, attribute, per_ms in (
        ("sweep.supervisor_cpu_ms", "supervisor_cpu_ns", 1e-6),
        ("sweep.worker_cpu_ms", "worker_cpu_ns", 1e-6),
        ("sweep.first_result_ms", "first_result", 1e3),
    ):
        figures[name] = metric(
            name,
            statistics.median(getattr(s, attribute) * s.scale for s in sweeps) * per_ms,
            statistics.median(getattr(s, attribute) for s in sweeps) * per_ms,
        )
    figures["sweep.dispatch_ratio"] = metric(
        "sweep.dispatch_ratio",
        statistics.median(s.counters["dispatched"] / s.counters["tasks_unique"] for s in sweeps),
    )
    for name in ("ipc_batches", "recycles", "dedup_hits"):
        figures["sweep." + name] = metric(
            "sweep." + name, statistics.median(s.counters[name] for s in sweeps)
        )
    figures["sweep.reply_bytes"] = metric(
        "sweep.reply_bytes", statistics.median(s.reply_bytes for s in sweeps)
    )
    return figures


def traced_run(inputs, workload: str, seconds: float, reference: HostReference, tally: Tally, spans_path: Optional[str]) -> Dict:
    """The per-layer figures of one traced run: a staged pass for half of
    ``seconds``, then ``api.sweep`` calls on the shard for the rest.

    Every layer is measured on every workload, so no figure is a
    placeholder: both taint engines run in the staged pass, and the
    workload's engine is the one ``api.analyze`` and the sweep use."""
    from repro import api

    engine = ENGINES[workload]
    tracer = Tracer()
    started = time.perf_counter()
    contracts, counts = staged_pass(api, inputs, engine, seconds / 2, reference, tally, tracer)
    sweeps: List[SweepCall] = []
    while not sweeps or time.perf_counter() - started < seconds:
        with tracer.span("api.sweep"):
            sweeps.append(SweepCall(api, inputs, engine, reference, tally))

    figures = stage_figures(tracer, contracts, reference)
    figures.update(sweep_figures(sweeps))
    figures["host.ref_us"] = metric("host.ref_us", reference.median_us())
    if workload == "sweep-mainnet":
        raw_rate = len(inputs.submissions) / statistics.median(s.raw_seconds for s in sweeps)
    else:
        raw_rate = len(contracts) / sum(c[4].duration / 1e9 for c in contracts)
    traced_ns = sum(span.duration for span in tracer.spans if span.parent is None)
    for name, value in (
        ("lift.blocks", counts["blocks"]),
        ("lift.statements", counts["statements"]),
        ("lift.clone_ratio", counts["blocks"] / counts["offsets"]),
        ("taint.datalog.derivation_yield", counts["derived_facts"] / counts["matches"]),
        ("detect.warnings", counts["warnings"]),
        ("host.raw_contracts_per_s", raw_rate),
        ("trace.overhead", len(tracer.spans) * recorder_cost_ns() / traced_ns),
    ) + tuple(("taint.datalog." + name, counts[name]) for name in DATALOG_COUNTERS):
        figures[name] = metric(name, value)
    if spans_path:
        tracer.write_chrome(spans_path)
    return figures


# -------------------------------------------------------------------- main


class Inputs:
    """The decoded input set: unique bytecodes, expected verdicts, shard."""

    def __init__(self, payload: dict):
        self.bytecodes = [bytes.fromhex(c["bytecode"]) for c in payload["contracts"]]
        self.expected = [frozenset(c["expected"]) for c in payload["contracts"]]
        self.shard = payload["shard"]
        self.submissions = [self.bytecodes[unique] for unique in self.shard]
        first_seen: Dict[bytes, int] = {}
        self.representative = [
            first_seen.setdefault(code, submission)
            for submission, code in enumerate(self.submissions)
        ]
        self.representatives = sorted(first_seen.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(ENGINES), required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the traced run's spans here")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(HERE, "..", "src"))

    inputs = Inputs(json.load(sys.stdin))
    method = load_method()
    reference = new_reference(method)
    tally = Tally()
    engine = ENGINES[args.workload]
    if args.trace:
        metrics = traced_run(inputs, args.workload, args.seconds, reference, tally, args.spans)
    elif args.workload == "sweep-mainnet":
        metrics = sweep_loop(inputs, args.seconds, reference, tally)
    else:
        metrics = analyze_loop(inputs, engine, args.seconds, reference, tally)
    json.dump(
        {
            "attempted": tally.attempted,
            "failed": tally.failed,
            "examples": tally.examples,
            "ref_us": reference.median_us(),
            "metrics": metrics,
        },
        sys.stdout,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
