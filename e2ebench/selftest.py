"""Self-test of the benchmark harness, at a tiny size.

    python3 e2ebench/selftest.py

Run from the root of a checkout.  It checks that:

* the metric names and units each run prints equal ``BENCHMARK.json``;
* the exact counts of the traced run (``lift.*``, ``taint.datalog.*``,
  ``sweep.*`` counters, ``detect.warnings``) repeat across two traced runs
  under different ``PYTHONHASHSEED`` values;
* the spans written by a traced run nest, and no self time is negative;
* the harness prints no result and exits non-zero where ``src/repro`` is
  missing.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIZE = "12"
SECONDS = "1"
SEED = 7
WORKLOADS = ("analyze-python", "analyze-datalog", "sweep-mainnet")
# Per-layer metrics that count work: they must repeat exactly.
EXACT_UNITS = ("count", "ratio", "bytes")
TIMED_RATIOS = ("trace.overhead",)
TOLERANCE_US = 1e-3  # span times are written in microseconds as floats


def run_benchmark(root, workload, trace, hash_seed="0"):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [
            sys.executable, os.path.join("e2ebench", "run.py"),
            "--workload", workload, "--seed", str(SEED), "--seconds", SECONDS,
            "--trace", str(trace), "--size", SIZE,
        ],
        cwd=root, env=env, capture_output=True, text=True, timeout=300,
    )


def result_of(done, what):
    if done.returncode != 0:
        raise AssertionError("%s exited %d: %s" % (what, done.returncode, done.stderr[-2000:]))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError("%s: result keys %s" % (what, sorted(result)))
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError("%s: failed operations: %s" % (what, done.stdout[-2000:]))
    return result


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {entry["name"]: entry["unit"] for entry in json.load(handle)[section]}


def check_names_and_units(result, section, what):
    printed = {name: figure["unit"] for name, figure in result["metrics"].items()}
    if printed != declared(section):
        raise AssertionError(
            "%s: printed metrics %s differ from BENCHMARK.json %s"
            % (what, printed, declared(section))
        )


def exact_counts(result):
    return {
        name: figure["value"]
        for name, figure in result["metrics"].items()
        if figure["unit"] in EXACT_UNITS and name not in TIMED_RATIOS
    }


def check_spans(workload):
    path = os.path.join(ROOT, ".e2ebench", "trace-%s-seed%d.json" % (workload, SEED))
    with open(path) as handle:
        events = json.load(handle)["traceEvents"]
    spans = {event["args"]["span"]: event for event in events}
    covered = {}
    for event in events:
        parent = event["args"]["parent"]
        if parent is None:
            continue
        outer = spans[parent]
        if (event["ts"] < outer["ts"] - TOLERANCE_US
                or event["ts"] + event["dur"] > outer["ts"] + outer["dur"] + TOLERANCE_US):
            raise AssertionError("%s: span %s is not inside its parent" % (workload, event["args"]))
        if event["args"]["contract"] != outer["args"]["contract"]:
            raise AssertionError("%s: span %s left its contract" % (workload, event["args"]))
        covered[parent] = covered.get(parent, 0.0) + event["dur"]
    for ident, event in spans.items():
        if event["dur"] - covered.get(ident, 0.0) < -TOLERANCE_US:
            raise AssertionError("%s: span %s has negative self time" % (workload, event["args"]))
    if not covered:
        raise AssertionError("%s: no nested spans written" % workload)


def check_missing_source():
    bare = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(ROOT, ".e2ebench"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "e2ebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run_benchmark(bare, WORKLOADS[0], 0)
    finally:
        shutil.rmtree(bare)
    lines = done.stdout.strip().splitlines()
    if done.returncode == 0 or (lines and lines[-1].startswith("{")):
        raise AssertionError("harness without src/repro: exit %d, stdout %r"
                             % (done.returncode, done.stdout[-500:]))


def main() -> int:
    os.makedirs(os.path.join(ROOT, ".e2ebench"), exist_ok=True)
    for workload in WORKLOADS:
        result = result_of(run_benchmark(ROOT, workload, 0), workload)
        check_names_and_units(result, "end_to_end", workload)
        first = result_of(run_benchmark(ROOT, workload, 1, "0"), workload + " traced")
        check_names_and_units(first, "per_layer", workload + " traced")
        check_spans(workload)
        second = result_of(run_benchmark(ROOT, workload, 1, "1"), workload + " traced again")
        if exact_counts(first) != exact_counts(second):
            raise AssertionError(
                "%s: counts differ between traced runs: %s vs %s"
                % (workload, exact_counts(first), exact_counts(second))
            )
        print("ok %s: names, units, spans, %d exact counts"
              % (workload, len(exact_counts(first))))
    check_missing_source()
    print("ok: no result and a non-zero exit without src/repro")
    return 0


if __name__ == "__main__":
    sys.exit(main())
