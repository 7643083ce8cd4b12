"""End-to-end benchmark of the Ethainter reproduction.

    python3 e2ebench/run.py --workload analyze-python --seed 7 \\
        --seconds 30 --trace 0

Run from the root of a checkout.  One run:

1. generates the workload's inputs from ``--seed`` in a process of its own
   (``inputs.py``) and prints their manifest;
2. times ``1 + SETUP_STARTS`` cold starts (``coldstart.py``), discarding
   the first so every timed start sees the same ``__pycache__`` state;
3. measures the workload for ``--seconds`` in a fresh process
   (``measure.py``): the end-to-end metrics with ``--trace 0``, the
   per-layer metrics of a traced run with ``--trace 1``;
4. prints each metric with its raw value beside the host-normalized one,
   then, as the last line, one JSON object with ``correct``,
   ``attempted``, ``failed`` and the normalized ``metrics``.

It exits non-zero without printing that object when any step fails, e.g.
when ``src/repro`` is missing.  ``METHOD.json`` describes the method.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

from measure import E2E_UNITS, ENGINES, LAYER_UNITS, load_method, metric, new_reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_STARTS = 7  # timed cold starts, after one discarded start
SETUP_SLICES = 10  # reference slices right before and after each start
DEFAULT_SIZE = 300  # unique contracts
BUDGET_S = 170.0  # a run must end within 180 s


class BenchmarkError(Exception):
    """A step of the run failed; no result is printed."""


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchmarkError("time budget of %.0f s exhausted" % BUDGET_S)
    return left


def _child(args, stdin_text: str, deadline: float) -> str:
    """Run a helper to completion and return its stdout."""
    try:
        done = subprocess.run(
            [sys.executable] + args,
            input=stdin_text,
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=_remaining(deadline),
        )
    except subprocess.TimeoutExpired as error:
        raise BenchmarkError("%s timed out" % args[0]) from error
    if done.returncode != 0:
        raise BenchmarkError(
            "%s exited %d: %s" % (args[0], done.returncode, done.stderr.strip()[-2000:])
        )
    return done.stdout


def _cold_start(engine: str, code_hex: str, reference, deadline: float):
    """Spawn one interpreter and time it until it prints its first verdict.

    Reference slices run right before and right after the start, on this
    process while it is otherwise idle."""
    script = os.path.join(HERE, "coldstart.py")
    for _ in range(SETUP_SLICES):
        reference.take()
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, script, "--engine", engine],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )
    try:
        process.stdin.write(code_hex)
        process.stdin.close()
        ready, _, _ = select.select([process.stdout], [], [], _remaining(deadline))
        line = process.stdout.readline() if ready else ""
        answered = time.perf_counter()
        process.wait(timeout=_remaining(deadline))
    except (OSError, subprocess.TimeoutExpired, BenchmarkError) as error:
        process.kill()
        process.wait()
        raise BenchmarkError("cold start failed: %s" % error) from error
    finally:
        errors = process.stderr.read()
        process.stdout.close()
        process.stderr.close()
    if process.returncode != 0 or not line:
        raise BenchmarkError("cold start failed: %s" % errors.strip()[-2000:])
    for _ in range(SETUP_SLICES):
        reference.take()
    report = json.loads(line)
    report["setup_s"] = answered - started
    report["interval"] = (started, answered)
    return report


def _setup(payload: dict, engine: str, method: dict, deadline: float):
    """Median of the timed cold starts, raw and normalized, and their
    verdict checks.

    This process and its cold starts share one CPU meanwhile, so the
    slices time the CPU the starts ran on: the two vCPUs of a shared VM
    are slowed by different neighbours.  One scale, from all the phase's
    slices, serves every start; a start's own few slices did not track it.
    """
    reference = new_reference(method)
    contract = payload["contracts"][0]
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        starts = [
            _cold_start(engine, contract["bytecode"], reference, deadline)
            for _ in range(1 + SETUP_STARTS)
        ][1:]
    finally:
        os.sched_setaffinity(0, allowed)
    scale = reference.scale(starts[0]["interval"][0], starts[-1]["interval"][1])
    for start in starts:
        start["scale"] = scale
    failed = sum(
        1
        for start in starts
        if start["error"] is not None or start["kinds"] != contract["expected"]
    )
    figures = {}
    for name, key in (("setup_s", "setup_s"), ("setup.import_s", "import_s"),
                      ("setup.first_call_s", "first_call_s")):
        figures[name] = metric(
            name,
            statistics.median(start[key] * start["scale"] for start in starts),
            statistics.median(start[key] for start in starts),
        )
    return figures, len(starts), failed


def run(args) -> dict:
    deadline = time.monotonic() + BUDGET_S
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        raise BenchmarkError("src/repro is missing: run from a checkout of the repository")
    method = load_method()
    engine = ENGINES[args.workload]

    payload_text = _child(
        [os.path.join(HERE, "inputs.py"), "--seed", str(args.seed), "--size", str(args.size)],
        "",
        deadline,
    )
    payload = json.loads(payload_text)
    print("manifest: %s" % json.dumps(payload["manifest"], sort_keys=True))

    setup, setup_attempted, setup_failed = _setup(payload, engine, method, deadline)

    command = [
        os.path.join(HERE, "measure.py"),
        "--workload", args.workload,
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        spans_dir = os.path.join(ROOT, ".e2ebench")
        os.makedirs(spans_dir, exist_ok=True)
        spans = os.path.join(spans_dir, "trace-%s-seed%d.json" % (args.workload, args.seed))
        command += ["--spans", spans]
        print("spans: %s" % os.path.relpath(spans, ROOT))
    measured = json.loads(_child(command, payload_text, deadline))

    names = LAYER_UNITS if args.trace else E2E_UNITS
    metrics = dict(measured["metrics"])
    metrics.update((name, figure) for name, figure in setup.items() if name in names)
    missing = sorted(set(names) - set(metrics))
    if missing:
        raise BenchmarkError("metrics not produced: %s" % ", ".join(missing))

    print("host reference: %.1f us per slice (nominal %.1f)" % (
        measured["ref_us"], method["host_reference"]["ref_nominal_us"]))
    print("%-32s %14s %14s  %s" % ("metric", "normalized", "raw", "unit"))
    for name in names:
        figure = metrics[name]
        raw = figure.get("raw")
        value = figure["value"]
        print("%-32s %14s %14s  %s" % (
            name,
            value if isinstance(value, int) else "%.6g" % value,
            "-" if raw is None else "%.6g" % raw,
            figure["unit"],
        ))
    for example in measured["examples"]:
        print("failed: %s" % example)

    attempted = measured["attempted"] + setup_attempted
    failed = measured["failed"] + setup_failed
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
            for name in names
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(ENGINES), required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, default=DEFAULT_SIZE,
                        help="unique contracts (the self-test uses a tiny size)")
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchmarkError as error:
        print("benchmark error: %s" % error, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
