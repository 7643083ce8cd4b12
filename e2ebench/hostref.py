"""Host-speed reference: a fixed pure-Python kernel timed by thread CPU time.

On a shared VM, neighbours slow the CPU in bursts that last seconds, so a
raw wall-clock figure does not repeat.  The benchmark therefore runs this
kernel in short slices interleaved with the measured work and scales every
measured time by ``(ref_nominal / ref_local) ** exponent``: ``ref_local`` is
the median of the slices taken near the measurement; ``ref_nominal`` and
``exponent`` are constants of the benchmark (``METHOD.json``).

The kernel is a small symbolic stack machine -- the same mix of tuple and
small-object allocation, dict probes, string formatting and masked integer
arithmetic as the analyzer's lifter -- because a tight int/dict loop tracked
the analyzer's slowdowns less closely.  It imports nothing from ``repro``
(a change to the program must not change the reference), keeps nothing
alive after a slice returns, and runs with the garbage collector off when
it shares the measuring thread.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import threading
import time
from typing import List, Optional

_MASK = (1 << 256) - 1

# A fixed pseudo-bytecode: (opcode, argument) pairs.  PUSH pushes a
# constant, the binary ops fold constants or build symbolic terms, DUP/SWAP
# shuffle the stack, STORE/LOAD go through a slot map, JUMPI records a
# branch edge keyed by the symbolic condition.
_PROGRAM = tuple(
    op
    for block in range(6)
    for op in (
        ("PUSH", 0x60 + block),
        ("PUSH", 0x40),
        ("CALLDATA", block),
        ("ADD", 0),
        ("DUP", 1),
        ("PUSH", 0xFF),
        ("AND", 0),
        ("SWAP", 1),
        ("LOAD", 0),
        ("EQ", 0),
        ("JUMPI", block),
        ("PUSH", block * 32),
        ("CALLDATA", block + 1),
        ("MUL", 0),
        ("STORE", 0),
        ("PUSH", 1),
        ("CALLDATA", 0),
        ("ADD", 0),
        ("PUSH", 7 + block),
        ("SWAP", 1),
        ("STORE", 1),
    )
)


class _Value:
    __slots__ = ("var", "const")

    def __init__(self, var: str, const: Optional[int] = None):
        self.var = var
        self.const = const


def _run_program(context: int) -> int:
    stack: List[_Value] = []
    slots = {}
    edges = {}
    statements = []
    counter = 0
    for opcode, argument in _PROGRAM:
        counter += 1
        if opcode == "PUSH":
            stack.append(_Value("c%d_%d" % (context, counter), argument))
        elif opcode == "CALLDATA":
            stack.append(_Value(f"cd{argument}_{counter}"))
        elif opcode in ("ADD", "MUL", "AND", "EQ"):
            right = stack.pop()
            left = stack.pop()
            if left.const is not None and right.const is not None:
                if opcode == "ADD":
                    value = (left.const + right.const) & _MASK
                elif opcode == "MUL":
                    value = (left.const * right.const) & _MASK
                elif opcode == "AND":
                    value = left.const & right.const
                else:
                    value = int(left.const == right.const)
                stack.append(_Value("k%d" % counter, value))
            else:
                var = f"v{counter}"
                statements.append((var, opcode, left.var, right.var))
                stack.append(_Value(var))
        elif opcode == "DUP":
            stack.append(stack[-1 - argument])
        elif opcode == "SWAP":
            stack[-1], stack[-1 - argument] = stack[-1 - argument], stack[-1]
        elif opcode == "STORE":
            value = stack.pop()
            key = stack.pop()
            slots[(key.const, key.var if key.const is None else None)] = value
        elif opcode == "LOAD":
            key = stack.pop()
            found = slots.get((key.const, key.var if key.const is None else None))
            stack.append(found if found is not None else _Value(f"s{counter}"))
        elif opcode == "JUMPI":
            condition = stack.pop()
            edges.setdefault((argument, condition.var), []).append(counter)
    return len(statements) + len(slots) + len(edges) + len(stack)


# Program runs per slice: about 160 us of CPU per slice, measured on a quiet
# 2-vCPU Intel Xeon VM.
SLICE_RUNS = 3


def run_slice(pause_gc: bool = True) -> int:
    """Run one slice of the kernel and return its thread CPU time in ns.

    ``pause_gc`` turns the collector off for the slice.  The collector
    switch is process-wide, so a slice on a second thread leaves it alone:
    it would otherwise leak into the measured thread, and into any worker
    process forked while it was off.
    """
    enabled = pause_gc and gc.isenabled()
    if enabled:
        gc.disable()
    try:
        started = time.thread_time_ns()
        for context in range(SLICE_RUNS):
            _run_program(context)
        return time.thread_time_ns() - started
    finally:
        if enabled:
            gc.enable()


class HostReference:
    """The slices of one run, and the scale factor they give a measurement.

    Each slice is stored with the wall-clock instant it ended.  A time
    measured over ``[start, end]`` is scaled by ``(nominal_us /
    local_us(start, end)) ** exponent``, where ``local_us`` is the median of
    the slices that ended within ``window`` seconds of the interval, and
    never fewer than the two nearest slices on either side of it.  The
    exponent is below one because the analyzer slows down less than the
    kernel when the host is contended.
    """

    def __init__(self, nominal_us: float, window: float, exponent: float):
        self.nominal_us = nominal_us
        self.window = window
        self.exponent = exponent
        self.slices_ns: List[int] = []
        self.ended: List[float] = []
        self._lock = threading.Lock()

    def take(self, pause_gc: bool = True) -> None:
        """Run one slice on the calling thread and record it."""
        elapsed = run_slice(pause_gc)
        with self._lock:
            self.slices_ns.append(elapsed)
            self.ended.append(time.perf_counter())

    def take_for(self, seconds: float) -> None:
        """Take slices until ``seconds`` of wall time have passed; at least one."""
        until = time.perf_counter() + seconds
        self.take()
        while time.perf_counter() < until:
            self.take()

    def local_us(self, start: float, end: float) -> float:
        with self._lock:
            count = len(self.ended)
            if not count:
                raise ValueError("no host-reference slice was taken")
            lo = min(
                bisect.bisect_left(self.ended, start - self.window),
                max(0, bisect.bisect_left(self.ended, start) - 2),
            )
            hi = max(
                bisect.bisect_right(self.ended, end + self.window),
                min(count, bisect.bisect_right(self.ended, end) + 2),
            )
            return statistics.median(self.slices_ns[lo:hi]) / 1000.0

    def scale(self, start: float, end: float) -> float:
        """The factor for a time measured over the interval."""
        return (self.nominal_us / self.local_us(start, end)) ** self.exponent

    def median_us(self) -> float:
        with self._lock:
            return statistics.median(self.slices_ns) / 1000.0


class Sampler:
    """Takes slices on one low-duty thread while a block of work runs.

    For work that is not a loop the harness drives call by call -- an
    ``api.sweep`` with its worker processes, a cold interpreter start --
    the thread runs one slice every ``period`` seconds until the block
    ends.  ``cpu_ns`` is the thread's own CPU time, so a caller can take it
    out of a process-wide CPU figure.
    """

    def __init__(self, reference: HostReference, period: float = 0.010):
        self.reference = reference
        self.period = period
        self.cpu_ns = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> "Sampler":
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def _loop(self) -> None:
        started = time.thread_time_ns()
        while True:
            self.reference.take(pause_gc=False)
            if self._stop.wait(self.period):
                break
        self.cpu_ns = time.thread_time_ns() - started

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
