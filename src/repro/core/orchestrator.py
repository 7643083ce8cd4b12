"""Supervised worker processes for sweeps and the serving daemon (the §6
harness, made survivable).

The paper runs Ethainter over the whole chain with 45 concurrent analysis
processes and a per-contract cutoff (§6).  At that scale the harness itself
is part of the analysis: a lifter that wedges on one pathological contract,
a worker the kernel OOM-kills, or an operator restart must each cost *one
contract*, not the sweep.  This module owns ``multiprocessing.Process``
workers directly (one private duplex pipe per worker — no shared queue
locks a dying worker could leave held) and adds, over a bare
``Pool.imap_unordered``:

* **watchdog** — a wall-clock backstop that SIGKILLs and respawns workers
  stuck past ``deadline x grace_factor``, catching hangs the cooperative
  :class:`~repro.core.pipeline.Deadline` checks cannot (native sleeps,
  pathological allocation storms between check points);
* **crash isolation** — a worker death (signal, OOM kill, ``os._exit``) is
  recorded as a structured ``worker_crashed`` :class:`BatchEntry` error for
  the one contract it held; the worker is respawned and the sweep continues;
* **bounded retries** — a task whose worker *raised* (transient
  infrastructure errors) is retried with exponential backoff up to
  ``max_retries``; deterministic analysis errors (``timeout``,
  ``lift-error``) come back inside successful entries and are never
  retried;
* **worker recycling** — workers exit cleanly after ``recycle_after`` tasks
  (the ``maxtasksperchild`` analog) to bound allocator growth on
  blockchain-scale corpora; the supervisor never dispatches past a
  worker's remaining budget, so no chunk is sent to a worker that will
  exit without reading it;
* **content-addressed task coalescing** — the paper's headline scalability
  lever (§6.1: ~38M deployed contracts collapse to ~240K unique
  bytecodes): :func:`run_sweep` claims every submission from the
  :class:`~repro.core.reuse.ReuseFunnel` by its ``sha256(bytecode) +
  config fingerprint`` identity, one *leader* task runs per identity, and
  its row is fanned out to every duplicate with the per-submission index
  preserved.  Throughput scales with *unique* code, not submissions; a
  leader's retry/crash outcome resolves the whole group at once (one
  ``error_kind`` per group, not N).  ``OrchestratorOptions(dedup=False)``
  is the naive one-task-per-submission reference;
* **cross-run result cache** — the funnel's optional disk
  :class:`~repro.core.reuse.ResultCache`, keyed by the same identity:
  repeated sweeps and the daemon resolve finished identities without any
  analysis (``result_cache_hits``).  Each row is stored as it resolves,
  so re-running an interrupted sweep over the same directory analyzes
  only what is left.  Harness faults (crash/watchdog/task_failed rows)
  are never stored, so a later run retries them;
* **chunked IPC dispatch** — tasks travel to workers in batches of
  ``dispatch_chunk`` (auto-sized like ``Pool.map``'s ``chunksize``), so
  per-task pipe round-trips amortize in the small-task regime; replies
  stay per-task so crash isolation still costs one contract;
* **progress events** — heartbeat / task_done / retry / worker_crashed /
  watchdog_kill / recycle / dedup_hit / result_cache_hit events
  via ``on_event``, with the counters rolled into
  :class:`BatchSummary.orchestrator`, sweep JSON reports, and
  ``--profile`` output.

One supervisor, :class:`Orchestrator`, has two drivers: :func:`run_sweep`
steps it on the caller's thread over one sweep's tasks, and
:class:`PersistentPool` steps it from a thread of its own for the daemon.
Both send every worker the same task shape — ``(runtime, configs)``, one
entry per configuration — and receive every resolved row through
``on_row``.  Work that does not go to workers — ``jobs <= 1``, sweeps of
fewer than two submissions, ``repro serve --jobs 0``, and whatever is
still open when worker processes cannot be spawned (recorded, never
silent) — runs on the one in-process path, :class:`_InProcess`.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import threading
import time
from concurrent.futures import Future
from multiprocessing import connection as mp_connection
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.analysis import AnalysisConfig, analyze_configs
from repro.core.batch import BatchEntry, BatchSummary, _entry_from_result
from repro.core.reuse import (
    ReuseFunnel,
    Row,
    copy_row,
    identity_key,
    sweep_fingerprint,
)

# A task as workers and the in-process path receive it: runtime bytecode
# and the configurations to analyze it under (a sweep's battery, or one
# daemon request's config).
Task = Tuple[bytes, Tuple[AnalysisConfig, ...]]


class TransientTaskError(Exception):
    """Raise inside a worker to mark a task failure as retriable."""


def resolve_mp_context(name: Optional[str] = None):
    """Resolve a multiprocessing context.

    With ``name`` (``"fork"``/``"spawn"``/``"forkserver"``) the named start
    method is used and unsupported names raise ``ValueError`` to the
    caller.  Without it, ``fork`` is preferred where available (cheapest on
    POSIX) with a fallback to the platform default — the old hard-coded
    ``get_context("fork")`` preference, made survivable on non-fork
    platforms.
    """
    if name:
        return multiprocessing.get_context(name)
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


# ------------------------------------------------------------------ options


@dataclass(frozen=True)
class FaultPlan:
    """Test-only fault injection, honored inside worker processes.

    ``crash_indices`` hard-exit the worker (``os._exit``), ``hang_indices``
    sleep past any watchdog, and ``transient_failures`` maps a task index
    to how many attempts fail with :class:`TransientTaskError` before the
    task succeeds.  Ignored entirely by in-process execution — injecting
    a crash into the supervisor would defeat the point.
    """

    crash_indices: Tuple[int, ...] = ()
    crash_exit_code: int = 13
    hang_indices: Tuple[int, ...] = ()
    hang_seconds: float = 3600.0
    transient_failures: Mapping[int, int] = field(default_factory=dict)

    def apply(self, index: int, attempt: int) -> None:
        if index in self.crash_indices:
            os._exit(self.crash_exit_code)
        if index in self.hang_indices:
            time.sleep(self.hang_seconds)
        failures = self.transient_failures.get(index, 0)
        if attempt < failures:
            raise TransientTaskError(
                "injected transient failure %d/%d on contract %d"
                % (attempt + 1, failures, index)
            )


@dataclass
class OrchestratorOptions:
    """Knobs for :func:`run_sweep` and :class:`PersistentPool`.

    ``watchdog_seconds`` overrides the default budget-derived timeout of
    ``timeout_seconds * grace_factor``.
    """

    mp_context: Optional[str] = None  # "fork" | "spawn" | "forkserver"
    max_retries: int = 2
    backoff_seconds: float = 0.05
    grace_factor: float = 4.0
    watchdog_seconds: Optional[float] = None
    recycle_after: Optional[int] = 64
    heartbeat_seconds: float = 5.0
    # Coalesce submissions sharing a sweep identity (sha256(bytecode) +
    # config fingerprint): one leader analysis per unique identity, fanned
    # out to every duplicate.  False is the naive reference, one task per
    # submission.
    dedup: bool = True
    # Directory for the cross-run ResultCache; None disables it.
    result_cache_path: Optional[str] = None
    # Tasks per worker dispatch message; None auto-sizes from the task
    # count (like Pool.map's chunksize), capped by recycle_after.
    dispatch_chunk: Optional[int] = None
    on_event: Optional[Callable[[Dict], None]] = None
    fault_plan: Optional[FaultPlan] = None

    def effective_watchdog(self, config: AnalysisConfig) -> Optional[float]:
        if self.watchdog_seconds is not None:
            return self.watchdog_seconds
        if config.timeout_seconds is None:
            return None
        return config.timeout_seconds * self.grace_factor


@dataclass
class OrchestratorStats:
    """Sweep-level health counters, surfaced on every summary/report."""

    # Sweeps: "orchestrator" | "serial"; serve: "persistent" | "inline".
    mode: str = "orchestrator"
    workers: int = 0
    dispatched: int = 0  # tasks sent to workers, retries included
    completed: int = 0  # tasks that produced a result row
    retries: int = 0
    crashes: int = 0
    watchdog_kills: int = 0
    recycles: int = 0
    # Dedup accounting: submissions vs unique sweep identities, duplicates
    # resolved by fanning out a leader's row, and leaders resolved from
    # the cross-run result cache without any analysis.
    tasks_total: int = 0
    tasks_unique: int = 0
    dedup_hits: int = 0
    result_cache_hits: int = 0
    ipc_batches: int = 0  # dispatch messages sent (dispatched / this = mean batch)
    heartbeats: int = 0
    elapsed_seconds: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        payload = asdict(self)
        payload["elapsed_seconds"] = round(self.elapsed_seconds, 6)
        return payload


# ------------------------------------------------------------------- runner


def _analyze_task(index: int, task: Task) -> Tuple[BatchEntry, ...]:
    """One entry per configuration, in order: the Fig. 8 battery shape for
    sweeps, a single entry for a daemon request (each request carries its
    own configuration, so one warm pool serves mixed traffic).  The
    configurations share stage outputs within the task only."""
    runtime, configs = task
    return tuple(
        _entry_from_result(index, result)
        for result in analyze_configs(runtime, configs)
    )


def _fault_row(
    index: int,
    configs: Sequence[AnalysisConfig],
    attempt: int,
    error: str,
    elapsed: float,
) -> Tuple[BatchEntry, ...]:
    """One error entry per configuration for a harness fault."""
    return tuple(
        BatchEntry(
            index=index,
            kinds=(),
            error=error,
            elapsed_seconds=elapsed,
            statement_count=0,
            attempts=attempt + 1,
        )
        for _ in configs
    )


def _send_event(
    on_event: Optional[Callable[[Dict], None]], event: str, **data
) -> None:
    if on_event is not None:
        payload = {"event": event}
        payload.update(data)
        on_event(payload)


class _InProcess:
    """Analysis on the calling thread; like a worker, it keeps nothing
    from one task for the next.

    Serves ``jobs <= 1`` and tiny sweeps, ``repro serve --jobs 0``, and
    both drivers' fallback when workers cannot be spawned.  Rows go to
    ``on_row`` exactly as the supervisor reports them; an exception from
    the analysis becomes a ``task_failed`` row instead of escaping.
    """

    def __init__(
        self,
        stats: "OrchestratorStats",
        on_row: Callable[[int, Tuple[BatchEntry, ...]], None],
        on_event: Optional[Callable[[Dict], None]],
    ):
        self.stats = stats
        self.on_row = on_row
        self.on_event = on_event

    def run(self, index: int, task: Task) -> None:
        error = None
        try:
            row = _analyze_task(index, task)
        except Exception as failure:  # same surface as an exhausted retry
            error = "%s: %s" % (type(failure).__name__, failure)
            row = _fault_row(
                index,
                task[1],
                0,
                "task_failed: %s (after 1 attempt(s))" % error,
                0.0,
            )
        self.stats.dispatched += 1
        self.stats.completed += 1
        self.on_row(index, row)
        if error is None:
            _send_event(self.on_event, "task_done", index=index, attempt=0)
        else:
            _send_event(self.on_event, "task_failed", index=index, error=error)


# ------------------------------------------------------------------- worker


def _worker_main(
    worker_id: int,
    conn,
    recycle_after: Optional[int],
    fault_plan: Optional[FaultPlan],
) -> None:
    """Worker loop: one task in flight, on a private duplex pipe.

    Each worker owns its own :func:`multiprocessing.Pipe` rather than
    sharing a ``Queue``: shared queues serialize writers through a shared
    lock held by a feeder *thread*, and a worker hard-exiting inside that
    window (``os._exit``, SIGKILL, OOM) leaves the lock held forever,
    wedging every other worker — the supervisor must survive exactly those
    deaths.  A private pipe has a single writer per direction and no
    cross-process lock, so a dying worker can only corrupt its own
    channel, which the supervisor treats as the crash it is.

    Spawn-safe by construction: a top-level function whose arguments are
    all picklable, keeping nothing from one task for the next.  Each
    message is a *chunk* — a list of ``(index, (runtime, configs),
    attempt)`` tasks, processed strictly in order so the supervisor always
    knows which task is in flight (the head of the chunk's unacknowledged
    remainder).  Replies stay per-task —
    ``("done", wid, index, attempt, row)`` or ``("fail", wid, index,
    attempt, message)`` — so crash isolation still costs one contract;
    only the dispatch direction is batched.  ``("recycle", wid)`` precedes
    a clean exit after ``recycle_after`` tasks; the supervisor never sends
    more than that, so the exit falls between chunks.
    """
    done = 0
    while True:
        message = conn.recv()
        if message is None:
            return
        for index, task, attempt in message:
            try:
                if fault_plan is not None:
                    fault_plan.apply(index, attempt)
                row = _analyze_task(index, task)
                conn.send(("done", worker_id, index, attempt, row))
            except Exception as error:  # reported; the supervisor decides retry
                conn.send(
                    (
                        "fail",
                        worker_id,
                        index,
                        attempt,
                        "%s: %s" % (type(error).__name__, error),
                    )
                )
            done += 1
        if recycle_after is not None and done >= recycle_after:
            conn.send(("recycle", worker_id))
            return


class _Worker:
    """Supervisor-side view of one worker process."""

    __slots__ = ("process", "conn", "queue", "started", "budget")

    def __init__(self, process, conn, budget: Optional[int]):
        self.process = process
        self.conn = conn
        # Dispatched-but-unacknowledged (index, attempt) tasks, in the
        # order the worker processes them: the head is the task in flight
        # (or about to be), so a crash charges exactly the head and the
        # rest of the chunk is requeued uncharged.
        self.queue: "deque[Tuple[int, int]]" = deque()
        # When the head task started (the previous reply's arrival, or the
        # chunk's dispatch); None while the queue is empty.
        self.started: Optional[float] = None
        # Tasks the worker may still be sent before it recycles (None:
        # never recycles).  At 0 it gets nothing more and exits once its
        # queue drains.
        self.budget = budget


class _PoolBroken(Exception):
    """Worker processes cannot be (re)spawned; degrade to in-process."""


# --------------------------------------------------------------- supervisor


class Orchestrator:
    """Supervises worker processes over the open tasks.

    Single-threaded supervisor: each loop iteration reaps dead workers
    (crash isolation), enforces the watchdog, dispatches ready tasks to
    idle workers (one in flight per worker, dispatched the moment its
    previous result drains — the blocking result-queue read wakes on
    arrival, so dispatch latency is queue latency, not poll latency), and
    emits heartbeats.  Workers carry unique ids for their whole lifetime,
    so late messages from a replaced worker can never be mis-attributed to
    its successor.

    Each resolved task's row goes to ``on_row`` and the task is forgotten,
    so a long-lived daemon holds no state per finished request.  The first
    row wins: :meth:`_drain` reads a dead worker's buffered replies before
    anything is charged, so a completed task's real row always precedes a
    fault charge.  ``config`` sets the watchdog budget.
    """

    def __init__(
        self,
        jobs: int,
        options: OrchestratorOptions,
        stats: OrchestratorStats,
        config: AnalysisConfig,
        on_row: Callable[[int, Tuple[BatchEntry, ...]], None],
    ):
        self.jobs = jobs
        self.options = options
        self.stats = stats
        self.on_row = on_row
        self.context = resolve_mp_context(options.mp_context)
        self.watchdog = options.effective_watchdog(config)
        self.tasks_by_index: Dict[int, Task] = {}  # the open tasks
        self.pending: "deque[Tuple[int, int, float]]" = deque()  # index, attempt, not_before
        self.workers: Dict[int, _Worker] = {}
        self.next_worker_id = 0
        self.chunk = 1  # set per run() from dispatch_chunk / task count
        # Optional readable fd included in the supervision wait set so an
        # external submitter can interrupt an idle wait immediately.
        self.wake_fd: Optional[int] = None
        self._started_at = time.monotonic()
        self._last_heartbeat = self._started_at

    def _emit(self, event: str, **data) -> None:
        _send_event(self.options.on_event, event, **data)

    def submit(self, index: int, task: Task) -> None:
        self.tasks_by_index[index] = task
        self._requeue(index, attempt=0)

    # -- worker lifecycle

    def _spawn_worker(self) -> None:
        worker_id = self.next_worker_id
        self.next_worker_id += 1
        try:
            parent_conn, child_conn = self.context.Pipe(duplex=True)
            process = self.context.Process(
                target=_worker_main,
                args=(
                    worker_id,
                    child_conn,
                    self.options.recycle_after,
                    self.options.fault_plan,
                ),
                daemon=True,
            )
            process.start()
        except (OSError, RuntimeError) as error:
            raise _PoolBroken("%s: %s" % (type(error).__name__, error)) from error
        # Close the supervisor's copy of the child end so a worker death
        # surfaces as EOF on the parent end instead of a silent stall.
        child_conn.close()
        budget = self.options.recycle_after
        self.workers[worker_id] = _Worker(
            process, parent_conn, None if budget is None else max(1, budget)
        )

    # -- task resolution

    def _requeue(self, index: int, attempt: int, delay: float = 0.0) -> None:
        self.pending.append((index, attempt, time.monotonic() + delay))

    def _resolve(self, index: int, row: Tuple[BatchEntry, ...]) -> bool:
        """Hand ``row`` to ``on_row`` and forget the task; False when the
        task was already resolved (a late reply after a fault charge)."""
        if self.tasks_by_index.pop(index, None) is None:
            return False
        self.stats.completed += 1
        self.on_row(index, row)
        return True

    def _charge(self, index: int, attempt: int, error: str, elapsed: float) -> None:
        """Resolve a task with a harness-fault row."""
        task = self.tasks_by_index.get(index)
        if task is not None:
            self._resolve(index, _fault_row(index, task[1], attempt, error, elapsed))

    # -- supervision steps

    def _drain(self, worker: _Worker) -> None:
        """Read any replies a dead (or doomed) worker managed to send
        before its pipe is closed: tasks it *completed* get their real
        rows, so the crash charge lands on the task actually in flight."""
        try:
            while worker.conn.poll(0):
                self._handle_result(worker.conn.recv())
        except (EOFError, OSError):
            pass  # torn mid-message; everything drained so far stands

    def _reap(self) -> None:
        for worker_id, worker in list(self.workers.items()):
            if worker.process.exitcode is None:
                continue
            exitcode = worker.process.exitcode
            worker.process.join()
            self._drain(worker)
            worker.conn.close()
            del self.workers[worker_id]
            if exitcode == 0:
                # Clean exit (recycle, or a shutdown race): tasks that were
                # dispatched but never picked up are requeued, not charged.
                for index, attempt in worker.queue:
                    self._requeue(index, attempt)
            else:
                self.stats.crashes += 1
                if worker.queue:
                    index, attempt = worker.queue.popleft()
                    started = worker.started or time.monotonic()
                    self._emit(
                        "worker_crashed",
                        index=index,
                        exitcode=exitcode,
                        attempt=attempt,
                    )
                    self._charge(
                        index,
                        attempt,
                        "worker_crashed: worker exit code %s while analyzing "
                        "contract %d" % (exitcode, index),
                        time.monotonic() - started,
                    )
                    # The rest of the crashed worker's chunk was never
                    # started: requeue uncharged.
                    for idx, att in worker.queue:
                        self._requeue(idx, att)
                else:
                    self._emit("worker_crashed", index=None, exitcode=exitcode)
            worker.queue.clear()
            if self.tasks_by_index and len(self.workers) < self.jobs:
                self._spawn_worker()

    def _check_watchdog(self) -> None:
        if self.watchdog is None:
            return
        now = time.monotonic()
        for worker_id, worker in list(self.workers.items()):
            if (
                not worker.queue
                or worker.started is None
                or worker.process.exitcode is not None
            ):
                continue
            if now - worker.started <= self.watchdog:
                continue
            started = worker.started
            worker.process.kill()
            worker.process.join(timeout=5.0)
            self._drain(worker)
            worker.conn.close()
            del self.workers[worker_id]
            self.stats.watchdog_kills += 1
            if worker.queue:  # _drain may have resolved the whole chunk
                index, attempt = worker.queue.popleft()
                self._emit(
                    "watchdog_kill",
                    index=index,
                    attempt=attempt,
                    stuck_seconds=now - started,
                )
                self._charge(
                    index,
                    attempt,
                    "watchdog_killed: contract %d still running after %.3fs "
                    "(budget x grace = %.3fs)"
                    % (index, now - started, self.watchdog),
                    now - started,
                )
                for idx, att in worker.queue:
                    self._requeue(idx, att)
                worker.queue.clear()
            if self.tasks_by_index and len(self.workers) < self.jobs:
                self._spawn_worker()

    def _dispatch(self) -> None:
        if not self.pending:
            return
        now = time.monotonic()
        for worker in self.workers.values():
            if not self.pending:
                return
            if (
                len(worker.queue) > 1  # refill while the last task runs
                or worker.budget == 0
                or worker.process.exitcode is not None
            ):
                continue
            limit = self.chunk
            if worker.budget is not None:
                limit = min(limit, worker.budget)
            # Honor retry backoff: scan the (small) queue for ready tasks,
            # gathering up to one chunk per dispatch message.
            batch: List[Tuple[int, Task, int]] = []
            for _ in range(len(self.pending)):
                if len(batch) >= limit or not self.pending:
                    break
                index, attempt, not_before = self.pending[0]
                if not_before <= now:
                    self.pending.popleft()
                    batch.append((index, self.tasks_by_index[index], attempt))
                else:
                    self.pending.rotate(-1)
            if not batch:
                continue
            try:
                worker.conn.send(batch)
            except (OSError, ValueError):
                # Worker died before taking the chunk: requeue it
                # uncharged; _reap collects the corpse.
                for index, _task, attempt in batch:
                    self._requeue(index, attempt)
                continue
            if worker.budget is not None:
                worker.budget -= len(batch)
            if not worker.queue:
                worker.started = time.monotonic()
            worker.queue.extend((index, attempt) for index, _task, attempt in batch)
            self.stats.dispatched += len(batch)
            self.stats.ipc_batches += 1

    def _handle_result(self, message) -> None:
        kind = message[0]
        if kind == "recycle":
            _, worker_id = message
            self.stats.recycles += 1
            self._emit("recycle", worker=worker_id)
            return
        _, worker_id, index, attempt, payload = message
        worker = self.workers.get(worker_id)
        if worker is not None and worker.queue and worker.queue[0][0] == index:
            worker.queue.popleft()
            worker.started = time.monotonic() if worker.queue else None
        if kind == "done":
            row = payload
            for entry in row:
                entry.attempts = attempt + 1
            if self._resolve(index, row):
                self._emit("task_done", index=index, attempt=attempt)
        elif kind == "fail":
            if index not in self.tasks_by_index:
                return  # already resolved (e.g. watchdog raced the reply)
            if attempt < self.options.max_retries:
                self.stats.retries += 1
                delay = self.options.backoff_seconds * (2 ** attempt)
                self._requeue(index, attempt + 1, delay)
                self._emit(
                    "retry", index=index, attempt=attempt + 1, error=payload
                )
            else:
                self._charge(
                    index,
                    attempt,
                    "task_failed: %s (after %d attempt(s))"
                    % (payload, attempt + 1),
                    0.0,
                )
                self._emit("task_failed", index=index, error=payload)

    # -- main loop

    def _effective_chunk(self, task_count: int) -> int:
        """Tasks per dispatch message: explicit, or auto-sized like
        ``Pool.map``'s chunksize, capped so recycling still bounds worker
        lifetime and no single worker hoards the queue."""
        chunk = self.options.dispatch_chunk
        if chunk is None:
            chunk = min(32, task_count // (max(1, self.jobs) * 4))
        if self.options.recycle_after is not None:
            chunk = min(chunk, self.options.recycle_after)
        return max(1, chunk)

    def _begin(self) -> None:
        self._started_at = time.monotonic()
        self._last_heartbeat = self._started_at

    def _step(self, timeout: float = 0.05) -> None:
        """One supervision iteration: reap, watchdog, dispatch, then wait
        for worker replies / deaths / an external wake.  Both the sweep
        (:meth:`run`) and the long-lived :class:`PersistentPool` drive
        this method; it never blocks longer than ``timeout``."""
        self._reap()
        self._check_watchdog()
        self._dispatch()
        # Wake on any worker's reply *or* death (process sentinels), so
        # dispatch latency and crash reaction are both bounded by pipe
        # latency, not the poll interval.
        waitables: List[object] = [
            worker.conn for worker in self.workers.values()
        ] + [
            worker.process.sentinel for worker in self.workers.values()
        ]
        if self.wake_fd is not None:
            waitables.append(self.wake_fd)
        if waitables:
            for ready in mp_connection.wait(waitables, timeout=timeout):
                if self.wake_fd is not None and ready == self.wake_fd:
                    try:
                        os.read(self.wake_fd, 65536)
                    except OSError:  # pragma: no cover - torn wake pipe
                        pass
                    continue
                if not hasattr(ready, "recv"):
                    continue  # a sentinel fired; _reap handles it
                try:
                    self._handle_result(ready.recv())
                except (EOFError, OSError):
                    pass  # worker died mid-reply; _reap charges it
        elif timeout:
            time.sleep(min(timeout, 0.01))
        now = time.monotonic()
        if now - self._last_heartbeat >= self.options.heartbeat_seconds:
            self._last_heartbeat = now
            self.stats.heartbeats += 1
            elapsed = now - self._started_at
            self._emit(
                "heartbeat",
                completed=self.stats.completed,
                total=self.stats.completed + len(self.tasks_by_index),
                in_flight=sum(
                    len(worker.queue) for worker in self.workers.values()
                ),
                retries=self.stats.retries,
                crashes=self.stats.crashes,
                watchdog_kills=self.stats.watchdog_kills,
                recycles=self.stats.recycles,
                elapsed_seconds=elapsed,
                throughput=(
                    self.stats.completed / elapsed if elapsed > 0 else 0.0
                ),
            )

    def run(self, tasks: List[Tuple[int, Task]]) -> None:
        """The sweep driver: step on the caller's thread until every task
        resolved.  Raises :class:`_PoolBroken` with the unresolved tasks
        still in ``tasks_by_index``."""
        for index, task in tasks:
            self.submit(index, task)
        self.chunk = self._effective_chunk(len(tasks))
        try:
            while len(self.workers) < min(self.jobs, len(tasks)):
                self._spawn_worker()
            self.stats.workers = len(self.workers)
            self._begin()
            while self.tasks_by_index:
                self._step()
        finally:
            self._shutdown()

    def _shutdown(self) -> None:
        for worker in self.workers.values():
            if worker.process.exitcode is None:
                try:
                    worker.conn.send(None)
                except (OSError, ValueError):  # pragma: no cover - dead pipe
                    pass
        for worker in self.workers.values():
            worker.process.join(timeout=0.5)
            if worker.process.exitcode is None:
                worker.process.kill()
                worker.process.join(timeout=5.0)
            worker.conn.close()
        self.workers.clear()


# ------------------------------------------------------------ serving pool


class PersistentPool:
    """A long-lived supervised worker pool decoupled from any one sweep.

    This is the serving backend behind ``repro serve``: worker processes
    stay warm across requests, each submission is one task carrying its
    own :class:`AnalysisConfig` (so a single pool serves mixed
    engine/kinds/deadline traffic), and :meth:`submit` returns a
    :class:`concurrent.futures.Future` resolving to the task's row — a
    1-tuple of :class:`BatchEntry`, the same shape a single-config sweep
    produces, so every report builder downstream works unchanged.

    Supervision runs on a dedicated thread driving
    :meth:`Orchestrator._step`; submissions cross into it via a
    ``SimpleQueue`` plus a wake pipe included in the supervisor's wait
    set, so an idle pool reacts to a new request at pipe latency, not
    poll latency.  All of the sweep harness survives intact: watchdog
    SIGKILL for hung workers (budget derived from the pool's *base*
    config — per-request deadlines above it are clamped by the kill),
    crash isolation charging exactly the in-flight request, bounded
    retries with backoff, and worker recycling.

    ``jobs=0`` runs every request inline on the pool thread (no worker
    processes — the single-operator deployment), and a failed spawn
    (:class:`_PoolBroken`) degrades to the same inline mode mid-flight:
    open requests are re-run in-process, recorded in ``stats.mode``,
    never dropped.  Inline mode is the sweep's in-process path
    (:class:`_InProcess`).  Neither a worker nor inline mode keeps
    anything of one request for the next: finished work is reused by the
    serving backend's :class:`~repro.core.reuse.ReuseFunnel`, by identity.

    ``task_hook`` is a test seam: called (inline mode only) with
    ``(index, runtime, configs)`` before each analysis, letting tests
    hold the pool busy deterministically to exercise admission limits.
    """

    def __init__(
        self,
        jobs: int = 1,
        options: Optional[OrchestratorOptions] = None,
        config: Optional[AnalysisConfig] = None,
    ):
        self.config = config if config is not None else AnalysisConfig()
        self.jobs = max(0, jobs)
        self.options = options or OrchestratorOptions()
        self.stats = OrchestratorStats(
            mode="persistent" if self.jobs > 0 else "inline"
        )
        self.task_hook: Optional[
            Callable[[int, bytes, Tuple[AnalysisConfig, ...]], None]
        ] = None
        self._lock = threading.Lock()
        self._inbox: "queue_module.SimpleQueue" = queue_module.SimpleQueue()
        self._futures: Dict[int, Future] = {}
        self._next_index = 0
        self._open = 0
        self._closed = False
        self._abandon = False
        self._inline: Optional[_InProcess] = None
        if self.jobs > 0:
            self._wake_read, self._wake_write = os.pipe()
            self._supervisor: Optional[Orchestrator] = Orchestrator(
                self.jobs, self.options, self.stats, self.config, self._finish
            )
            self._supervisor.wake_fd = self._wake_read
            # Serving trades batching for latency: one request per
            # dispatch message unless explicitly chunked.
            self._supervisor.chunk = max(1, self.options.dispatch_chunk or 1)
        else:
            self._wake_read = self._wake_write = None
            self._supervisor = None
        self._thread = threading.Thread(
            target=self._loop, name="repro-persistent-pool", daemon=True
        )
        self._thread.start()

    # -- submission side (any thread)

    @property
    def outstanding(self) -> int:
        """Submitted-but-unresolved request count (admission control)."""
        with self._lock:
            return self._open

    def submit(
        self, runtime: bytes, config: Optional[AnalysisConfig] = None
    ) -> "Future[Tuple[BatchEntry, ...]]":
        """Queue one analysis request; resolves to its row (1 entry).

        Harness faults (crash / watchdog / exhausted retries) resolve the
        future with an *error row*, never an exception — the same
        contract sweeps have — so the caller inspects ``entry.error``.
        The future only raises if the pool is torn down underneath it.
        """
        if config is None:
            config = self.config
        future: "Future[Tuple[BatchEntry, ...]]" = Future()
        with self._lock:
            if self._closed:
                raise RuntimeError("PersistentPool is closed")
            index = self._next_index
            self._next_index += 1
            self._open += 1
            self.stats.tasks_total += 1
            self._futures[index] = future
            self._inbox.put((index, (runtime, (config,))))
        self._wake()
        return future

    def close(self, wait: bool = True) -> None:
        """Stop accepting requests; drain (default) or abandon open ones.

        ``wait=True`` is the graceful SIGTERM path: every already-admitted
        request completes and resolves its future before workers are torn
        down.  ``wait=False`` cancels whatever is still open.
        """
        with self._lock:
            self._closed = True
            if not wait:
                self._abandon = True
        self._wake()
        if self._thread.is_alive():
            self._thread.join()
        if self._wake_read is not None:
            for fd in (self._wake_read, self._wake_write):
                try:
                    os.close(fd)
                except OSError:  # pragma: no cover - already closed
                    pass
            self._wake_read = self._wake_write = None

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close(wait=True)

    # -- pool thread

    def _wake(self) -> None:
        if self._wake_write is not None:
            try:
                os.write(self._wake_write, b"\0")
            except OSError:  # pragma: no cover - pool already torn down
                pass

    def _loop(self) -> None:
        inline = self._supervisor is None
        supervisor = self._supervisor
        if supervisor is not None:
            supervisor._begin()
        try:
            while not self._abandon:
                if not inline:
                    try:
                        self._drain_inbox(supervisor)
                        if (
                            self._closed
                            and not supervisor.tasks_by_index
                            and self._inbox.empty()
                        ):
                            break
                        self._maintain_workers(supervisor)
                        supervisor._step(timeout=0.2)
                    except _PoolBroken as broken:
                        inline = True
                        self.stats.mode = "inline"
                        _send_event(
                            self.options.on_event, "degraded", reason=str(broken)
                        )
                        open_tasks = sorted(supervisor.tasks_by_index.items())
                        supervisor.tasks_by_index.clear()
                        supervisor.pending.clear()
                        supervisor._shutdown()
                        for index, task in open_tasks:
                            self._run_inline(index, task)
                else:
                    try:
                        index, task = self._inbox.get(timeout=0.2)
                    except queue_module.Empty:
                        if self._closed:
                            break
                        continue
                    self._run_inline(index, task)
        finally:
            if supervisor is not None:
                supervisor._shutdown()
            self._cancel_open()

    def _drain_inbox(self, supervisor: Orchestrator) -> None:
        while True:
            try:
                index, task = self._inbox.get_nowait()
            except queue_module.Empty:
                return
            supervisor.submit(index, task)

    def _maintain_workers(self, supervisor: Orchestrator) -> None:
        # Keep the pool warm at full strength (recycled/crashed workers
        # respawn even while idle — the next request must not pay a spawn).
        while len(supervisor.workers) < self.jobs:
            supervisor._spawn_worker()
        if len(supervisor.workers) > self.stats.workers:
            self.stats.workers = len(supervisor.workers)

    def _run_inline(self, index: int, task: Task) -> None:
        if self._inline is None:
            self._inline = _InProcess(
                self.stats, self._finish, self.options.on_event
            )
            if self.stats.workers == 0:
                self.stats.workers = 1
        hook = self.task_hook
        if hook is not None:
            hook(index, *task)
        self._inline.run(index, task)

    def _finish(self, index: int, row: Tuple[BatchEntry, ...]) -> None:
        with self._lock:
            future = self._futures.pop(index, None)
            self._open -= 1
        if future is not None:
            try:
                future.set_result(row)
            except Exception:  # pragma: no cover - submitter cancelled
                pass

    def _cancel_open(self) -> None:
        with self._lock:
            futures = list(self._futures.values())
            self._futures.clear()
            self._open = 0
        for future in futures:
            future.cancel()


# ------------------------------------------------------------------ driving


def run_sweep(
    bytecodes: Sequence[bytes],
    configs: Sequence[AnalysisConfig],
    jobs: int = 1,
    options: Optional[OrchestratorOptions] = None,
) -> List[BatchSummary]:
    """Analyze ``bytecodes`` under every configuration in ``configs``.

    Returns one :class:`BatchSummary` per configuration, index-aligned with
    ``configs`` and entry-ordered by input index.  ``jobs > 1`` over at
    least two submissions runs the supervised :class:`Orchestrator` on
    the caller's thread (mode ``orchestrator``); anything else runs in
    process (mode ``serial``), as does whatever is still open if worker
    processes cannot be spawned (``summary.degraded``).  Every summary
    carries the sweep's :class:`OrchestratorStats` counters in
    ``summary.orchestrator``.

    The sweep is a batch client of :class:`~repro.core.reuse.ReuseFunnel`,
    and claims every submission before it dispatches any.  The first
    submission of each identity (``sha256(bytecode) + config
    fingerprint``) leads, unless ``options.result_cache_path`` already
    holds its row; every later one joins it and gets the leader's row,
    with its own index, once the workers are done, so analysis cost scales
    with *unique* bytecode (§6.1's 38M→240K dedup).  Each row is stored in
    the result cache as it resolves: re-running an interrupted sweep over
    the same cache analyzes only what is left.  ``options.dedup=False`` is
    the naive reference, which analyzes every submission not found
    finished.
    """
    if not configs:
        raise ValueError("run_sweep needs at least one configuration")
    options = options or OrchestratorOptions()
    configs = tuple(configs)
    width = len(configs)
    started = time.monotonic()

    workers = jobs > 1 and len(bytecodes) >= 2
    stats = OrchestratorStats(mode="orchestrator" if workers else "serial")
    degraded_reason: Optional[str] = None

    fingerprint = sweep_fingerprint(configs)
    keys = [identity_key(runtime, fingerprint) for runtime in bytecodes]
    stats.tasks_total = len(keys)
    stats.tasks_unique = len(set(keys))

    funnel = ReuseFunnel(options.result_cache_path)
    claims = funnel.claim_batch(keys, width, coalesce=options.dedup)
    rows: Dict[int, Row] = {}
    for index, row in claims.found.items():
        rows[index] = row
        stats.result_cache_hits += 1
        _send_event(options.on_event, "result_cache_hit", index=index)
    run_list = [(index, bytecodes[index]) for index in claims.leads]

    def on_row(index: int, row: Tuple[BatchEntry, ...]) -> None:
        rows[index] = row
        funnel.resolve(keys[index], row)

    if workers and run_list:
        supervisor = Orchestrator(jobs, options, stats, configs[0], on_row)
        try:
            supervisor.run(
                [(index, (runtime, configs)) for index, runtime in run_list]
            )
        except _PoolBroken as broken:
            degraded_reason = str(broken)
            stats.mode = "serial"
        run_list = [
            task for task in run_list if task[0] in supervisor.tasks_by_index
        ]
    if run_list:
        in_process = _InProcess(stats, on_row, options.on_event)
        for index, runtime in run_list:
            in_process.run(index, (runtime, configs))

    # Fan each leader's row out to the submissions that joined it: its
    # outcome (verdicts, analysis errors, even a harness fault after
    # retries) resolves the whole group at once.
    for index, leader in claims.joined.items():
        rows[index] = copy_row(rows[leader], index)
        stats.dedup_hits += 1
        _send_event(
            options.on_event, "dedup_hit", index=index, representative=leader
        )

    stats.elapsed_seconds = time.monotonic() - started

    summaries = [BatchSummary() for _ in configs]
    for index in sorted(rows):
        for position, entry in enumerate(rows[index]):
            summaries[position].entries.append(entry)
    for summary in summaries:
        summary.orchestrator = stats.as_dict()
        if degraded_reason is not None:
            summary.degraded = True
            summary.degraded_reason = degraded_reason
    return summaries
