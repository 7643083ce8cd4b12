"""Reuse of finished analyses: one funnel for sweeps and the daemon.

The paper's whole-chain run pays once per unique bytecode (§6.1: ~38M
deployments behind ~240K unique contracts).  Every analysis here has an
identity, ``sha256(runtime bytecode)`` plus the fingerprint of every
configuration it runs under (:func:`identity_key`), and
:class:`ReuseFunnel` is the one place finished work is reused by it.  A
claim on an identity is answered, in order, by:

1. a finished row in the in-memory LRU (:data:`MEMORY_ENTRIES` rows, kept
   as :class:`BatchEntry` tuples; every hit gets a copy);
2. a finished row in the optional disk :class:`ResultCache`, shared by
   every sweep and daemon pointed at the same directory;
3. the future of an in-flight duplicate;
4. otherwise the caller leads: it dispatches the analysis and hands the
   row to :meth:`ReuseFunnel.resolve`, which resolves every waiter and
   stores the row in memory and on disk, unless it is a harness fault
   (:data:`HARNESS_FAULT_KINDS`): those may have been environmental, so
   the next claim retries them.

Two clients drive it.  :class:`repro.serve.backend.ServingBackend`
claims each request as it arrives (:meth:`ReuseFunnel.claim`), and
:func:`repro.core.orchestrator.run_sweep` claims every submission of a
sweep before it dispatches the leaders (:meth:`ReuseFunnel.claim_batch`).
A sweep stores each row as it resolves, so the result cache is also its
resume store: re-running an interrupted sweep over the same directory
analyzes only what is left.  The funnel holds no lock; the daemon's
backend calls it under its own.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import asdict
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.analysis import AnalysisConfig
from repro.core.batch import BatchEntry

# One analysis's entries, one per configuration.
Row = Tuple[BatchEntry, ...]

# Finished rows the funnel keeps in memory.
MEMORY_ENTRIES = 1024

# Error taxonomy buckets that describe the *harness*, not the contract:
# never stored, so a later claim gets a fresh attempt.
HARNESS_FAULT_KINDS = frozenset({"worker_crashed", "watchdog_killed", "task_failed"})

# Where a claim was answered from.
MEMORY = "memory"
DISK = "disk"
JOINED = "joined"


# ----------------------------------------------------------------- identity


def bytecode_digest(runtime_bytecode: bytes) -> str:
    """Content address of a contract: sha256 over the runtime bytecode."""
    return hashlib.sha256(runtime_bytecode).hexdigest()


def config_fingerprint(config: AnalysisConfig, fields: Tuple[str, ...]) -> str:
    """Stable fingerprint of the given :class:`AnalysisConfig` fields:
    configurations with equal values on ``fields`` fingerprint equally."""
    if not fields:
        return "-"
    payload = repr([(name, getattr(config, name)) for name in sorted(fields)])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def analysis_fingerprint(config: AnalysisConfig) -> str:
    """Fingerprint over *every* config field, budgets included: a stored
    ``timeout`` row is only reusable under the same budget."""
    return config_fingerprint(
        config, tuple(field.name for field in dataclasses.fields(config))
    )


def sweep_fingerprint(configs: Sequence[AnalysisConfig]) -> str:
    """Identity of a sweep configuration: every config field, budgets
    included (a stored ``timeout`` entry is only valid under the same
    budget), over every battery configuration in order."""
    return "+".join(analysis_fingerprint(config) for config in configs)


def identity_key(runtime_bytecode: bytes, fingerprint: str) -> str:
    """An analysis identity: bytecode digest plus configuration
    fingerprint (a finished row is only reusable under the exact
    configuration that produced it)."""
    return "%s:%s" % (bytecode_digest(runtime_bytecode), fingerprint)


def is_harness_fault(row: Sequence[BatchEntry]) -> bool:
    """Whether ``row`` records a crash, watchdog kill or exhausted retry."""
    return any(entry.error_kind in HARNESS_FAULT_KINDS for entry in row)


def copy_row(row: Row, index: int) -> Row:
    """``row`` re-addressed to submission ``index``.

    Mutable fields are copied (never aliased) so a consumer can edit one
    submission's entries without touching another's; everything else
    (verdicts, warnings, timings, counters) is the original verbatim."""
    return tuple(
        BatchEntry(
            index=index,
            kinds=entry.kinds,
            error=entry.error,
            elapsed_seconds=entry.elapsed_seconds,
            statement_count=entry.statement_count,
            deadline_exceeded=entry.deadline_exceeded,
            stage_seconds=dict(entry.stage_seconds),
            datalog=dict(entry.datalog),
            block_count=entry.block_count,
            warnings=[dict(warning) for warning in entry.warnings],
            precision=dict(entry.precision),
            attempts=entry.attempts,
        )
        for entry in row
    )


# -------------------------------------------------------------- entry codec


def _is_int(value) -> bool:
    return type(value) is int


def _is_number(value) -> bool:
    return type(value) in (int, float)


# What each BatchEntry field's JSON form must be.  Result-cache files are
# untrusted input: an entry rebuilt around a wrong-typed field would fail
# later, mid-report, where it should have read as a miss.
_ENTRY_FIELD_CHECKS: Dict[str, Callable[[object], bool]] = {
    "index": _is_int,
    "kinds": lambda value: type(value) in (list, tuple)
    and all(type(kind) is str for kind in value),
    "error": lambda value: value is None or type(value) is str,
    "elapsed_seconds": _is_number,
    "statement_count": _is_int,
    "deadline_exceeded": lambda value: type(value) is bool,
    "stage_seconds": lambda value: type(value) is dict
    and all(map(_is_number, value.values())),
    "datalog": lambda value: type(value) is dict,
    "block_count": _is_int,
    "warnings": lambda value: type(value) is list
    and all(type(warning) is dict for warning in value),
    "precision": lambda value: type(value) is dict
    and all(map(_is_int, value.values())),
    "attempts": _is_int,
}


def _entry_from_dict(data: Dict) -> BatchEntry:
    """Rebuild a :class:`BatchEntry` from its JSON form (unknown keys are
    ignored).  Raises :class:`ValueError` when ``data`` is not an object,
    lacks a required field or has a field of the wrong type."""
    if type(data) is not dict:
        raise ValueError("batch entry is not an object")
    payload = {}
    for name, check in _ENTRY_FIELD_CHECKS.items():
        if name in data:
            if not check(data[name]):
                raise ValueError("batch entry field %r has the wrong type" % name)
            payload[name] = data[name]
    payload["kinds"] = tuple(payload.get("kinds") or ())
    try:
        return BatchEntry(**payload)
    except TypeError as error:  # a required field is missing
        raise ValueError("incomplete batch entry: %s" % error) from None


def _json_object(data: bytes) -> Optional[Dict]:
    """``data`` decoded as UTF-8 JSON, if that gives an object; else None."""
    try:
        record = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError):  # UnicodeDecodeError is a ValueError
        return None
    return record if type(record) is dict else None


# -------------------------------------------------------------- result cache


class ResultCache:
    """Disk-backed store of finished rows, shared across runs.

    One JSON file per identity (sharded by key-digest prefix), written
    atomically via a temp file + ``os.replace``.  Each record carries a
    sha256 of its entries' JSON, so a flipped digit cannot turn into a
    wrong cached answer: a file that is torn, not UTF-8 JSON, another
    key's or version's record, fails its digest, or holds entries that do
    not rebuild :class:`BatchEntry` rows reads as a miss, and the next
    :meth:`put` for its key replaces it.
    """

    # 3: rows no longer carry the incremental-repair Datalog counters, so
    # a row stored before that change would report differently from a
    # fresh analysis.  Rows that still carry the per-stage cache counters
    # need no bump: the entry codec ignores keys it does not know.
    VERSION = 3

    def __init__(self, root: str):
        self.root = root
        self.hits = 0
        self.misses = 0
        os.makedirs(root, exist_ok=True)

    def _path(self, key: str) -> str:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return os.path.join(self.root, digest[:2], digest + ".json")

    @staticmethod
    def _digest(entries: List[Dict]) -> str:
        return hashlib.sha256(json.dumps(entries).encode("utf-8")).hexdigest()

    def _read(self, key: str) -> Optional[Row]:
        """The row stored under ``key``, if its file holds a valid record."""
        try:
            with open(self._path(key), "rb") as handle:
                record = _json_object(handle.read())
        except OSError:
            return None
        if (
            record is None
            or record.get("cache") != "repro-sweep-results"
            or record.get("version") != self.VERSION
            or record.get("key") != key
            or type(record.get("entries")) is not list
            or not record["entries"]
            or record.get("digest") != self._digest(record["entries"])
        ):
            return None
        try:
            return tuple(_entry_from_dict(entry) for entry in record["entries"])
        except ValueError:
            return None

    def get(self, key: str) -> Optional[Row]:
        """The row stored under ``key``, or None (counts hit/miss)."""
        row = self._read(key)
        if row is None:
            self.misses += 1
        else:
            self.hits += 1
        return row

    def put(self, key: str, row: Row) -> None:
        """Store ``row`` under ``key``, unless a valid record for it is
        already there; a damaged file is replaced."""
        if self._read(key) is not None:
            return
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        entries = [asdict(entry) for entry in row]
        payload = {
            "cache": "repro-sweep-results",
            "version": self.VERSION,
            "key": key,
            "digest": self._digest(entries),
            "entries": entries,
        }
        # No sort_keys: entry dict ordering (stage order, precision counter
        # order) must survive the round-trip so a replayed report is
        # byte-identical to the one that stored it.
        tmp = path + ".tmp.%d" % os.getpid()
        with open(tmp, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)


# -------------------------------------------------------------------- funnel


class Claim(NamedTuple):
    """How one request's claim was answered: ``source`` is :data:`MEMORY`,
    :data:`DISK` or :data:`JOINED`, and ``future`` resolves to the row
    (already resolved, to a private copy, for a finished row)."""

    source: str
    future: "Future[Row]"


class BatchClaim(NamedTuple):
    """How a batch's claims were answered, by position in the batch."""

    leads: List[int]  # positions the caller dispatches and resolves
    found: Dict[int, Row]  # finished rows, re-addressed to their positions
    joined: Dict[int, int]  # a later duplicate's position -> its leader's


class ReuseFunnel:
    """Finished-row reuse, coalescing and the storage rule over one
    identity space (see the module docstring)."""

    def __init__(self, result_cache: Optional[str] = None):
        self.result_cache = ResultCache(result_cache) if result_cache else None
        self._memory: "OrderedDict[str, Row]" = OrderedDict()
        self._inflight: Dict[str, "Future[Row]"] = {}

    @property
    def inflight(self) -> int:
        """Identities led but not yet resolved."""
        return len(self._inflight)

    def claim(self, identity: str, width: int) -> Optional[Claim]:
        """One request's claim: a finished row, else the in-flight
        duplicate's future; None when the caller must lead (:meth:`lead`,
        dispatch, :meth:`resolve`)."""
        source, row = self._finished(identity, width)
        if row is not None:
            future: "Future[Row]" = Future()
            future.set_result(copy_row(row, row[0].index))
            return Claim(source, future)
        future = self._inflight.get(identity)
        return None if future is None else Claim(JOINED, future)

    def claim_batch(
        self, identities: Sequence[str], width: int, coalesce: bool = True
    ) -> BatchClaim:
        """Claim every identity of a batch before any is dispatched.

        Nothing in a batch resolves until all of it is claimed, so a later
        position of an identity joins the first one directly, the batch
        form of joining in flight; the first leads unless its row is
        finished.  ``coalesce=False``, the naive reference, leads every
        position whose row is not finished."""
        claims = BatchClaim([], {}, {})
        first: Dict[str, int] = {}
        for position, identity in enumerate(identities):
            if coalesce:
                leader = first.setdefault(identity, position)
                if leader != position:
                    claims.joined[position] = leader
                    continue
            row = self._finished(identity, width)[1]
            if row is None:
                claims.leads.append(position)
            else:
                claims.found[position] = copy_row(row, position)
        return claims

    def lead(self, identity: str) -> "Future[Row]":
        """Mark ``identity`` in flight; the future every duplicate joins."""
        future: "Future[Row]" = Future()
        self._inflight[identity] = future
        return future

    def resolve(self, identity: str, row: Row) -> None:
        """Publish a resolved row: resolve every waiter, then store the row
        in memory and on disk unless it is a harness fault."""
        future = self._inflight.pop(identity, None)
        if future is not None:
            future.set_result(row)
        if is_harness_fault(row):
            return
        self._remember(identity, row)
        if self.result_cache is not None:
            try:
                self.result_cache.put(identity, row)
            except OSError:  # a full or unwritable disk costs reuse only
                pass

    def abandon(self, identity: str) -> None:
        """Drop a lead that will never resolve; its waiters are cancelled."""
        future = self._inflight.pop(identity, None)
        if future is not None:
            future.cancel()

    def _finished(
        self, identity: str, width: int
    ) -> Tuple[Optional[str], Optional[Row]]:
        """Where a finished row of ``width`` entries was found, and the row:
        memory first, then disk (a row read from disk is kept in memory)."""
        row = self._memory.get(identity)
        if row is not None:
            self._memory.move_to_end(identity)
            return MEMORY, row
        if self.result_cache is not None:
            row = self.result_cache.get(identity)
            if row is not None and len(row) == width:
                self._remember(identity, row)
                return DISK, row
        return None, None

    def _remember(self, identity: str, row: Row) -> None:
        self._memory[identity] = row
        self._memory.move_to_end(identity)
        if len(self._memory) > MEMORY_ENTRIES:
            self._memory.popitem(last=False)
