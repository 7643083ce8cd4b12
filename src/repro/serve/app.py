"""The analysis-as-a-service daemon behind ``repro serve``.

A hand-rolled HTTP/1.1 server on :func:`asyncio.start_server` — no web
framework, no new dependencies — in front of the
:class:`~repro.serve.backend.ServingBackend` funnel and its persistent
warm :class:`~repro.core.orchestrator.PersistentPool`:

* ``POST /analyze`` — one contract (hex ``bytecode`` or MiniSol
  ``source``) → the schema-v2 JSON report, byte-for-byte what ``repro
  analyze --json`` prints;
* ``POST /batch`` — many contracts → NDJSON, one line per contract
  *streamed in completion order* (duplicates coalesce in flight);
* ``GET /health`` — liveness + pool mode;
* ``GET /metrics`` — Prometheus text: serving funnel counters plus the
  orchestrator heartbeat/retry/crash/dedup counters.

Every response closes its connection (``Connection: close``): the
clients this serves are sweep drivers and load balancers, and one
request per connection keeps the parser trivial and the drain story
exact.  On SIGTERM/SIGINT the listener closes, in-flight requests
finish and flush, then the worker pool shuts down — the §6 sweep's
"an operator restart costs zero contracts" property, ported to serving.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import signal
import time
from typing import Dict, Optional, Tuple, Union

from repro.api import AnalyzeRequest
from repro.core.orchestrator import OrchestratorOptions, PersistentPool
from repro.core.report import ContractReport
from repro.core.reuse import is_harness_fault
from repro.serve.backend import QueueFull, ServingBackend
from repro.serve.codecs import (
    BadRequest,
    batch_requests,
    decode_request,
    error_body,
    parse_body,
)
from repro.serve.metrics import Metric, encode_metrics

__all__ = ["ServeOptions", "AnalysisServer", "serve_forever"]

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}

_MAX_BODY_BYTES = 64 * 1024 * 1024  # a whole-chain batch, not a bomb

# One decoded /batch element: its request, or why it did not decode.
_BatchItem = Union[AnalyzeRequest, BadRequest]

# One request's outcome: (200, its report) or (status, error message).
_Outcome = Tuple[int, Union[ContractReport, str]]


@dataclasses.dataclass
class ServeOptions:
    """Daemon configuration (the ``repro serve`` CLI flags)."""

    host: str = "127.0.0.1"
    port: int = 8091
    jobs: int = 1  # worker processes; 0 = analyze inline on the pool thread
    max_queue: int = 64  # open-request admission bound (429 past it)
    result_cache: Optional[str] = None  # disk ResultCache dir (sweep-shared)
    defaults: AnalyzeRequest = dataclasses.field(default_factory=AnalyzeRequest)
    orchestrator: Optional[OrchestratorOptions] = None


class AnalysisServer:
    """One daemon instance: listener, funnel, pool, and counters."""

    def __init__(self, options: Optional[ServeOptions] = None):
        self.options = options or ServeOptions()
        self.pool = PersistentPool(
            jobs=self.options.jobs,
            options=self.options.orchestrator,
            config=self.options.defaults.config(),
        )
        self.backend = ServingBackend(
            self.pool,
            max_queue=self.options.max_queue,
            result_cache=self.options.result_cache,
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown = asyncio.Event()
        self._active_connections = 0
        self._started_at = time.monotonic()
        # (endpoint, status) -> count, for repro_serve_requests_total.
        self._request_counts: Dict[Tuple[str, int], int] = {}

    # -- lifecycle

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._started_at = time.monotonic()
        self._server = await asyncio.start_server(
            self._handle_client, self.options.host, self.options.port
        )

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — port resolved when ``port=0``."""
        assert self._server is not None, "server not started"
        sock = self._server.sockets[0]
        name = sock.getsockname()
        return name[0], name[1]

    def request_shutdown(self) -> None:
        """Begin a graceful drain; safe to call from any thread."""
        if self._loop is None:
            return
        self._loop.call_soon_threadsafe(self._shutdown.set)

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain (main-thread loops only)."""
        assert self._loop is not None
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(signum, self._shutdown.set)
            except (NotImplementedError, RuntimeError, ValueError):
                return  # non-main thread or unsupported platform

    async def run_until_shutdown(self) -> None:
        """Serve until :meth:`request_shutdown` (or a signal), then drain."""
        assert self._server is not None, "call start() first"
        await self._shutdown.wait()
        await self.drain()

    async def drain(self) -> None:
        """Graceful stop: close the listener, let every admitted request
        finish and flush its response, then shut the pool down."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        while self._active_connections or self.backend.open_requests:
            await asyncio.sleep(0.02)
        loop = asyncio.get_running_loop()
        # pool.close joins the supervision thread; keep the loop alive.
        await loop.run_in_executor(None, self.pool.close)

    # -- plumbing

    def _count(self, endpoint: str, status: int) -> None:
        key = (endpoint, status)
        self._request_counts[key] = self._request_counts.get(key, 0) + 1

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        content_type: str = "application/json",
        endpoint: Optional[str] = None,
    ) -> None:
        """Write one whole response, counted under ``endpoint`` if given."""
        if endpoint is not None:
            self._count(endpoint, status)
        head = (
            "HTTP/1.1 %d %s\r\n"
            "Content-Type: %s\r\n"
            "Content-Length: %d\r\n"
            "Connection: close\r\n"
            "\r\n" % (status, _STATUS_TEXT[status], content_type, len(body))
        )
        writer.write(head.encode("ascii") + body)
        await writer.drain()

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._active_connections += 1
        try:
            await self._handle_request(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange
        except Exception as error:  # never let one request kill the daemon
            try:
                await self._respond(
                    writer,
                    500,
                    error_body("internal error: %s" % error),
                    endpoint="internal",
                )
            except ConnectionError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._active_connections -= 1

    async def _handle_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        request_line = await reader.readline()
        if not request_line:
            return
        try:
            method, target, _version = (
                request_line.decode("ascii").strip().split(" ", 2)
            )
        except (UnicodeDecodeError, ValueError):
            await self._respond(writer, 400, error_body("malformed request line"))
            return
        lengths = set()  # every Content-Length value sent
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _sep, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                lengths.add(value.strip())
        # One value of plain ASCII digits: int() would also take "-5",
        # "+5" and "1_0", and conflicting values leave the body unframed.
        if len(lengths) > 1 or not all(
            value.isascii() and value.isdigit() for value in lengths
        ):
            await self._respond(writer, 400, error_body("bad Content-Length"))
            return
        content_length = int(lengths.pop()) if lengths else 0
        if content_length > _MAX_BODY_BYTES:
            await self._respond(
                writer, 413, error_body("request body too large")
            )
            return
        body = (
            await reader.readexactly(content_length)
            if content_length
            else b""
        )
        path = target.split("?", 1)[0]
        if path == "/health" and method == "GET":
            await self._handle_health(writer)
        elif path == "/metrics" and method == "GET":
            await self._handle_metrics(writer)
        elif path == "/analyze" and method == "POST":
            await self._handle_analyze(writer, body)
        elif path == "/batch" and method == "POST":
            await self._handle_batch(writer, body)
        elif path in ("/health", "/metrics", "/analyze", "/batch"):
            await self._respond(
                writer, 405, error_body("method not allowed"), endpoint=path[1:]
            )
        else:
            await self._respond(
                writer, 404, error_body("no such endpoint"), endpoint="unknown"
            )

    # -- endpoints

    async def _handle_health(self, writer: asyncio.StreamWriter) -> None:
        payload = {
            "status": "ok",
            "mode": self.pool.stats.mode,
            "open_requests": self.backend.open_requests,
            "uptime_seconds": round(
                time.monotonic() - self._started_at, 3
            ),
        }
        await self._respond(
            writer,
            200,
            (json.dumps(payload) + "\n").encode("utf-8"),
            endpoint="health",
        )

    async def _handle_metrics(self, writer: asyncio.StreamWriter) -> None:
        await self._respond(
            writer,
            200,
            self.render_metrics().encode("utf-8"),
            content_type="text/plain; version=0.0.4; charset=utf-8",
            endpoint="metrics",
        )

    async def _analyze_one(self, request: AnalyzeRequest) -> _Outcome:
        """One contract request through the backend: its report, or the
        status and message of a 400 (bad input), 429 (admission full) or
        500 (harness fault)."""
        try:
            runtime = request.runtime()
            config = request.config()
        except ValueError as error:
            # UnknownEngineError / UnknownKindError / missing input: all
            # client mistakes.
            return 400, str(error)
        try:
            future = self.backend.submit(runtime, config)
        except QueueFull as error:
            return 429, str(error)
        row = await asyncio.wrap_future(future)
        if is_harness_fault(row):
            return 500, row[0].error
        report = ContractReport.from_entry(
            row[0], name=request.name, bytecode_size=len(runtime)
        )
        return 200, report

    async def _handle_analyze(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> None:
        try:
            request = decode_request(parse_body(body), self.options.defaults)
        except ValueError as error:  # BadRequest included
            await self._respond(
                writer, 400, error_body(str(error)), endpoint="analyze"
            )
            return
        if request.bundle is not None:
            await self._handle_bundle(writer, request)
            return
        status, outcome = await self._analyze_one(request)
        if status == 200:
            body = (outcome.to_json() + "\n").encode("utf-8")
        else:
            body = error_body(outcome)
        await self._respond(writer, status, body, endpoint="analyze")

    async def _handle_bundle(self, writer: asyncio.StreamWriter, request) -> None:
        """Cross-contract ``/analyze`` requests carrying a ``bundle``.

        Bundles bypass the per-contract worker pool (their merged fixpoint
        is not a poolable single-bytecode task) and run on the default
        executor; the response is the :class:`BundleReport` JSON — for a
        single-contract bundle, byte-identical to the plain request shape.
        """
        from repro import api
        from repro.core.report import BundleReport

        try:
            request.config()  # validate engine/kinds before spending work
            if request.bytecode is not None or request.source is not None:
                raise ValueError(
                    "request takes a bundle or bytecode/source, not both"
                )
            result = await asyncio.get_running_loop().run_in_executor(
                None, lambda: api.analyze_bundle(request)
            )
        except ValueError as error:
            await self._respond(
                writer, 400, error_body(str(error)), endpoint="analyze"
            )
            return
        await self._respond(
            writer,
            200,
            (BundleReport.from_result(result).to_json() + "\n").encode("utf-8"),
            endpoint="analyze",
        )

    async def _handle_batch(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> None:
        try:
            requests = batch_requests(parse_body(body), self.options.defaults)
        except BadRequest as error:
            await self._respond(
                writer, 400, error_body(str(error)), endpoint="batch"
            )
            return
        # Stream NDJSON in completion order: headers first (no
        # Content-Length — the connection close delimits the body), then
        # one line per contract the moment its row resolves.
        self._count("batch", 200)
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n"
            b"\r\n"
        )
        await writer.drain()

        async def _line(index: int, request: _BatchItem) -> Dict:
            if isinstance(request, BadRequest):
                return {"index": index, "error": str(request), "status": 400}
            try:
                status, outcome = await self._analyze_one(request)
                if status == 200:
                    return {"index": index, "report": dataclasses.asdict(outcome)}
            except Exception as error:
                # The headers are out: any failure must become this item's
                # line, or it would corrupt the stream for every other item.
                status, outcome = 500, "internal error: %s" % error
            return {"index": index, "error": outcome, "status": status}

        tasks = [
            asyncio.ensure_future(_line(index, request))
            for index, request in enumerate(requests)
        ]
        try:
            for completed in asyncio.as_completed(tasks):
                line = await completed
                writer.write(
                    (json.dumps(line, separators=(",", ":")) + "\n").encode(
                        "utf-8"
                    )
                )
                await writer.drain()
        finally:
            for task in tasks:
                task.cancel()

    # -- metrics

    def render_metrics(self) -> str:
        """The /metrics payload: serving funnel + orchestrator counters."""
        pool = self.pool.stats
        backend = self.backend.stats
        requests = Metric(
            "repro_serve_requests_total",
            "HTTP requests handled, by endpoint and status code.",
            "counter",
        )
        for (endpoint, status), count in sorted(self._request_counts.items()):
            requests.add(count, endpoint=endpoint, status=str(status))
        uptime = round(time.monotonic() - self._started_at, 3)
        # (name, type, value, help) of every unlabeled sample.
        samples = [
            ("repro_serve_queue_depth", "gauge", self.backend.open_requests,
             "Admitted analysis requests not yet resolved."),
            ("repro_serve_inflight_identities", "gauge",
             self.backend.inflight_identities,
             "Distinct request identities currently being analyzed."),
            ("repro_serve_coalesced_requests_total", "counter", backend.coalesced,
             "Requests that joined an in-flight duplicate's analysis."),
            ("repro_serve_report_cache_hits_total", "counter",
             backend.report_cache_hits,
             "Requests resolved from the in-memory completed-row cache."),
            ("repro_serve_result_cache_hits_total", "counter",
             backend.result_cache_hits,
             "Requests resolved from the cross-run disk result cache."),
            ("repro_serve_queue_rejections_total", "counter", backend.rejections,
             "Requests rejected by admission control (HTTP 429)."),
            ("repro_serve_uptime_seconds", "gauge", uptime,
             "Seconds since the daemon started."),
            ("repro_orchestrator_workers", "gauge", pool.workers,
             "Peak worker processes in the persistent pool."),
            ("repro_orchestrator_dispatched_total", "counter", pool.dispatched,
             "Tasks dispatched to workers, retries included."),
            ("repro_orchestrator_completed_total", "counter", pool.completed,
             "Tasks that produced a result row."),
            ("repro_orchestrator_heartbeats_total", "counter", pool.heartbeats,
             "Supervision heartbeats emitted."),
            ("repro_orchestrator_retries_total", "counter", pool.retries,
             "Transient task failures retried with backoff."),
            ("repro_orchestrator_crashes_total", "counter", pool.crashes,
             "Worker processes that died and were respawned."),
            ("repro_orchestrator_watchdog_kills_total", "counter",
             pool.watchdog_kills, "Hung workers SIGKILLed by the watchdog."),
            ("repro_orchestrator_recycles_total", "counter", pool.recycles,
             "Workers retired after recycle_after tasks."),
        ]
        return encode_metrics(
            [requests]
            + [
                Metric(name, help_text, kind).add(value)
                for name, kind, value, help_text in samples
            ]
        )


def serve_forever(options: Optional[ServeOptions] = None) -> None:
    """Blocking entry point: run the daemon until SIGTERM/SIGINT."""
    asyncio.run(_serve_main(options or ServeOptions()))


async def _serve_main(options: ServeOptions) -> None:
    server = AnalysisServer(options)
    await server.start()
    server.install_signal_handlers()
    host, port = server.address
    print(
        "repro serve listening on http://%s:%d (jobs=%d, max_queue=%d)"
        % (host, port, options.jobs, options.max_queue),
        flush=True,
    )
    await server.run_until_shutdown()
