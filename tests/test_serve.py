"""The analysis-as-a-service daemon (``repro serve``).

Covers the tentpole contract: /analyze parity with ``repro analyze
--json`` (byte-identical modulo wall-clock fields), /batch NDJSON
streaming with duplicate coalescing, bounded admission (429), /metrics
counter names, graceful drain — in-process via ``request_shutdown`` and
end-to-end via SIGTERM on a real ``python -m repro serve`` subprocess —
plus the persistent pool's fault tolerance and the disk result cache
shared with ``repro sweep``.
"""

import contextlib
import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.core.orchestrator import FaultPlan, OrchestratorOptions, PersistentPool
from repro.corpus import generate_corpus
from repro.serve import AnalysisServer, ServeOptions
from repro.serve.codecs import BadRequest, batch_requests, decode_request

SRC_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)

VOLATILE_FIELDS = ("elapsed_seconds", "stage_seconds")

# A source nested past the recursion limit: a compile error, not a crash.
DEEP_SOURCE = (
    "contract C { function f() public { uint x = %s1%s; } }"
    % ("(" * 3000, ")" * 3000)
)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(6, seed=3)


@pytest.fixture(scope="module")
def bytecodes(corpus):
    return [contract.runtime for contract in corpus]


@contextlib.contextmanager
def running_server(**overrides):
    """An AnalysisServer on a background thread, port auto-assigned."""
    import asyncio

    overrides.setdefault("port", 0)
    overrides.setdefault("jobs", 0)
    options = ServeOptions(**overrides)
    holder = {}
    ready = threading.Event()

    def run():
        async def main():
            server = AnalysisServer(options)
            await server.start()
            holder["server"] = server
            holder["port"] = server.address[1]
            ready.set()
            await server.run_until_shutdown()

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(15), "server failed to start"
    try:
        yield holder["server"], holder["port"]
    finally:
        holder["server"].request_shutdown()
        thread.join(30)
        assert not thread.is_alive(), "server failed to drain"


def request(port, method, path, payload=None, timeout=120):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    body = json.dumps(payload).encode() if payload is not None else None
    conn.request(method, path, body=body)
    response = conn.getresponse()
    data = response.read()
    conn.close()
    return response.status, data


def normalized(report_text):
    """Report JSON with the wall-clock/per-process fields zeroed, re-dumped
    with the same formatting — byte comparison then proves everything else
    (keys, order, values) identical."""
    payload = json.loads(report_text)
    for field in VOLATILE_FIELDS:
        payload[field] = None
    return json.dumps(payload, indent=2)


def cli_report_json(capsys, hex_path, *extra):
    from repro.cli import main

    code = main(["analyze", "--hex", hex_path, "--json", "-", *extra])
    assert code in (0, 1)
    return capsys.readouterr().out


class TestAnalyzeParity:
    @pytest.mark.parametrize("engine", ["python", "datalog"])
    def test_analyze_matches_cli_json(
        self, tmp_path, capsys, bytecodes, engine
    ):
        runtime = bytecodes[2]  # a flagged contract exercises warnings too
        hex_path = tmp_path / "contract.hex"
        hex_path.write_text(runtime.hex())
        cli_text = cli_report_json(capsys, str(hex_path), "--engine", engine)
        with running_server() as (_server, port):
            status, body = request(
                port,
                "POST",
                "/analyze",
                {"bytecode": runtime.hex(), "engine": engine},
            )
        assert status == 200
        served = body.decode()
        assert served.endswith("\n") and cli_text.endswith("\n")
        assert normalized(served) == normalized(cli_text)
        if engine == "datalog":
            # The full EngineStats payload (per-rule maps, stratum list)
            # survives the worker/report path — not just scalars.
            datalog = json.loads(served)["datalog"]
            assert "rule_derivations" in datalog
            assert isinstance(datalog["stratum_iterations"], list)

    def test_duplicate_request_is_byte_identical(self, bytecodes):
        with running_server() as (server, port):
            payload = {"bytecode": bytecodes[0].hex(), "name": "dup"}
            status1, first = request(port, "POST", "/analyze", payload)
            status2, second = request(port, "POST", "/analyze", payload)
            assert (status1, status2) == (200, 200)
            # The duplicate resolved from the completed-row cache: same
            # bytes, timings included, and no second analysis ran.
            assert first == second
            assert server.backend.stats.analyzed == 1
            assert server.backend.stats.report_cache_hits == 1

    def test_minisol_source_input(self):
        source = (
            "contract Owned { address owner;"
            " function set(address o) public { owner = o; } }"
        )
        with running_server() as (_server, port):
            status, body = request(port, "POST", "/analyze", {"source": source})
        assert status == 200
        assert json.loads(body)["schema_version"] == 2

    def test_client_errors_are_400(self, bytecodes):
        with running_server() as (server, port):
            for payload in (
                {"bytecode": "zz"},
                {"bytecode": bytecodes[0].hex(), "engine": "nope"},
                {"bytecode": bytecodes[0].hex(), "kinds": ["not-a-kind"]},
                {"egnine": "python"},
                {},
                {"source": "contract {"},
                {"bundle": [{"address": 1, "source": "contract {"}]},
                # Mistyped fields: a truthy string must not switch value
                # analysis on, nor a 0 switch guards off, and a bad
                # deadline or source must not reach a worker.
                {"bytecode": bytecodes[0].hex(), "value_analysis": "false"},
                {"bytecode": bytecodes[0].hex(), "model_guards": 0},
                {"bytecode": bytecodes[0].hex(), "deadline": "abc"},
                {"source": 42},
                # Wrong-typed bundle spec fields.
                {"bundle": [{"address": 1, "bytecode": "00", "storage": [1, 2]}]},
                {"bundle": [{"address": 1, "source": 5}]},
                {"bundle": [{"address": 1, "bytecode": "00", "name": 5}]},
                {"source": DEEP_SOURCE},
                {"bundle": [{"address": 1, "source": DEEP_SOURCE}]},
            ):
                status, body = request(port, "POST", "/analyze", payload)
                assert status == 400, payload
                assert "error" in json.loads(body)
            assert server.backend.stats.analyzed == 0
            assert request(port, "GET", "/nowhere")[0] == 404
            assert request(port, "GET", "/analyze")[0] == 405


class TestFraming:
    """Content-Length is one value of plain ASCII digits; anything else is
    a 400 sent before any body byte is read (these requests send none, so
    a server that waited for a body would never answer)."""

    @staticmethod
    def exchange(port, *header_lines):
        head = "GET /health HTTP/1.1\r\n%s\r\n" % "".join(
            line + "\r\n" for line in header_lines
        )
        with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
            sock.sendall(head.encode("latin-1"))
            reply = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                reply += chunk
        status = int(reply.split(b" ", 2)[1])
        return status, json.loads(reply.partition(b"\r\n\r\n")[2])

    def assert_bad_length(self, *header_lines):
        with running_server() as (_server, port):
            status, body = self.exchange(port, *header_lines)
        assert (status, body) == (400, {"error": "bad Content-Length"})

    def test_negative_length_is_400(self):
        self.assert_bad_length("Content-Length: -5")

    def test_signed_length_is_400(self):
        self.assert_bad_length("Content-Length: +5")

    def test_underscored_length_is_400(self):
        self.assert_bad_length("Content-Length: 1_0")

    def test_conflicting_lengths_are_400(self):
        self.assert_bad_length("Content-Length: 5", "Content-Length: 6")

    def test_repeated_equal_lengths_are_one_value(self):
        with running_server() as (_server, port):
            status, body = self.exchange(
                port, "Content-Length: 0", "content-length: 0"
            )
        assert status == 200 and body["status"] == "ok"


class TestRemovedEngines:
    def test_deleted_executor_names_are_unknown_engines(self, bytecodes):
        """``datalog-columnar`` and ``datalog-legacy`` named executors the
        engine no longer has: like any unknown engine they are a 400,
        before any analysis."""
        with running_server() as (server, port):
            for engine in ("datalog-legacy", "datalog-columnar"):
                status, body = request(
                    port,
                    "POST",
                    "/analyze",
                    {"bytecode": bytecodes[0].hex(), "engine": engine},
                )
                assert status == 400, engine
                assert "unknown engine %r" % engine in json.loads(body)["error"]
            assert server.backend.stats.analyzed == 0


class TestBatch:
    def test_streams_every_contract_with_indices(self, bytecodes):
        with running_server() as (_server, port):
            status, body = request(
                port,
                "POST",
                "/batch",
                {
                    "contracts": [
                        {"bytecode": b.hex(), "name": "c%d" % i}
                        for i, b in enumerate(bytecodes)
                    ]
                },
            )
        assert status == 200
        lines = [json.loads(line) for line in body.splitlines() if line]
        assert sorted(line["index"] for line in lines) == list(
            range(len(bytecodes))
        )
        for line in lines:
            assert line["report"]["schema_version"] == 2
            assert line["report"]["name"] == "c%d" % line["index"]

    def test_duplicates_coalesce_to_one_analysis(self, bytecodes):
        copies = 6
        with running_server() as (server, port):
            status, body = request(
                port,
                "POST",
                "/batch",
                {
                    "contracts": [
                        {"bytecode": bytecodes[0].hex(), "name": "same"}
                    ]
                    * copies
                },
            )
            stats = server.backend.stats
            assert stats.analyzed == 1
            assert (
                stats.coalesced + stats.report_cache_hits == copies - 1
            )
        assert status == 200
        lines = [json.loads(line) for line in body.splitlines() if line]
        assert len(lines) == copies
        reports = {json.dumps(line["report"], sort_keys=True) for line in lines}
        assert len(reports) == 1  # every duplicate got the same row

    def test_shared_overrides_apply_per_batch(self, bytecodes):
        with running_server() as (_server, port):
            status, body = request(
                port,
                "POST",
                "/batch",
                {
                    "engine": "datalog",
                    "contracts": [{"bytecode": bytecodes[2].hex()}],
                },
            )
        assert status == 200
        line = json.loads(body.splitlines()[0])
        assert line["report"]["datalog"] is not None

    def test_bad_items_never_break_the_stream(self, bytecodes):
        """A source that does not compile is that item's 400, and so is a
        source of the wrong type; every other item still gets its report,
        after a single 200 status line."""
        source = (
            "contract Owned { address owner;"
            " function set(address o) public { owner = o; } }"
        )
        with running_server() as (_server, port):
            status, body = request(
                port,
                "POST",
                "/batch",
                {
                    "contracts": [
                        {"source": "contract {"},
                        {"source": 42},
                        {"source": source},
                        {"bytecode": bytecodes[0].hex()},
                    ]
                },
            )
        assert status == 200
        assert b"HTTP/1.1" not in body
        lines = {
            line["index"]: line
            for line in (json.loads(text) for text in body.splitlines() if text)
        }
        assert sorted(lines) == [0, 1, 2, 3]
        assert lines[0]["status"] == 400
        assert lines[1]["status"] == 400
        for index in (2, 3):
            assert lines[index]["report"]["schema_version"] == 2

    def test_mistyped_item_is_that_items_400(self, bytecodes):
        good = {"bytecode": bytecodes[0].hex()}
        mistyped = [
            dict(good, value_analysis="false"),
            dict(good, model_guards=0),
            dict(good, deadline="abc"),
            {"source": 42},
        ]
        with running_server() as (server, port):
            status, body = request(
                port, "POST", "/batch", {"contracts": [good] + mistyped}
            )
            assert server.backend.stats.analyzed == 1
        assert status == 200
        lines = {
            line["index"]: line
            for line in (json.loads(text) for text in body.splitlines() if text)
        }
        assert lines[0]["report"]["schema_version"] == 2
        for index, field in enumerate(
            ("value_analysis", "model_guards", "deadline", "source"), start=1
        ):
            assert lines[index]["status"] == 400
            assert lines[index]["error"].startswith(field)

    def test_bad_bundle_item_is_that_items_400(self, bytecodes):
        good = {"bytecode": bytecodes[0].hex()}
        bad = [
            {"bundle": [{"address": 1, "bytecode": "00", "storage": [1, 2]}]},
            {"bundle": [{"address": 1, "source": 5}]},
        ]
        with running_server() as (_server, port):
            status, body = request(
                port, "POST", "/batch", {"contracts": [good] + bad}
            )
        assert status == 200
        lines = {
            line["index"]: line
            for line in (json.loads(text) for text in body.splitlines() if text)
        }
        assert lines[0]["report"]["schema_version"] == 2
        for index in (1, 2):
            assert lines[index]["status"] == 400
            assert "bad bundle" in lines[index]["error"]

    def test_malformed_batch_is_400(self):
        with running_server() as (_server, port):
            assert request(port, "POST", "/batch", {})[0] == 400
            assert request(port, "POST", "/batch", {"contracts": []})[0] == 400


REQUEST_FIELDS = sorted(field.name for field in dataclasses.fields(api.AnalyzeRequest))

# Any JSON value; object keys lean towards the names the request and its
# bundle specs accept, so the property reaches past the unknown-field check.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(
        st.sampled_from(["address", "name", "source", "bytecode", "storage"])
        | st.text(max_size=6),
        children,
        max_size=3,
    ),
    max_leaves=10,
)
request_payloads = json_values | st.dictionaries(
    st.sampled_from(REQUEST_FIELDS), json_values, max_size=4
)


class TestCodecs:
    """Any JSON a client sends decodes to a request whose views raise
    nothing but ValueError, or is itself a ValueError (a 400)."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(request_payloads)
    def test_any_json_decodes_or_is_a_value_error(self, payload):
        try:
            decoded = decode_request(payload, api.AnalyzeRequest())
        except ValueError:
            return
        assert isinstance(decoded, api.AnalyzeRequest)
        try:
            decoded.fingerprint()
        except ValueError:
            pass

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.lists(request_payloads, min_size=1, max_size=3))
    def test_any_batch_item_decodes_or_is_its_own_error(self, items):
        decoded = batch_requests({"contracts": items}, api.AnalyzeRequest())
        assert len(decoded) == len(items)
        for item in decoded:
            assert isinstance(item, (api.AnalyzeRequest, BadRequest))


class TestBackpressure:
    def test_admission_full_is_429_but_duplicates_still_land(self, bytecodes):
        release = threading.Event()
        with running_server(max_queue=1) as (server, port):
            server.pool.task_hook = lambda *_args: release.wait(30)
            results = {}

            def first():
                results["first"] = request(
                    port, "POST", "/analyze", {"bytecode": bytecodes[0].hex()}
                )

            holder = threading.Thread(target=first)
            holder.start()
            deadline = time.monotonic() + 10
            while (
                server.backend.open_requests < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert server.backend.open_requests == 1

            # A *different* contract cannot be admitted: 429.
            status, body = request(
                port, "POST", "/analyze", {"bytecode": bytecodes[1].hex()}
            )
            assert status == 429
            assert "queue is full" in json.loads(body)["error"]
            assert server.backend.stats.rejections == 1

            # A *duplicate* of the in-flight contract coalesces instead of
            # queueing, so it is admitted even at capacity.
            def dup():
                results["dup"] = request(
                    port, "POST", "/analyze", {"bytecode": bytecodes[0].hex()}
                )

            joiner = threading.Thread(target=dup)
            joiner.start()
            deadline = time.monotonic() + 10
            while (
                server.backend.stats.coalesced < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert server.backend.stats.coalesced == 1

            release.set()
            holder.join(60)
            joiner.join(60)
            assert results["first"][0] == 200
            assert results["dup"][0] == 200
            assert results["dup"][1] == results["first"][1]


class TestMetrics:
    EXPECTED = [
        "repro_serve_requests_total",
        "repro_serve_queue_depth",
        "repro_serve_inflight_identities",
        "repro_serve_coalesced_requests_total",
        "repro_serve_report_cache_hits_total",
        "repro_serve_result_cache_hits_total",
        "repro_serve_queue_rejections_total",
        "repro_serve_uptime_seconds",
        "repro_orchestrator_workers",
        "repro_orchestrator_dispatched_total",
        "repro_orchestrator_completed_total",
        "repro_orchestrator_heartbeats_total",
        "repro_orchestrator_retries_total",
        "repro_orchestrator_crashes_total",
        "repro_orchestrator_watchdog_kills_total",
        "repro_orchestrator_recycles_total",
    ]

    def test_exposition_format_and_counter_names(self, bytecodes):
        with running_server() as (_server, port):
            request(port, "POST", "/analyze", {"bytecode": bytecodes[0].hex()})
            request(port, "POST", "/analyze", {"bytecode": bytecodes[0].hex()})
            status, body = request(port, "GET", "/metrics")
        assert status == 200
        text = body.decode()
        for name in self.EXPECTED:
            assert "# TYPE %s " % name in text, name
            assert re.search(r"^%s(\{[^}]*\})? \S+$" % name, text, re.M), name
        assert (
            'repro_serve_requests_total{endpoint="analyze",status="200"} 2'
            in text
        )
        assert "repro_serve_report_cache_hits_total 1" in text

    def test_duplicate_heavy_load_shows_dedup_hits(self, bytecodes):
        with running_server() as (_server, port):
            request(
                port,
                "POST",
                "/batch",
                {"contracts": [{"bytecode": bytecodes[0].hex()}] * 8},
            )
            _status, body = request(port, "GET", "/metrics")
        text = body.decode()
        coalesced = int(
            re.search(
                r"^repro_serve_coalesced_requests_total (\d+)$", text, re.M
            ).group(1)
        )
        cached = int(
            re.search(
                r"^repro_serve_report_cache_hits_total (\d+)$", text, re.M
            ).group(1)
        )
        assert coalesced + cached == 7


class TestResultCacheSharing:
    def test_sweep_result_cache_warms_the_daemon(self, tmp_path, bytecodes):
        cache_dir = str(tmp_path / "results")
        summary = api.sweep([bytecodes[0]], result_cache=cache_dir)
        sweep_entry = summary.entries[0]
        with running_server(result_cache=cache_dir) as (server, port):
            status, body = request(
                port, "POST", "/analyze", {"bytecode": bytecodes[0].hex()}
            )
            assert status == 200
            assert server.backend.stats.result_cache_hits == 1
            assert server.backend.stats.analyzed == 0
        # The served report is the sweep's entry, byte for byte — same
        # identity, same stored row, timings included.
        from repro.serve.codecs import report_text

        assert body.decode() == report_text(
            sweep_entry, "", len(bytecodes[0])
        )

    def test_damaged_cache_file_is_a_miss_for_the_daemon(
        self, tmp_path, bytecodes
    ):
        """A cache record whose entries do not rebuild never reaches the
        daemon's memory: the request is analyzed, a repeat is served from
        memory, and the file is rewritten for later sweeps."""
        cache_dir = str(tmp_path / "results")
        api.sweep([bytecodes[0]], result_cache=cache_dir)
        for directory, _, names in os.walk(cache_dir):
            for name in names:
                path = os.path.join(directory, name)
                with open(path) as handle:
                    record = json.load(handle)
                record["entries"] = [1]
                with open(path, "w") as handle:
                    json.dump(record, handle)
        with running_server(result_cache=cache_dir) as (server, port):
            for _ in range(2):
                status, _body = request(
                    port, "POST", "/analyze", {"bytecode": bytecodes[0].hex()}
                )
                assert status == 200
            assert server.backend.stats.result_cache_hits == 0
            assert server.backend.stats.analyzed == 1
        summary = api.sweep([bytecodes[0]], result_cache=cache_dir)
        assert summary.orchestrator["result_cache_hits"] == 1

    def test_daemon_populates_the_cache_for_later_sweeps(
        self, tmp_path, bytecodes
    ):
        cache_dir = str(tmp_path / "results")
        with running_server(result_cache=cache_dir) as (_server, port):
            assert (
                request(
                    port, "POST", "/analyze", {"bytecode": bytecodes[1].hex()}
                )[0]
                == 200
            )
        summary = api.sweep([bytecodes[1]], result_cache=cache_dir)
        assert summary.orchestrator["result_cache_hits"] == 1


class TestDrain:
    def test_in_flight_request_completes_during_drain(self, bytecodes):
        with running_server() as (server, port):
            server.pool.task_hook = lambda *_args: time.sleep(0.3)
            results = {}

            def slow():
                results["response"] = request(
                    port, "POST", "/analyze", {"bytecode": bytecodes[0].hex()}
                )

            thread = threading.Thread(target=slow)
            thread.start()
            deadline = time.monotonic() + 10
            while (
                server.backend.open_requests < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            server.request_shutdown()
            thread.join(60)
        assert results["response"][0] == 200

    def test_sigterm_drains_a_real_daemon(self, bytecodes):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_ROOT + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--jobs", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        try:
            line = process.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", line)
            assert match, "no listening line: %r" % line
            port = int(match.group(2))
            status, body = request(
                port, "POST", "/analyze", {"bytecode": bytecodes[0].hex()}
            )
            assert status == 200
            assert json.loads(body)["schema_version"] == 2
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)


class TestPersistentPool:
    def test_warm_pool_serves_mixed_configs(self, bytecodes):
        with PersistentPool(
            jobs=2, options=OrchestratorOptions(mp_context="fork")
        ) as pool:
            futures = [
                pool.submit(runtime, config)
                for runtime in bytecodes[:3]
                for config in (
                    api.AnalysisConfig(),
                    api.AnalysisConfig(engine="datalog"),
                )
            ]
            rows = [future.result(timeout=120) for future in futures]
        assert all(len(row) == 1 and row[0].error is None for row in rows)
        assert pool.stats.completed == len(futures)

    def test_transient_failures_retry_with_error_row_contract(self, bytecodes):
        options = OrchestratorOptions(
            mp_context="fork",
            fault_plan=FaultPlan(transient_failures={0: 1}),
            backoff_seconds=0.0,
        )
        with PersistentPool(jobs=1, options=options) as pool:
            row = pool.submit(bytecodes[0]).result(timeout=120)
        assert row[0].error is None
        assert row[0].attempts == 2
        assert pool.stats.retries == 1

    def test_worker_crash_charges_one_request_and_pool_survives(
        self, bytecodes
    ):
        options = OrchestratorOptions(
            mp_context="fork", fault_plan=FaultPlan(crash_indices=(0,))
        )
        with PersistentPool(jobs=1, options=options) as pool:
            crashed = pool.submit(bytecodes[0]).result(timeout=120)
            healthy = pool.submit(bytecodes[1]).result(timeout=120)
        assert crashed[0].error.startswith("worker_crashed")
        assert healthy[0].error is None
        assert pool.stats.crashes == 1

    def test_spawn_failure_after_submission_degrades_to_inline(self, bytecodes):
        class RefusingContext:
            def Pipe(self, *args, **kwargs):
                raise OSError("spawn refused")

        events = []
        options = OrchestratorOptions(
            mp_context="fork",
            fault_plan=FaultPlan(crash_indices=(0,)),
            on_event=events.append,
        )
        with PersistentPool(jobs=1, options=options) as pool:
            deadline = time.monotonic() + 30
            while pool.stats.workers < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            # The first worker is up; the replacement for the one request 0
            # crashes cannot be spawned.
            pool._supervisor.context = RefusingContext()
            futures = [pool.submit(runtime) for runtime in bytecodes[:3]]
            rows = [future.result(timeout=120) for future in futures]
        assert pool.stats.mode == "inline"
        degraded = [event for event in events if event["event"] == "degraded"]
        assert [event["reason"] for event in degraded] == ["OSError: spawn refused"]
        assert rows[0][0].error_kind == "worker_crashed"
        assert [row[0].error for row in rows[1:]] == [None, None]
        assert pool.outstanding == 0

    def test_closed_pool_rejects_submissions(self, bytecodes):
        pool = PersistentPool(jobs=0)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(bytecodes[0])
