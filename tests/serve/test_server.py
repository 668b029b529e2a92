"""The HTTP front end: routes, admission control, timeouts."""

import asyncio
import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro import CompileRequest, CompileService, kernels
from repro.serve import CompileServer, ServeConfig
from repro.service.stats import STATS_SCHEMA

SRC = "array (1,8) [ (i) := i*i | i <- [1..8] ]"


class LiveServer:
    """An inline-mode server on a private loop thread, plus a client."""

    def __init__(self, config=None, service=None):
        self.service = service
        self.server = CompileServer(
            config or ServeConfig(port=0), service=service,
        )
        self._started = threading.Event()
        self._stop = None
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        assert self._started.wait(30), "server failed to start"

    def _run(self):
        async def main():
            self._stop = asyncio.Event()
            self.host, self.port = await self.server.start()
            self._started.set()
            await self._stop.wait()
            await self.server.stop()

        self._loop = asyncio.new_event_loop()
        self._loop.run_until_complete(main())
        self._loop.close()

    def close(self):
        closed = getattr(self.service, "closed", None)
        if closed is not None:
            closed.set()
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30)

    def request(self, method, path, payload=None, raw_body=None):
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=60)
        try:
            body = raw_body if raw_body is not None else (
                json.dumps(payload).encode() if payload is not None
                else None
            )
            conn.request(method, path, body)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()


@pytest.fixture
def live():
    server = LiveServer()
    yield server
    server.close()


class TestRoutes:
    def test_healthz(self, live):
        status, payload = live.request("GET", "/healthz")
        assert status == 200 and payload["ok"] is True

    def test_compile_matches_direct_submit(self, live):
        status, payload = live.request(
            "POST", "/v1/compile", {"src": SRC, "params": {"n": 8}},
        )
        assert status == 200 and payload["ok"]
        direct = CompileService().submit(
            CompileRequest(SRC, params={"n": 8})
        )
        assert payload["source"] == direct.compiled.source
        assert payload["fingerprint"] == direct.fingerprint

    def test_second_request_is_cached(self, live):
        live.request("POST", "/v1/compile", {"src": SRC})
        status, payload = live.request("POST", "/v1/compile",
                                       {"src": SRC})
        assert status == 200
        assert payload["cached"] and payload["tier"] == "memory"

    def test_program_request(self, live):
        status, payload = live.request(
            "POST", "/v1/compile",
            {"src": kernels.PROGRAM_PIPELINE, "params": {"n": 12}},
        )
        assert status == 200 and payload["kind"] == "program"
        assert payload["sources"]  # at least one generated binding

    def test_batch_envelope_isolates_errors(self, live):
        status, payload = live.request("POST", "/v1/compile", {
            "schema": "repro-serve/1",
            "requests": [{"src": SRC}, {"src": "((( nope"}],
        })
        assert status == 200
        ok, bad = payload["results"]
        assert ok["ok"] and not bad["ok"]
        assert bad["error"]["type"]

    def test_warmup_strips_source(self, live):
        status, payload = live.request("POST", "/v1/warmup",
                                       {"src": SRC})
        assert status == 200 and payload["warm_only"]
        assert "source" not in payload
        status, payload = live.request("POST", "/v1/compile",
                                       {"src": SRC})
        assert payload["cached"]

    def test_compile_error_is_422(self, live):
        status, payload = live.request("POST", "/v1/compile",
                                       {"src": "((( nope"})
        assert status == 422
        assert payload["error"]["type"] and not payload["ok"]

    def test_bad_json_is_400(self, live):
        status, payload = live.request("POST", "/v1/compile",
                                       raw_body=b"{nope")
        assert status == 400 and payload["error"] == "bad-json"

    def test_bad_wire_is_400(self, live):
        status, payload = live.request("POST", "/v1/compile",
                                       {"src": SRC, "sorcery": 1})
        assert status == 400 and "sorcery" in payload["reason"]

    def test_malformed_option_value_is_400(self, live):
        status, payload = live.request(
            "POST", "/v1/compile",
            {"src": SRC, "options": {"vectorize": "false", "tile": -3}})
        assert status == 400 and "vectorize" in payload["reason"]

    def test_unknown_route_is_404(self, live):
        status, payload = live.request("GET", "/nope")
        assert status == 404 and payload["error"] == "not-found"

    def test_wrong_method_is_405(self, live):
        status, _ = live.request("GET", "/v1/compile")
        assert status == 405

    def test_oversize_body_is_413(self, live):
        small = LiveServer(ServeConfig(port=0, max_body_bytes=64))
        try:
            status, payload = small.request(
                "POST", "/v1/compile", {"src": "x" * 200},
            )
            assert status == 413 and payload["error"] == "too-large"
        finally:
            small.close()

    def test_stats_schema(self, live):
        live.request("POST", "/v1/compile", {"src": SRC})
        live.request("POST", "/v1/compile", {"src": SRC})
        status, payload = live.request("GET", "/stats")
        assert status == 200
        assert payload["schema"] == STATS_SCHEMA
        assert payload["serve"]["admitted"] == 2
        service = payload["service"]
        assert service["requests"]["hits"] == 1
        assert payload["schema"] == "repro-stats/2"
        assert "shards" not in service["store"]["memory"]


class SlowService(CompileService):
    """A service whose builds block until released (admission tests)."""

    def __init__(self, delay_s):
        super().__init__()
        self.delay_s = delay_s
        self.closed = threading.Event()

    def _compile(self, request, out):
        # A build a test abandoned (a timeout) ends when its server
        # closes, without compiling: it must not run into later tests'
        # parse and pipeline counts.
        if self.closed.wait(self.delay_s):
            raise RuntimeError("server closed")
        return super()._compile(request, out)


class TestAdmission:
    def test_queue_full_sheds_429(self):
        server = LiveServer(
            ServeConfig(port=0, queue_limit=2, timeout_s=30),
            service=SlowService(1.0),
        )
        try:
            results = []

            def fire(i):
                results.append(live_post(server, {
                    "src": f"array (1,{6 + i}) "
                           f"[ (i) := i | i <- [1..{6 + i}] ]",
                }))

            threads = [threading.Thread(target=fire, args=(i,))
                       for i in range(6)]
            for t in threads:
                t.start()
                time.sleep(0.05)  # let earlier requests occupy slots
            for t in threads:
                t.join()
            statuses = sorted(status for status, _ in results)
            assert statuses.count(429) >= 1, statuses
            assert statuses.count(200) >= 2, statuses
            shed = next(p for s, p in results if s == 429)
            assert shed["error"] == "shed" and "retry" in shed["reason"]
        finally:
            server.close()

    def test_pathological_source_times_out_healthy_completes(self):
        server = LiveServer(
            ServeConfig(port=0, queue_limit=8, timeout_s=30),
            service=SlowService(0.0),
        )
        try:
            slow = {
                "schema": "repro-serve/1",
                "timeout_s": 0.3,
                "requests": [{"src": kernels.WAVEFRONT,
                              "params": {"n": 9}}],
            }
            server.server._service.delay_s = 5.0
            outcomes = {}

            def fire(name, payload, delay=0.0):
                time.sleep(delay)
                outcomes[name] = live_post(server, payload)

            t_slow = threading.Thread(target=fire, args=("slow", slow))
            t_slow.start()
            time.sleep(0.6)
            # the pathological request has timed out by now; healthy
            # traffic must still be served promptly
            server.server._service.delay_s = 0.0
            t_fast = threading.Thread(
                target=fire, args=("fast", {"src": SRC}),
            )
            t_fast.start()
            t_slow.join()
            t_fast.join()
            status, payload = outcomes["slow"]
            assert status == 504 and payload["error"] == "timeout"
            assert "abandoned" in payload["reason"]
            status, payload = outcomes["fast"]
            assert status == 200 and payload["ok"]
        finally:
            server.close()

    def test_timeout_counted_in_stats(self):
        server = LiveServer(
            ServeConfig(port=0, timeout_s=0.2),
            service=SlowService(5.0),
        )
        try:
            status, _ = live_post(server, {"src": SRC})
            assert status == 504
            _, stats = server.request("GET", "/stats")
            assert stats["serve"]["timeouts"] == 1
        finally:
            server.close()


def live_post(server, payload):
    return server.request("POST", "/v1/compile", payload)


# ----------------------------------------------------------------------
# A dead pool worker, under ``python -m repro serve``.


def _alive(pid):
    """Whether ``pid`` runs (a zombie has exited)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _live(field, value):
    """Live processes whose ``/proc/<pid>/stat`` ``field`` (1: parent,
    2: process group) is ``value``."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[field]) == value and _alive(int(stat.parent.name)):
            found.append(int(stat.parent.name))
    return found


def _children(pid):
    """Live processes whose parent is ``pid``."""
    return _live(1, pid)


def _group(pgid):
    """Live processes in process group ``pgid``: a server started in
    its own session, and every worker it forked, wherever reparented."""
    return _live(2, pgid)


def _wait_for(predicate, timeout):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="needs /proc to find the pool's workers")
class TestWorkerKills:
    """A pool worker that dies neither stops nor wedges the server."""

    @pytest.fixture
    def served(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--serve-workers", "1"],
            env=dict(os.environ, PYTHONPATH=src),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            start_new_session=True,
        )
        log = []
        reader = threading.Thread(
            target=lambda: log.extend(iter(server.stdout.readline, "")),
            daemon=True,
        )
        reader.start()
        try:
            def banner():
                return next((line for line in log
                             if "compile service on http://" in line), None)

            assert _wait_for(banner, 60), f"server never booted: {log}"
            port = int(banner().split("http://", 1)[1].split()[0]
                       .rsplit(":", 1)[1])

            def post():
                conn = http.client.HTTPConnection("127.0.0.1", port,
                                                  timeout=60)
                try:
                    conn.request("POST", "/v1/compile",
                                 json.dumps({"src": SRC}))
                    response = conn.getresponse()
                    return response.status, json.loads(response.read())
                finally:
                    conn.close()

            def healthz():
                conn = http.client.HTTPConnection("127.0.0.1", port,
                                                  timeout=10)
                try:
                    conn.request("GET", "/healthz")
                    return conn.getresponse().status
                finally:
                    conn.close()

            def worker():
                found = _children(server.pid)
                assert len(found) == 1, found
                return found[0]

            yield server, log, post, healthz, worker
        finally:
            if server.poll() is None:
                server.terminate()
            try:
                server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait(timeout=30)
            # A live worker holds the log pipe open: kill leftovers
            # before the reader is joined and the pipe closed.
            _wait_for(lambda: not _group(server.pid), 5)
            left = _group(server.pid)
            for pid in left:
                os.kill(pid, signal.SIGKILL)
            reader.join(timeout=10)
            server.stdout.close()
            assert not left, f"pool workers outlived the server: {left}"

    @pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL],
                             ids=["term", "kill"])
    def test_server_survives_and_restarts_the_pool(self, served, sig):
        server, log, post, healthz, worker = served
        status, payload = post()
        assert status == 200 and payload["ok"]
        dead = worker()
        os.kill(dead, sig)
        assert _wait_for(lambda: not _alive(dead), 10)
        time.sleep(0.5)  # a TERM relayed to the server acts by now
        assert server.poll() is None and healthz() == 200
        assert not any("shutting down" in line for line in log)
        status, payload = post()
        if status != 200:
            assert status == 500 and payload["error"] == "worker-crash"
            status, payload = post()
        assert status == 200 and payload["ok"]
        assert worker() != dead
        server.terminate()
        assert server.wait(timeout=30) == 0
        assert _wait_for(
            lambda: any("shutting down" in line for line in log), 10)

    @pytest.mark.parametrize("worker_first", [False, True],
                             ids=["server-first", "worker-first"])
    def test_term_to_server_and_worker_leaves_no_process(self, served,
                                                        worker_first):
        # One TERM each, sent together (as ``pkill -f`` does): the
        # server shuts down cleanly and no worker outlives it.
        server, log, post, healthz, worker = served
        status, payload = post()
        assert status == 200 and payload["ok"]
        pids = [server.pid, worker()]
        for pid in (pids[::-1] if worker_first else pids):
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:  # the shutdown reaped it first
                pass
        assert server.wait(timeout=30) == 0
        assert _wait_for(
            lambda: any("shutting down" in line for line in log), 10)
        assert _wait_for(lambda: not _group(server.pid), 5), \
            _group(server.pid)
