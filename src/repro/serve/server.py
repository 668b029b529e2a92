"""Asyncio HTTP/JSON front end for the compile service.

A deliberately small, dependency-free server: stdlib ``asyncio``
streams with hand-rolled HTTP/1.1 framing (request line, headers,
``Content-Length`` body; keep-alive supported).  The interesting part
is not the framing but the *service discipline* in front of the
worker pool:

* **Admission control** — at most ``queue_limit`` HTTP requests in
  flight; excess traffic is shed immediately with ``429`` and a
  reason, so a burst degrades into fast rejections instead of an
  unbounded queue.
* **Per-request timeout** — every compile is raced against
  ``timeout_s`` (clients may *lower* it per request, never raise it);
  a pathological source answers ``504`` while concurrent healthy
  requests keep completing.
* **Crash containment** — a worker process dying mid-compile yields a
  reasoned ``500`` and a pool restart, never a wedged queue.

Routes (wire schema in :mod:`repro.service.api`, stats schema in
:mod:`repro.service.stats`)::

    GET  /healthz      -> {"ok": true, ...}
    GET  /stats        -> versioned stats payload
    POST /v1/compile   -> bare request object, or an envelope
                          {"schema": "repro-serve/1", "requests": [...]}
    POST /v1/warmup    -> same body; forces warm_only (no source in
                          the response, cache populated)

A bare single request answers with a single result object (``422`` if
the compile failed); an envelope always answers ``200`` with one
result per entry, in order, each carrying its position in the
envelope as ``index``.  Each entry is submitted to the pool as a
request of its own, so one entry's failure leaves its neighbours'
results alone.
"""

from __future__ import annotations

import asyncio
import json
import signal
from dataclasses import dataclass, replace
from threading import Lock
from time import perf_counter
from typing import Dict, Optional, Tuple

from repro.obs.trace import (
    count_runtime,
    runtime_counters,
    runtime_tracing_enabled,
)
from repro.serve.pool import BrokenProcessPool, CompilePool
from repro.service.api import (
    WIRE_SCHEMA,
    WireError,
    decode_requests,
)
from repro.service.metrics import Histogram
from repro.service.stats import STATS_SCHEMA

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


@dataclass
class ServeConfig:
    """Knobs of one server instance (all have production defaults)."""

    host: str = "127.0.0.1"
    port: int = 8377
    #: Compile worker processes; 0 = inline mode (threads over one
    #: in-process service — no process boundary, fine for tests and
    #: single-host use).
    workers: int = 0
    #: Admission bound: HTTP requests allowed in flight before the
    #: server sheds with 429.
    queue_limit: int = 32
    #: Per-request compile budget (seconds); requests may lower it.
    timeout_s: float = 30.0
    #: Memory-tier capacity per service (per worker in pool mode).
    capacity: int = 512
    #: Shared persistent tier; ``None`` disables it.
    disk_dir: Optional[str] = None
    #: Largest accepted request body.
    max_body_bytes: int = 8 * 1024 * 1024
    #: Idle keep-alive connection timeout (seconds).
    idle_timeout_s: float = 60.0


class ServeMetrics:
    """Always-on front-end counters (one instance per server)."""

    def __init__(self):
        self._lock = Lock()
        self.admitted = 0
        self.shed = 0
        self.timeouts = 0
        self.completed = 0
        self.http_4xx = 0
        self.http_5xx = 0
        self.worker_crashes = 0
        self.inflight = 0
        self.latency = Histogram()
        self.started = perf_counter()

    def record_response(self, status: int, seconds: float) -> None:
        with self._lock:
            if status < 400:
                self.completed += 1
            elif status < 500:
                self.http_4xx += 1
            else:
                self.http_5xx += 1
            self.latency.observe(seconds)

    def stats(self) -> Dict:
        with self._lock:
            out = {
                "admitted": self.admitted,
                "shed": self.shed,
                "timeouts": self.timeouts,
                "completed": self.completed,
                "http_4xx": self.http_4xx,
                "http_5xx": self.http_5xx,
                "worker_crashes": self.worker_crashes,
                "inflight": self.inflight,
                "uptime_s": perf_counter() - self.started,
                "latency": self.latency.stats(),
            }
        if runtime_tracing_enabled():
            out["counters"] = {
                name: value
                for name, value in runtime_counters().items()
                if name.startswith("serve.")
            }
        return out


class CompileServer:
    """The asyncio front end: admission, timeouts, routing, framing."""

    def __init__(self, config: Optional[ServeConfig] = None, *,
                 service=None):
        self.config = config or ServeConfig()
        self.metrics = ServeMetrics()
        #: Injected in-process service (inline mode only; tests use
        #: this to monkeypatch/observe the pipeline behind the server).
        self._service = service
        self.pool: Optional[CompilePool] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._accepting = False
        #: Live connection-handler tasks, cancelled on stop (3.11's
        #: ``Server.wait_closed`` does not wait for handlers).
        self._connections: set = set()

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Build the pool, bind the socket; returns (host, port)."""
        config = self.config
        self.pool = CompilePool(
            config.workers, capacity=config.capacity,
            disk_dir=config.disk_dir,
            service=self._service,
        )
        self._server = await asyncio.start_server(
            self._handle_connection, config.host, config.port,
        )
        self._accepting = True
        sock = self._server.sockets[0].getsockname()
        self.host, self.port = sock[0], sock[1]
        return self.host, self.port

    async def stop(self) -> None:
        """Stop accepting, close the socket, shut the pool down."""
        self._accepting = False
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections,
                                 return_exceptions=True)
        if self.pool is not None:
            # Joined, not abandoned: a process pool's manager thread
            # left running races the interpreter's exit hook, which
            # then writes to the wakeup pipe the thread closed.
            await asyncio.to_thread(self.pool.shutdown)

    # -- routing -------------------------------------------------------

    async def handle(self, method: str, target: str,
                     body: bytes) -> Tuple[int, Dict]:
        """Dispatch one parsed HTTP request; returns (status, payload).

        Exposed as a plain coroutine so tests and the E23 benchmark
        can drive the full admission/pool/timeout path without
        sockets.
        """
        path = target.split("?", 1)[0]
        if path in ("/healthz", "/health"):
            if method != "GET":
                return self._method_not_allowed(method, path)
            return 200, {"ok": True, "workers": self.config.workers,
                         "inflight": self.metrics.inflight}
        if path == "/stats":
            if method != "GET":
                return self._method_not_allowed(method, path)
            return 200, await self._stats_payload()
        if path in ("/v1/compile", "/v1/warmup"):
            if method != "POST":
                return self._method_not_allowed(method, path)
            return await self._compile_route(
                body, warm=path.endswith("/warmup")
            )
        return 404, {
            "error": "not-found",
            "reason": f"no route {method} {path} (have GET /healthz, "
                      "GET /stats, POST /v1/compile, POST /v1/warmup)",
        }

    @staticmethod
    def _method_not_allowed(method: str, path: str) -> Tuple[int, Dict]:
        return 405, {"error": "method-not-allowed",
                     "reason": f"{method} not supported on {path}"}

    async def _compile_route(self, body: bytes,
                             warm: bool) -> Tuple[int, Dict]:
        try:
            payload = json.loads(body.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return 400, {"error": "bad-json",
                         "reason": f"request body is not JSON: {exc}"}
        single = isinstance(payload, dict) and \
            "requests" not in payload and "schema" not in payload
        try:
            requests = decode_requests(payload)
        except WireError as exc:
            return 400, {"error": "bad-request", "reason": str(exc)}
        if warm:
            requests = [replace(req, warm_only=True) for req in requests]

        timeout = self.config.timeout_s
        if isinstance(payload, dict) and "timeout_s" in payload:
            try:
                timeout = min(timeout, float(payload["timeout_s"]))
            except (TypeError, ValueError):
                return 400, {"error": "bad-request",
                             "reason": "timeout_s must be a number"}

        # Admission: the event loop is single-threaded, so check and
        # increment need no lock — there is no await between them.
        if not self._accepting:
            return 503, {"error": "unavailable",
                         "reason": "server is shutting down"}
        if self.metrics.inflight >= self.config.queue_limit:
            self.metrics.shed += 1
            count_runtime("serve.shed")
            return 429, {
                "error": "shed",
                "reason": (
                    f"admission queue full ({self.metrics.inflight} "
                    f"requests in flight >= limit "
                    f"{self.config.queue_limit}); retry with backoff"
                ),
            }
        self.metrics.inflight += 1
        self.metrics.admitted += 1
        count_runtime("serve.admitted")
        try:
            try:
                # A pool whose worker died while idle raises from submit.
                futures = [
                    asyncio.wrap_future(
                        self.pool.submit_wire(req.to_wire()))
                    for req in requests
                ]
                results = await asyncio.wait_for(
                    asyncio.gather(*futures), timeout,
                )
            except asyncio.TimeoutError:
                self.metrics.timeouts += 1
                count_runtime("serve.timeout")
                return 504, {
                    "error": "timeout",
                    "reason": (
                        f"compile did not finish within {timeout:g}s "
                        "(pathological source, oversized batch, or an "
                        "overloaded pool); the request was abandoned"
                    ),
                }
            except BrokenProcessPool:
                self.metrics.worker_crashes += 1
                count_runtime("serve.worker_crash")
                self.pool.restart()
                return 500, {
                    "error": "worker-crash",
                    "reason": (
                        "a compile worker died (crash or kill); the "
                        "pool was restarted — retry the request"
                    ),
                }
        finally:
            self.metrics.inflight -= 1

        for index, result in enumerate(results):
            result["index"] = index
        if single:
            result = results[0]
            result["schema"] = WIRE_SCHEMA
            return (200 if result.get("ok") else 422), result
        return 200, {"schema": WIRE_SCHEMA, "results": results}

    async def _stats_payload(self) -> Dict:
        payload: Dict[str, object] = {
            "schema": STATS_SCHEMA,
            "serve": self.metrics.stats(),
            "workers": self.config.workers,
            "pool_restarts": self.pool.restarts if self.pool else 0,
        }
        future = self.pool.stats_future() if self.pool else None
        if future is not None:
            try:
                service = await asyncio.wait_for(
                    asyncio.wrap_future(future), 5.0,
                )
                service.pop("schema", None)
                if self.config.workers:
                    service["sampled_worker"] = True
                payload["service"] = service
            except Exception:
                payload["service"] = None
        return payload

    # -- HTTP framing --------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while True:
                try:
                    line = await asyncio.wait_for(
                        reader.readline(), self.config.idle_timeout_s,
                    )
                except asyncio.TimeoutError:
                    break
                if not line or not line.strip():
                    break
                parts = line.decode("latin-1").strip().split()
                if len(parts) != 3:
                    await self._respond(
                        writer, 400,
                        {"error": "bad-request-line",
                         "reason": f"malformed request line {line!r}"},
                        close=True,
                    )
                    break
                method, target, version = parts
                headers: Dict[str, str] = {}
                while True:
                    header = await reader.readline()
                    if header in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = \
                        header.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                try:
                    length = int(headers.get("content-length", 0) or 0)
                except ValueError:
                    await self._respond(
                        writer, 400,
                        {"error": "bad-request",
                         "reason": "content-length is not an integer"},
                        close=True,
                    )
                    break
                if length > self.config.max_body_bytes:
                    await self._respond(
                        writer, 413,
                        {"error": "too-large",
                         "reason": f"body of {length} bytes exceeds the "
                                   f"{self.config.max_body_bytes} limit"},
                        close=True,
                    )
                    break
                body = await reader.readexactly(length) if length else b""
                keep_alive = (
                    version.upper() == "HTTP/1.1"
                    and headers.get("connection", "").lower() != "close"
                )
                started = perf_counter()
                try:
                    status, payload = await self.handle(
                        method.upper(), target, body,
                    )
                except Exception as exc:  # route bug: answer, don't drop
                    status, payload = 500, {
                        "error": "internal",
                        "reason": f"{type(exc).__name__}: {exc}",
                    }
                self.metrics.record_response(
                    status, perf_counter() - started,
                )
                await self._respond(writer, status, payload,
                                    close=not keep_alive)
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # client went away; nothing to answer
        except asyncio.CancelledError:
            pass  # server shutting down mid-connection
        finally:
            self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, RuntimeError,
                    asyncio.CancelledError):
                # The handler ends either way; a CancelledError let out
                # here (asyncio.run cancelling it at shutdown) is
                # logged by asyncio's connection callback as a
                # traceback.
                pass

    @staticmethod
    async def _respond(writer: asyncio.StreamWriter, status: int,
                       payload: Dict, close: bool) -> None:
        data = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + data)
        await writer.drain()


def run_server(config: Optional[ServeConfig] = None) -> int:
    """Start a server and block until SIGINT/SIGTERM; returns 0.

    The ``python -m repro serve`` entry point.  Prints the bound
    address on stdout (port 0 picks a free port) so scripts can scrape
    it, and shuts down cleanly on either signal: stop accepting, close
    the socket, drop the pool.
    """

    async def main() -> int:
        server = CompileServer(config)
        host, port = await server.start()
        cfg = server.config
        print(
            f"repro compile service on http://{host}:{port} "
            f"(workers={cfg.workers or 'inline'}, "
            f"queue_limit={cfg.queue_limit}, "
            f"timeout={cfg.timeout_s:g}s"
            + (f", disk={cfg.disk_dir}" if cfg.disk_dir else "")
            + ")",
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:  # non-unix
                pass
        await stop.wait()
        print("repro compile service: shutting down", flush=True)
        await server.stop()
        return 0

    return asyncio.run(main())
