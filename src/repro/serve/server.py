"""The asyncio HTTP/1.1 JSON API of the serving layer.

Stdlib-only (``asyncio`` + ``json``): a hand-rolled HTTP/1.1 request
parser over :func:`asyncio.start_server`, which is all four endpoints
need::

    POST /v1/disassemble   {"binary_b64": ..., "config"?, "timeout_ms"?}
    POST /v1/lint          {... same ..., "disable"?: [rule ids]}
    GET  /healthz
    GET  /metrics

Every request gets a server-assigned id (echoed as ``X-Request-Id``
and in the body), a deadline, and a structured access-log line.
Overload answers are explicit: 413 over ``max_body``, 429 with
``Retry-After`` when the job queue is full, 503 while draining, 504
when a deadline expires.  SIGTERM/SIGINT triggers a graceful drain:
stop accepting, finish in-flight jobs, flush logs, exit.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
import signal
import time
from dataclasses import dataclass

from ..formats import FormatError, load_any
from ..obs.metrics import REGISTRY
from ..obs.trace import Tracer, set_tracer, trace_path_from_env
from .access_log import AccessLog
from .cache import ResultCache, result_key
from .metrics import ServeMetrics
from .protocol import (PROTOCOL_VERSION, JobRequest, ProtocolError,
                       parse_job_body)
from .scheduler import (DrainingError, JobCancelledError, JobFailedError,
                        JobScheduler, JobTimeoutError, QueueFullError,
                        SchedulerConfig)

_MAX_REQUEST_LINE = 8 * 1024
_MAX_HEADER_COUNT = 64


@dataclass(frozen=True)
class _PlainText:
    """A non-JSON response body (Prometheus text exposition)."""

    text: str


@dataclass(frozen=True)
class ServeConfig:
    """Everything ``repro serve`` can tune."""

    host: str = "127.0.0.1"
    port: int = 8080                     # 0 = ephemeral (tests)
    workers: int = 1                     # 0 = inline execution
    max_queue: int = 64
    batch_max: int = 8
    batch_window: float = 0.0            # seconds
    cache_size: int = 256                # result-cache entries
    max_body: int = 64 * 1024 * 1024     # bytes
    default_timeout: float = 120.0       # per-job deadline, seconds
    access_log_path: str | None = None   # None = stderr
    access_log_enabled: bool = True
    #: Span JSONL sink; None falls back to the ``REPRO_TRACE`` env var,
    #: and tracing stays off when neither is set.
    trace_path: str | None = None
    #: Sampling-profile JSON sink; None falls back to ``REPRO_PROFILE``,
    #: and sampling stays off when neither is set.  The document is
    #: written when the server drains or closes.
    profile_path: str | None = None

    def scheduler_config(self) -> SchedulerConfig:
        return SchedulerConfig(workers=self.workers,
                               max_queue=self.max_queue,
                               batch_max=self.batch_max,
                               batch_window=self.batch_window)


class ServeApp:
    """One serving process: HTTP front end + scheduler + cache."""

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config if config is not None else ServeConfig()
        self.metrics = ServeMetrics()
        self.cache = ResultCache(max_entries=self.config.cache_size,
                                 registry=self.metrics.registry)
        self.scheduler = JobScheduler(self.config.scheduler_config(),
                                      metrics=self.metrics)
        self.access_log = AccessLog(path=self.config.access_log_path,
                                    enabled=self.config.access_log_enabled)
        self._ids = itertools.count(1)
        self._server: asyncio.base_events.Server | None = None
        self._draining = False
        self._active_requests = 0
        self._stopped: asyncio.Event | None = None
        self._drain_task: asyncio.Task | None = None
        #: Request-lifecycle tracer (queue -> batch -> worker spans).
        #: Interleaved requests share one asyncio thread, so spans use
        #: the explicit start/finish API, never the thread-local stack.
        self._trace_path = (self.config.trace_path
                            or trace_path_from_env())
        self.tracer = Tracer() if self._trace_path else None
        self._previous_tracer: Tracer | None = None
        from ..obs.profile import profile_path_from_env
        self._profile_path = (self.config.profile_path
                              or profile_path_from_env())
        self._profiler = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        """The actually bound port (resolves ``port=0``)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._stopped = asyncio.Event()
        if self.tracer is not None:
            # Install process-wide so the scheduler's dispatch loop and
            # inline workers see it via current_tracer().
            self._previous_tracer = set_tracer(self.tracer)
        if self._profile_path and self._profiler is None:
            from ..obs.profile import start_profiler
            self._profiler = start_profiler()
        await self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)

    async def serve_forever(self, *, install_signals: bool = False,
                            ready: asyncio.Event | None = None,
                            announce=None) -> None:
        """Start and run until :meth:`initiate_drain` completes."""
        await self.start()
        if install_signals:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(signum, self.initiate_drain, signum)
        if announce is not None:
            announce(f"serving on {self.config.host}:{self.port} "
                     f"({self.config.workers} workers, "
                     f"queue {self.config.max_queue}, "
                     f"cache {self.config.cache_size})")
        if ready is not None:
            ready.set()
        assert self._stopped is not None
        await self._stopped.wait()

    def initiate_drain(self, signum: int | None = None) -> None:
        """Begin graceful shutdown (idempotent, signal-safe)."""
        if self._draining:
            return
        self._draining = True
        self._drain_task = asyncio.ensure_future(self._drain(signum))

    async def _drain(self, signum: int | None) -> None:
        self.access_log.record(event="drain-start",
                               signal=signum if signum is not None else "api",
                               queue_depth=self.scheduler.queue_depth(),
                               in_flight=self.scheduler.in_flight)
        if self._server is not None:
            self._server.close()           # stop accepting connections
            await self._server.wait_closed()
        while self._active_requests > 0:   # finish requests being served
            await asyncio.sleep(0.01)
        await self.scheduler.drain()       # finish queued + in-flight jobs
        self.access_log.record(event="drain-complete")
        self._close_tracer()
        self.access_log.close()            # flush logs last
        assert self._stopped is not None
        self._stopped.set()

    def _close_tracer(self) -> None:
        self._close_profiler()
        if self.tracer is None:
            return
        set_tracer(self._previous_tracer)
        if self._trace_path:
            self.tracer.flush_jsonl(self._trace_path)

    def _close_profiler(self) -> None:
        if self._profiler is None:
            return
        from ..obs.profile import stop_profiler
        stop_profiler()
        self._profiler.write(self._profile_path, command="serve")
        self._profiler = None

    async def aclose(self) -> None:
        """Non-graceful teardown for tests."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.scheduler.stop()
        self._close_tracer()
        self.access_log.close()
        if self._stopped is not None:
            self._stopped.set()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                parsed = await self._read_request(reader)
                if parsed is None:
                    break
                method, path, headers, body, parse_error = parsed
                keep_alive = (not self._draining and parse_error is None
                              and headers.get("connection", "").lower()
                              != "close")
                await self._serve_one(writer, method, path, headers,
                                      body, parse_error, keep_alive)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """Parse one request; returns None on clean EOF.

        Returns ``(method, path, headers, body, error)`` where
        ``error`` is a ready-made (status, message) for malformed input
        whose connection is still in a recoverable state.
        """
        try:
            line = await reader.readline()
        except ValueError:
            return ("GET", "/", {}, b"", (400, "request line too long"))
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            return ("GET", "/", {}, b"", (400, "malformed request line"))
        method, target, _version = parts
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADER_COUNT + 1):
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, sep, value = raw.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        else:
            return (method, target, headers, b"", (400, "too many headers"))
        if "chunked" in headers.get("transfer-encoding", "").lower():
            return (method, target, headers, b"",
                    (501, "chunked bodies not supported"))
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            return (method, target, headers, b"",
                    (400, "bad Content-Length"))
        if length > self.config.max_body:
            # The body is not drained: answer and close the connection.
            return (method, target, headers, b"",
                    (413, f"body exceeds max_body={self.config.max_body}"))
        body = await reader.readexactly(length) if length else b""
        return (method, target, headers, body, None)

    async def _serve_one(self, writer: asyncio.StreamWriter, method: str,
                         path: str, headers: dict[str, str], body: bytes,
                         parse_error, keep_alive: bool) -> None:
        request_id = f"r{next(self._ids):08d}"
        started = time.monotonic()
        self._active_requests += 1
        extra_headers: dict[str, str] = {}
        cached = False
        endpoint = path.split("?")[0]
        span = (self.tracer.start("request", parent="", id=request_id,
                                  method=method, endpoint=endpoint)
                if self.tracer is not None else None)
        try:
            if parse_error is not None:
                status, message = parse_error
                payload: dict | _PlainText = {"error": message,
                                              "id": request_id}
            else:
                status, payload, extra_headers, cached = \
                    await self._dispatch(method, path, body, request_id,
                                         span=span)
        except Exception as error:   # noqa: BLE001 -- last-resort 500
            status = 500
            payload = {"error": f"internal error: {error}",
                       "id": request_id}
        finally:
            self._active_requests -= 1
        elapsed = time.monotonic() - started
        self.metrics.record_request(endpoint, status, elapsed)
        if span is not None and self.tracer is not None:
            self.tracer.finish(span, status=status, cached=cached)
            if self._trace_path:
                self.tracer.flush_jsonl(self._trace_path)
        self.access_log.record(id=request_id, method=method,
                               endpoint=endpoint, status=status,
                               latency_ms=round(elapsed * 1000, 3),
                               cached=cached,
                               bytes_in=len(body))
        if isinstance(payload, _PlainText):
            blob = payload.text.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            blob = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        head = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Status')}",
                f"Content-Type: {content_type}",
                f"Content-Length: {len(blob)}",
                f"X-Request-Id: {request_id}"]
        for name, value in extra_headers.items():
            head.append(f"{name}: {value}")
        head.append("Connection: keep-alive" if keep_alive
                    else "Connection: close")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
                     + blob)
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def _dispatch(self, method: str, path: str, body: bytes,
                        request_id: str, span=None):
        """Returns (status, payload, extra_headers, cached)."""
        path, _, query = path.partition("?")
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "method not allowed"}, {}, False
            return 200, self._healthz_body(), {}, False
        if path == "/metrics":
            if method != "GET":
                return 405, {"error": "method not allowed"}, {}, False
            self._probe()
            if "format=prometheus" in query.split("&"):
                # Serve-layer series plus the process-global pipeline
                # registry (non-empty in inline mode, where jobs run in
                # this process).
                text = (self.metrics.registry.render_prometheus()
                        + REGISTRY.render_prometheus())
                return 200, _PlainText(text), {}, False
            snapshot = self.metrics.snapshot(cache_stats=self.cache.stats())
            return 200, snapshot, {}, False
        if path in ("/v1/disassemble", "/v1/lint"):
            if method != "POST":
                return 405, {"error": "method not allowed"}, {}, False
            kind = "disassemble" if path == "/v1/disassemble" else "lint"
            return await self._handle_job(kind, body, request_id,
                                          span=span)
        return 404, {"error": f"no such endpoint: {path}"}, {}, False

    def _probe(self) -> None:
        """Refresh the probed gauges before a health or metrics body."""
        self.metrics.probe(workers_alive=self.scheduler.workers_alive(),
                           cache_entries=len(self.cache))

    def _healthz_body(self) -> dict:
        self._probe()
        metrics = self.metrics
        return {
            "status": "draining" if self._draining else "ok",
            "protocol": PROTOCOL_VERSION,
            "uptime_s": round(metrics.uptime.value(), 3),
            "workers": self.config.workers,
            "queue_depth": int(metrics.queue_depth.value()),
            "in_flight": int(metrics.in_flight.value()),
            "workers_alive": int(metrics.workers_alive.value()),
        }

    async def _handle_job(self, kind: str, body: bytes, request_id: str,
                          span=None):
        if self._draining:
            return 503, {"error": "draining", "id": request_id}, {}, False
        try:
            parsed = parse_job_body(json.loads(body.decode("utf-8")), kind)
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            return 400, {"error": f"bad JSON body: {error}",
                         "id": request_id}, {}, False
        except ProtocolError as error:
            return error.status, {"error": str(error),
                                  "id": request_id}, {}, False
        # Reject garbage pre-queue, and canonicalize real containers
        # (ELF64/PE32+) to native container bytes: workers only ever
        # see the canonical form, and an ELF payload shares its cache
        # entry with the equivalent .bin payload.
        try:
            image = load_any(parsed.blob, fmt=parsed.format)
        except FormatError as error:
            return 400, {"error": f"bad container: {error}",
                         "id": request_id}, {}, False
        blob = (parsed.blob if image.format == "rprb"
                else image.binary.to_bytes())
        if kind == "lint" and parsed.lint_disable:
            from ..lint import DEFAULT_REGISTRY
            known = {rule.id for rule in DEFAULT_REGISTRY}
            unknown = sorted(set(parsed.lint_disable) - known)
            if unknown:
                return 400, {"error": f"unknown rule(s): "
                                      f"{', '.join(unknown)}",
                             "id": request_id}, {}, False

        # sha256 of the canonical blob, echoed as the response's
        # ``fingerprint``; a later request quoting it as ``base`` takes
        # the incremental near-hit path in the worker (v3).
        fingerprint = hashlib.sha256(blob).hexdigest()
        key = result_key(blob, kind, parsed.config_overrides,
                         extra=",".join(parsed.lint_disable))
        hit = self.cache.get(key)
        if hit is not None:
            return 200, self._job_envelope(request_id, kind, hit,
                                           cached=True,
                                           fingerprint=fingerprint), {}, True

        timeout = (parsed.timeout_ms / 1000.0
                   if parsed.timeout_ms is not None
                   else self.config.default_timeout)
        job = JobRequest(id=request_id, kind=kind, blob=blob,
                         config_overrides=parsed.config_overrides,
                         lint_disable=parsed.lint_disable,
                         base=parsed.base,
                         deadline=time.monotonic() + timeout,
                         trace_ctx=(span.context().as_dict()
                                    if span is not None else None))
        try:
            payload = await self.scheduler.submit(job)
        except QueueFullError as error:
            return (429, {"error": "job queue full", "id": request_id,
                          "retry_after_s": error.retry_after},
                    {"Retry-After": f"{error.retry_after:.0f}"}, False)
        except (JobCancelledError, JobTimeoutError):
            return 504, {"error": "deadline exceeded",
                         "id": request_id,
                         "timeout_ms": int(timeout * 1000)}, {}, False
        except DrainingError:
            return 503, {"error": "draining", "id": request_id}, {}, False
        except JobFailedError as error:
            return 500, {"error": str(error), "kind": error.error_kind,
                         "id": request_id}, {}, False
        self.cache.put(key, payload)
        return 200, self._job_envelope(request_id, kind, payload,
                                       cached=False,
                                       fingerprint=fingerprint), {}, False

    @staticmethod
    def _job_envelope(request_id: str, kind: str, payload: str,
                      cached: bool, fingerprint: str = "") -> dict:
        # json.loads preserves object key order, and json.dumps with
        # default separators reproduces DisassemblyResult.to_json /
        # LintReport.to_json byte-identically -- the serving
        # determinism bar depends on this round-trip.
        field = "result" if kind == "disassemble" else "report"
        envelope = {"id": request_id, "cached": cached,
                    field: json.loads(payload)}
        if kind == "disassemble" and fingerprint:
            envelope["fingerprint"] = fingerprint
        return envelope


_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    501: "Not Implemented", 503: "Service Unavailable",
    504: "Gateway Timeout",
}


def run_server(config: ServeConfig, *, announce=print) -> int:
    """Blocking entry point used by ``repro serve``."""
    app = ServeApp(config)
    try:
        asyncio.run(app.serve_forever(install_signals=True,
                                      announce=announce))
    except KeyboardInterrupt:
        pass
    return 0
