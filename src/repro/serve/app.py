"""The HTTP front of the study: a stdlib-only, pooled JSON server.

Zero third-party dependencies by design — the whole service is
:mod:`http.server` + :mod:`socketserver` + :mod:`threading`.  Three
properties matter and the stdlib defaults give none of them, so this
module adds them:

* **Bounded concurrency** — ``ThreadingHTTPServer`` spawns one thread
  per connection, unbounded.  :class:`PooledHTTPServer` instead hands
  accepted connections to a fixed worker pool through a bounded queue;
  overflow connections get a canned 503 and are closed.  Load sheds,
  memory does not grow.
* **Keep-alive throughput** — handlers speak HTTP/1.1 with exact
  ``Content-Length`` so load-test clients reuse connections; without it
  every request pays a TCP handshake and the throughput gate in
  ``benchmarks/test_bench_serve.py`` is unreachable.
* **Self-measurement** — every request lands in a per-endpoint latency
  histogram (a quantile sketch: 1% relative error from microseconds
  up, mergeable across servers), bumps
  ``serve.requests``/``serve.errors`` counters, and emits a
  ``serve.access`` structured log event.  ``GET /metrics`` serves the
  registry right back.

:class:`ServerHandle` packages server + pool + job queue behind a
context manager with graceful shutdown: stop accepting, drain in-flight
jobs, join the workers.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from queue import Empty, Full, Queue
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.errors import ServeError
from repro.serve.handlers import ServeContext, build_router, status_for

__all__ = ["ServeApp", "PooledHTTPServer", "ServerHandle", "serve_forever"]

_MAX_BODY_BYTES = 1 << 20  # sweeps specs are tiny; reject anything huge
# Seconds a keep-alive connection may sit idle before its worker closes
# it; otherwise ``workers`` idle clients would hold every worker.
_IDLE_TIMEOUT_S = 5.0
_OVERLOAD_RESPONSE = (
    b"HTTP/1.1 503 Service Unavailable\r\n"
    b"Content-Type: application/json\r\n"
    b"Content-Length: 36\r\n"
    b"Connection: close\r\n\r\n"
    b'{"error": "server connection limit"}'
)


class ServeApp:
    """Protocol-free request core: ``(method, path, body) -> response``.

    The HTTP handler below is a thin shell around :meth:`dispatch`;
    everything observable — routing, status mapping, metrics, access
    logs — lives here where tests reach it without a socket.
    """

    def __init__(self, ctx: ServeContext) -> None:
        self.ctx = ctx
        self.router = build_router(ctx)
        self._metrics = ctx.telemetry.metrics
        self._log = ctx.telemetry.log

    def dispatch(
        self, method: str, target: str, body_bytes: bytes | None
    ) -> tuple[int, bytes]:
        """Route one request; returns ``(status, JSON body bytes)``."""
        started = time.perf_counter()
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        match = self.router.match(method, path)
        if match is None:
            allowed = self.router.allowed_methods(path)
            if allowed:
                status, payload = 405, {
                    "error": f"method {method} not allowed",
                    "allowed": list(allowed),
                }
            else:
                status, payload = 404, {"error": f"no route for {path}"}
            name = "unrouted"
        else:
            name = match.route.name
            body, decode_error = self._decode(body_bytes)
            if decode_error is not None:
                status, payload = 400, {"error": decode_error}
            else:
                try:
                    status, payload = match.route.handler(
                        match.params, parse_qs(split.query), body
                    )
                except Exception as exc:
                    status = status_for(exc)
                    payload = {"error": str(exc) or repr(exc)}
                    if status >= 500:
                        self._log.error(
                            "serve.crash", route=name, error=repr(exc)
                        )
        elapsed = time.perf_counter() - started
        self._observe(name, method, path, status, elapsed)
        return status, (json.dumps(payload) + "\n").encode("utf-8")

    @staticmethod
    def _decode(body_bytes: bytes | None) -> tuple[Any, str | None]:
        if not body_bytes:
            return None, None
        try:
            return json.loads(body_bytes.decode("utf-8")), None
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return None, f"request body is not valid JSON: {exc}"

    def _observe(
        self, name: str, method: str, path: str, status: int, elapsed: float
    ) -> None:
        self._metrics.counter("serve.requests").inc()
        if status >= 400:
            self._metrics.counter("serve.errors").inc()
        self._metrics.histogram(f"serve.request_seconds.{name}").observe(
            elapsed
        )
        self._log.info(
            "serve.access",
            method=method,
            path=path,
            status=status,
            route=name,
            duration_ms=round(elapsed * 1000, 3),
        )


class _Handler(BaseHTTPRequestHandler):
    """Socket shell around :class:`ServeApp` — HTTP/1.1 with keep-alive."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1.0"
    # Nagle + delayed-ACK interplay can stall small keep-alive
    # responses for tens of ms; latency matters more than segments.
    disable_nagle_algorithm = True
    timeout = _IDLE_TIMEOUT_S

    def _respond(self) -> None:
        app: ServeApp = self.server.app  # type: ignore[attr-defined]
        length = int(self.headers.get("Content-Length") or 0)
        if length > _MAX_BODY_BYTES:
            body = b'{"error": "request body too large"}\n'
            status = 413
        else:
            payload = self.rfile.read(length) if length else None
            status, body = app.dispatch(self.command, self.path, payload)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    do_GET = _respond
    do_POST = _respond
    do_DELETE = _respond

    def log_message(self, format: str, *args: Any) -> None:
        """Silence the default stderr access log; telemetry has it."""


class PooledHTTPServer(HTTPServer):
    """An :class:`HTTPServer` serviced by a fixed worker-thread pool.

    ``process_request`` enqueues the accepted connection instead of
    handling it inline; *workers* threads drain the queue, each owning a
    keep-alive connection until the peer closes it or it idles out.
    When the queue is full the connection receives a canned 503 and is
    closed — bounded memory under overload, by construction.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        app: ServeApp,
        *,
        workers: int = 16,
        backlog: int = 64,
    ) -> None:
        if workers < 1:
            raise ServeError("server needs at least one worker")
        super().__init__(address, _Handler)
        self.app = app
        self._pending: Queue = Queue(maxsize=max(backlog, 1))
        self._workers = [
            threading.Thread(
                target=self._work, name=f"repro-serve-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    def process_request(self, request, client_address) -> None:
        try:
            self._pending.put_nowait((request, client_address))
        except Full:
            self.app.ctx.telemetry.metrics.counter("serve.overflow").inc()
            try:
                request.sendall(_OVERLOAD_RESPONSE)
            except OSError:
                pass
            self.shutdown_request(request)

    def _work(self) -> None:
        while True:
            item = self._pending.get()
            if item is None:
                return
            request, client_address = item
            try:
                self.finish_request(request, client_address)
            except Exception:  # a broken client must not kill the worker
                self.handle_error(request, client_address)
            finally:
                self.shutdown_request(request)

    def handle_error(self, request, client_address) -> None:
        """Count handler crashes instead of printing tracebacks."""
        self.app.ctx.telemetry.metrics.counter("serve.handler_errors").inc()

    def stop_workers(self, timeout: float = 5.0) -> None:
        """Unblock and join the pool (call after ``shutdown()``).

        Pending connections are shed *before* the ``None`` sentinels go
        in — draining afterwards would steal sentinels back from the
        queue and leave workers blocked on it forever.
        """
        while True:
            try:
                item = self._pending.get_nowait()
            except Empty:
                break
            self.shutdown_request(item[0])
        for _ in self._workers:
            try:
                self._pending.put(None, timeout=timeout)
            except Full:  # pragma: no cover - needs a wedged worker
                break
        for thread in self._workers:
            thread.join(timeout=timeout)


class ServerHandle:
    """A running serve instance with deterministic, graceful teardown.

    Examples
    --------
    ::

        with ServerHandle(ctx, workers=8) as handle:
            urllib.request.urlopen(handle.url + "/health")

    ``close()`` (or leaving the ``with`` block) stops accepting
    connections, drains queued jobs to completion, joins every thread
    and closes the context's corpus store — in-flight work finishes,
    nothing new starts.
    """

    def __init__(
        self,
        ctx: ServeContext,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 16,
        backlog: int = 64,
    ) -> None:
        self.ctx = ctx
        self.app = ServeApp(ctx)
        self.server = PooledHTTPServer(
            (host, port), self.app, workers=workers, backlog=backlog
        )
        self.host, self.port = self.server.server_address[:2]
        self._thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serve-accept",
            daemon=True,
        )
        self._thread.start()
        self._closed = False

    @property
    def url(self) -> str:
        """Base URL of the running server (no trailing slash)."""
        return f"http://{self.host}:{self.port}"

    def close(self, *, drain_jobs: bool = True) -> None:
        """Graceful shutdown: stop accepting, join threads, drain jobs,
        close the store."""
        if self._closed:
            return
        self._closed = True
        self.ctx.telemetry.log.info("serve.shutdown", drain=drain_jobs)
        self.server.shutdown()
        self._thread.join(timeout=10.0)
        self.server.stop_workers()
        self.server.server_close()
        self.ctx.close(drain=drain_jobs)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def serve_forever(
    ctx: ServeContext,
    *,
    host: str = "127.0.0.1",
    port: int = 8000,
    workers: int = 16,
) -> None:
    """Run the server in the foreground until interrupted (the CLI path)."""
    handle = ServerHandle(ctx, host=host, port=port, workers=workers)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        handle.close()
