"""The HTTP layer of ``hypar serve``: stdlib threading server + lifecycle.

Zero new dependencies: :class:`http.server.ThreadingHTTPServer` gives one
thread per in-flight request (``daemon_threads``, so stragglers cannot
block shutdown), and every request funnels into
:meth:`repro.service.app.HyParService.handle`.  The threading model is

* request threads share the process-wide caches -- the LRU response cache
  (single-flighted, see :mod:`repro.service.cache`) and the compiled-table
  cache of :func:`repro.sweep.cache.shared_table_cache`;
* ``POST /sweep`` bodies fan their grid points into the service's one
  persistent :class:`~repro.sweep.engine.SweepEngine` (safe to share:
  ``ProcessPoolExecutor.map`` is thread-safe, and identical sweeps
  coalesce in the response cache before reaching it).

:func:`serve` is the CLI entry point: it runs the accept loop in a
background thread and parks the main thread on an event that SIGTERM /
SIGINT set, so a signalled daemon drains through the same teardown path as
a normal exit -- server socket closed, worker pool released (the
engine's idempotent, signal-safe ``close``), exit code 0.
"""

from __future__ import annotations

import gc
import signal
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.service.app import JSON_CONTENT_TYPE, HyParService, _render
from repro.service.cache import DEFAULT_CACHE_SIZE

#: Default bind address; loopback-only, this is an internal service.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8100

#: Largest accepted request body; a sweep spec is a few hundred bytes, so
#: one megabyte is generous and bounds memory per request thread.
MAX_BODY_BYTES = 1 << 20


class _BodyError(Exception):
    """A request body that must not (or cannot) be read off the socket."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class _Handler(BaseHTTPRequestHandler):
    """Thin adapter from the HTTP request to ``HyParService.handle``."""

    # Keep-alive: warm clients reuse one connection for a request burst.
    protocol_version = "HTTP/1.1"
    server_version = "hypar-serve"
    # Headers and body go out as separate writes; without TCP_NODELAY the
    # Nagle / delayed-ACK interaction adds ~40 ms to every exchange, two
    # orders of magnitude above a warm cache hit.
    disable_nagle_algorithm = True

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._respond("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._respond("POST")

    def _respond(self, method: str) -> None:
        injector = getattr(self.server, "fault_injector", None)
        if injector is not None:
            action = injector.connection_action()
            if action == "drop":
                # Sever the connection without any response bytes: the
                # client observes a reset/empty reply mid-exchange, the
                # retryable failure class its backoff loop handles.
                self.close_connection = True
                try:
                    self.connection.shutdown(socket.SHUT_RDWR)
                except OSError:  # pragma: no cover - already dead
                    pass
                return
            if action == "delay":
                time.sleep(injector.plan.delay_seconds)
        try:
            body = self._read_body()
        except _BodyError as error:
            # The body was left unread, so the connection's byte stream is
            # no longer aligned with request boundaries -- a keep-alive
            # client's next request would be parsed out of the stale body.
            self.close_connection = True
            self._send(error.status, _render({"error": error.message}))
            return
        status, response = self._handle_with_deadline(method, body)
        self._send(status, response)

    def _handle_with_deadline(self, method: str, body: bytes | None) -> tuple[int, bytes]:
        """``service.handle`` bounded by the server's per-request deadline.

        The handler thread cannot abort a stuck computation, so the work
        runs on a helper daemon thread; on deadline the request answers
        504 and closes the connection while the abandoned computation
        finishes (or dies) harmlessly in the background -- its result
        still lands in the single-flight response cache, and the engine
        pool/caches are untouched by the timeout itself.
        """
        service = self.server.service
        timeout = getattr(self.server, "request_timeout", None)
        if timeout is None:
            return service.handle(method, self.path, body)
        done = threading.Event()
        outcome: dict = {}

        def _work() -> None:
            try:
                outcome["result"] = service.handle(method, self.path, body)
            finally:
                done.set()

        threading.Thread(
            target=_work, name="hypar-serve-compute", daemon=True
        ).start()
        if not done.wait(timeout):
            service.note_timeout()
            # The reply stream is now out of step with the still-running
            # computation; drop the keep-alive connection after the 504.
            self.close_connection = True
            return 504, _render(
                {"error": f"request exceeded the {timeout}s deadline"}
            )
        return outcome.get(
            "result", (500, _render({"error": "internal error: request worker died"}))
        )

    def _read_body(self) -> bytes | None:
        raw = self.headers.get("Content-Length")
        if raw is None or not raw.strip():
            return None
        try:
            length = int(raw)
        except ValueError:
            raise _BodyError(400, f"invalid Content-Length header {raw!r}")
        if length < 0:
            # rfile.read(-1) would block until the peer closes, pinning
            # this request thread forever.
            raise _BodyError(400, f"invalid Content-Length header {raw!r}")
        if length > MAX_BODY_BYTES:
            raise _BodyError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
            )
        return self.rfile.read(length) if length else None

    def _send(self, status: int, response: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", JSON_CONTENT_TYPE)
        self.send_header("Content-Length", str(len(response)))
        if self.close_connection:
            # Advertise the close we are about to perform (body-error
            # paths desynchronize the keep-alive stream).
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(response)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "log_requests", False):
            super().log_message(format, *args)


class ServiceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer owning one :class:`HyParService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: tuple[str, int],
        service: HyParService,
        log_requests: bool = False,
        request_timeout: float | None = None,
        fault_injector=None,
    ) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.log_requests = log_requests
        if request_timeout is not None and request_timeout <= 0:
            raise ValueError(
                f"request_timeout must be positive, got {request_timeout}"
            )
        self.request_timeout = request_timeout
        self.fault_injector = fault_injector

    @property
    def port(self) -> int:
        """The bound port (useful with the ephemeral ``port=0``)."""
        return self.server_address[1]

    def close(self) -> None:
        """Stop accepting, close the socket, release the worker pool."""
        self.shutdown()
        self.server_close()
        self.service.close()


def build_server(
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    workers: int = 1,
    cache_size: int = DEFAULT_CACHE_SIZE,
    log_requests: bool = False,
    request_timeout: float | None = None,
    fault_plan=None,
    cost_model: str = "analytic",
) -> ServiceHTTPServer:
    """A bound (not yet serving) server; ``port=0`` picks a free port.

    Callers (tests, benchmarks) run ``serve_forever`` on their own thread
    and tear down with :meth:`ServiceHTTPServer.close`.

    ``request_timeout`` bounds each request server-side (504 +
    ``Connection: close`` on overrun); ``fault_plan`` installs a
    :class:`~repro.resilience.faults.FaultInjector` for that plan across
    both the HTTP connection seam and the service compute/store seams;
    ``cost_model`` sets the provider applied to requests that omit the
    ``cost_model`` field (``"analytic"`` or ``"profiled:<pack>"``).
    """
    injector = None
    if fault_plan is not None:
        from repro.resilience.faults import FaultInjector

        injector = FaultInjector(fault_plan)
    service = HyParService(
        workers=workers,
        cache_size=cache_size,
        fault_injector=injector,
        default_cost_model=cost_model,
    )
    try:
        return ServiceHTTPServer(
            (host, port),
            service,
            log_requests=log_requests,
            request_timeout=request_timeout,
            fault_injector=injector,
        )
    except BaseException:
        service.close()
        raise


def serve(
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    workers: int = 1,
    cache_size: int = DEFAULT_CACHE_SIZE,
    log_requests: bool = False,
    request_timeout: float | None = None,
    fault_plan=None,
    cost_model: str = "analytic",
    ready: "threading.Event | None" = None,
    stop: "threading.Event | None" = None,
    install_signal_handlers: bool = True,
) -> int:
    """Run the daemon until SIGTERM/SIGINT (the ``hypar serve`` command).

    ``ready`` (set once the socket is bound and serving) and ``stop`` (an
    externally settable shutdown trigger) exist for embedding and tests;
    the CLI passes neither.  Returns 0 on a clean signal-driven exit.
    """
    stop = stop or threading.Event()
    server = build_server(
        host=host, port=port, workers=workers, cache_size=cache_size,
        log_requests=log_requests, request_timeout=request_timeout,
        fault_plan=fault_plan, cost_model=cost_model,
    )
    # The boot heap (imports, registries, the server) lives as long as the
    # daemon: move it out of the collector's generations, so full
    # collections stop re-walking it and stop pausing whichever request
    # is in flight.
    gc.collect()
    gc.freeze()

    previous: dict[int, object] = {}
    if install_signal_handlers:
        def _request_stop(signum, frame):  # noqa: ARG001 - signal API
            stop.set()

        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(signum, _request_stop)

    acceptor = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.1},
        name="hypar-serve-accept",
        daemon=True,
    )
    acceptor.start()
    print(
        f"hypar serve: listening on http://{host}:{server.port} "
        f"(workers={server.service.engine.workers}, "
        f"cache_size={server.service.result_cache.limit})",
        file=sys.stderr,
        flush=True,
    )
    if ready is not None:
        ready.set()
    try:
        # Park until a signal (or an embedder) requests shutdown; wait()
        # rather than join() so KeyboardInterrupt still breaks through on
        # platforms where the handler did not install.
        while not stop.wait(0.5):
            pass
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        acceptor.join(timeout=5.0)
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        gc.unfreeze()
    print("hypar serve: shut down cleanly", file=sys.stderr, flush=True)
    return 0
