"""A thin stdlib client for the ``hypar serve`` daemon.

Used by the service tests, the throughput benchmark and scripts; it is
also a reference for talking to the daemon from anywhere else (the README
shows the equivalent ``curl`` invocations).  One persistent keep-alive
connection per client -- a ``TCP_NODELAY`` socket and one buffered reader
-- transparently re-opened when the server side closes it between
requests.

Each request (request line, ``Host``, ``Accept-Encoding: identity``,
``Content-Length``, ``Content-Type`` and the JSON body) goes out in one
``sendall``.  :func:`read_response` reads the answer under http.client's
limits and rules: interim ``100`` responses skipped, the body framed by
``Content-Length`` (or by the peer's close), ``Connection: close``
honoured.  It raises http.client's own exception types
(``RemoteDisconnected``, ``BadStatusLine``, ``LineTooLong``,
``IncompleteRead``) or ``OSError``, so the retry policy below treats a
failure exactly as it would with :mod:`http.client`.  The daemon never
sends a chunked body, so a chunked response is an error here.

Transient transport failures (connection refused/reset, socket timeouts,
a keep-alive connection the server dropped) are retried with exponential
backoff plus jitter, up to ``retries`` attempts.  Two things are *never*
retried:

* any response actually received -- a 4xx/5xx is an answer, not a
  transport failure (retrying a 400 would just repeat it);
* a request marked ``idempotent=False`` once bytes may have reached the
  wire -- the daemon's endpoints are all deterministic reads, so the
  default is idempotent, but the flag exists for callers that are not.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import random
import re
import socket
import time
from typing import BinaryIO

from repro.service.framing import MAX_LINE, header_fields

#: What http.client refuses in a request target (CVE-2019-9740).
_BAD_TARGET = re.compile(r"[\x00-\x20\x7f]")


class ServiceClientError(RuntimeError):
    """A non-2xx response, carrying the status and the error body."""

    def __init__(self, status: int, body: bytes) -> None:
        try:
            detail = json.loads(body).get("error", body.decode(errors="replace"))
        except (ValueError, AttributeError):
            detail = body.decode(errors="replace")
        super().__init__(f"HTTP {status}: {detail}")
        self.status = status
        self.body = body


def _read_headers(reader: BinaryIO) -> dict[str, str]:
    """Header lines up to the blank line: lower-cased name -> first value."""
    headers: dict[str, str] = {}
    for name, value in header_fields(reader.readline):
        headers.setdefault(name, value)
    return headers


def _read_status(reader: BinaryIO) -> tuple[str, int]:
    line = str(reader.readline(MAX_LINE + 1), "iso-8859-1")
    if len(line) > MAX_LINE:
        raise http.client.LineTooLong("status line")
    if not line:
        raise http.client.RemoteDisconnected(
            "Remote end closed connection without response"
        )
    parts = line.split(None, 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/"):
        raise http.client.BadStatusLine(line)
    try:
        status = int(parts[1])
    except ValueError:
        raise http.client.BadStatusLine(line) from None
    if not 100 <= status <= 999:
        raise http.client.BadStatusLine(line)
    return parts[0], status


def read_response(reader: BinaryIO, method: str = "GET") -> tuple[int, bytes, bool]:
    """One response off ``reader``: ``(status, body, will_close)``.

    Follows ``http.client.HTTPResponse.begin`` and ``read()``: interim
    ``100 Continue`` responses are skipped; HTTP/1.1 keeps the connection
    unless ``Connection`` names ``close``, HTTP/1.0 closes it unless a
    keep-alive header says otherwise; a body without a usable
    ``Content-Length`` runs to the peer's close.  A chunked body raises
    :class:`http.client.HTTPException`.
    """
    while True:
        version, status = _read_status(reader)
        if status != 100:
            break
        _read_headers(reader)
    if version in ("HTTP/1.0", "HTTP/0.9"):
        http11 = False
    elif version.startswith("HTTP/1."):
        http11 = True
    else:
        raise http.client.UnknownProtocol(version)
    headers = _read_headers(reader)
    if headers.get("transfer-encoding", "").lower() == "chunked":
        raise http.client.HTTPException("chunked responses are not supported")
    connection = headers.get("connection", "").lower()
    if http11:
        will_close = "close" in connection
    else:
        will_close = not (
            headers.get("keep-alive")
            or "keep-alive" in connection
            or "keep-alive" in headers.get("proxy-connection", "").lower()
        )
    try:
        length = int(headers.get("content-length", ""))
    except ValueError:
        length = -1
    if status in (204, 304) or status < 200 or method == "HEAD":
        length = 0
    if length < 0:  # no usable length: the body runs to the peer's close
        return status, reader.read(), True
    body = reader.read(length)
    if len(body) < length:
        raise http.client.IncompleteRead(body, length - len(body))
    return status, body, will_close


@dataclasses.dataclass(frozen=True)
class ServiceResponse:
    """Raw status and body of one exchange (bytes kept for parity tests)."""

    status: int
    body: bytes

    def json(self):
        return json.loads(self.body)


class ServiceClient:
    """Talks JSON to a running daemon at ``host:port``.

    Parameters
    ----------
    retries:
        Total attempts per request (default 3); ``1`` disables retrying.
    backoff, max_backoff:
        Exponential backoff base and cap in seconds: attempt ``n`` sleeps
        ``min(max_backoff, backoff * 2**(n-1))`` before retrying.
    jitter:
        Fractional jitter added on top of the backoff (``0.25`` means up
        to +25%), decorrelating retry storms from many clients.
    rng:
        Jitter randomness source; seeded by default so tests are
        deterministic (jitter only shapes sleep times, never payloads).
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 60.0,
        retries: int = 3,
        backoff: float = 0.05,
        max_backoff: float = 2.0,
        jitter: float = 0.25,
        rng: random.Random | None = None,
    ) -> None:
        if retries < 1:
            raise ValueError(f"retries must be >= 1, got {retries}")
        if backoff < 0 or max_backoff < 0 or jitter < 0:
            raise ValueError("backoff, max_backoff and jitter must be >= 0")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.max_backoff = max_backoff
        self.jitter = jitter
        self._rng = rng if rng is not None else random.Random(0)
        self.retried = 0
        self._host_header = f"[{host}]:{port}" if ":" in host else f"{host}:{port}"
        self._sock: socket.socket | None = None
        self._reader: BinaryIO | None = None

    # ------------------------------------------------------------------
    # Transport.
    # ------------------------------------------------------------------

    def _connect(self) -> tuple[socket.socket, BinaryIO]:
        if self._sock is None:
            sock = socket.create_connection((self.host, self.port), self.timeout)
            # Each request is one write, but Nagle would still hold it
            # back until the previous segment's (delayed) ACK.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock, self._reader = sock, sock.makefile("rb")
        return self._sock, self._reader

    def close(self) -> None:
        if self._sock is not None:
            self._reader.close()
            self._sock.close()
            self._sock = self._reader = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _sleep_backoff(self, attempt: int) -> None:
        delay = min(self.max_backoff, self.backoff * (2 ** (attempt - 1)))
        delay *= 1.0 + self.jitter * self._rng.random()
        if delay > 0:
            time.sleep(delay)

    def request(
        self, method: str, path: str, payload=None, idempotent: bool = True
    ) -> ServiceResponse:
        """One exchange; returns the raw response, whatever the status.

        Transport failures retry up to ``self.retries`` attempts with
        exponential backoff.  A received response is returned as-is (a
        4xx is never retried), and with ``idempotent=False`` a failure
        after bytes may have been sent propagates instead of retrying.
        """
        message = self._message(method, path, payload)
        last_error: Exception | None = None
        for attempt in range(self.retries):
            if attempt:
                self.retried += 1
                self._sleep_backoff(attempt)
            try:
                sock, reader = self._connect()
            except OSError as error:
                # Connect failures (refused/reset/timeout): nothing was
                # sent, so retrying is always safe.
                self.close()
                last_error = error
                continue
            try:
                sock.sendall(message)
                status, body, will_close = read_response(reader, method)
            except (http.client.HTTPException, OSError) as error:
                # Dropped mid-exchange (stale keep-alive, injected drop,
                # server restart).  Bytes may have reached the wire, so
                # only idempotent requests retry from here.
                self.close()
                last_error = error
                if not idempotent:
                    raise
                continue
            if will_close:
                self.close()
            return ServiceResponse(status, body)
        assert last_error is not None
        raise last_error

    def _message(self, method: str, path: str, payload) -> bytes:
        """The request's bytes, head and JSON body, for one ``sendall``."""
        for part in (method, path):
            if _BAD_TARGET.search(part):
                raise http.client.InvalidURL(
                    f"request method and path can't contain control characters "
                    f"or spaces: {part!r}"
                )
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self._host_header}\r\n"
            "Accept-Encoding: identity\r\n"
        )
        body = b""
        if payload is not None:
            body = json.dumps(payload).encode()
            head += f"Content-Length: {len(body)}\r\nContent-Type: application/json\r\n"
        return f"{head}\r\n".encode("ascii") + body

    def _checked(self, method: str, path: str, payload=None) -> dict:
        response = self.request(method, path, payload)
        if response.status != 200:
            raise ServiceClientError(response.status, response.body)
        return response.json()

    # ------------------------------------------------------------------
    # Endpoints.
    # ------------------------------------------------------------------

    def healthz(self) -> dict:
        return self._checked("GET", "/healthz")

    def models(self) -> dict:
        return self._checked("GET", "/models")

    def strategies(self) -> dict:
        return self._checked("GET", "/strategies")

    def partition(self, **fields) -> dict:
        return self._checked("POST", "/partition", fields)

    def simulate(self, **fields) -> dict:
        return self._checked("POST", "/simulate", fields)

    def sweep(self, preset: str | None = None, spec: dict | None = None) -> dict:
        payload = {}
        if preset is not None:
            payload["preset"] = preset
        if spec is not None:
            payload["spec"] = spec
        return self._checked("POST", "/sweep", payload)

    def replan(self, **fields) -> dict:
        return self._checked("POST", "/replan", fields)

    # ------------------------------------------------------------------
    # Readiness.
    # ------------------------------------------------------------------

    def wait_until_healthy(self, timeout: float = 10.0, interval: float = 0.05) -> dict:
        """Poll ``/healthz`` until it answers 200 or ``timeout`` elapses."""
        deadline = time.monotonic() + timeout
        last_error: Exception | None = None
        while time.monotonic() < deadline:
            try:
                return self.healthz()
            except (OSError, ServiceClientError, ValueError) as error:
                last_error = error
                self.close()
                time.sleep(interval)
        raise TimeoutError(
            f"service at {self.host}:{self.port} not healthy after {timeout}s "
            f"(last error: {last_error})"
        )
