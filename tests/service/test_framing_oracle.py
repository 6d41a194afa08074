"""The daemon's HTTP framing against the stdlib as its oracle.

* Server: :meth:`repro.service.server._Handler.parse_request` against
  :meth:`http.server.BaseHTTPRequestHandler.parse_request` on generated
  request heads (HTTP/0.9 to 2.0, header-name case, duplicates,
  ``Connection``/``Expect`` values, 100 and more header lines, lines
  around the 65536-byte limit).  Both run under the stdlib's
  ``handle_one_request``; the parsed request, every lookup the handler
  makes, the bytes written and the bytes consumed must agree.
* Client: :func:`repro.service.client.read_response` against
  :class:`http.client.HTTPResponse` on generated response streams: the
  status, body, keep-alive decision and bytes consumed agree, or both
  raise the same exception type.
* Bytes: a live daemon's raw answers equal those of the same daemon
  answering through the stdlib's ``parse_request`` and its
  ``send_response``/``send_header``/``end_headers`` sequence (the framing
  before responses went out in one write), apart from the ``Date`` value.

Deliberate differences, each pinned below:

* a header line that is not ``name: value`` -- an obs-fold continuation
  line, a bare CR, a blank or control character before the colon, an
  empty name, a ``From `` envelope line -- answers 400 "Bad header line".
  The stdlib folds a continuation into the previous value, skips an
  empty-named or envelope line, splits a line at a bare CR, or stops
  reading headers at the malformed line and ignores the ones after it
  (a ``Content-Length`` or ``Transfer-Encoding`` among them);
* any ``Transfer-Encoding`` answers 411 and conflicting ``Content-Length``
  values answer 400 (after ``parse_request``; see
  ``test_service.py::TestTransportHardening``);
* the client raises :class:`http.client.HTTPException` on a chunked
  response (the daemon never sends one) and on a malformed header line,
  where http.client decodes the chunks or folds/skips the line.
"""

from __future__ import annotations

import http.client
import io
import json
import re
import socket
import threading
import types
from http.server import BaseHTTPRequestHandler

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.service import build_server
from repro.service.client import read_response
from repro.service.framing import MAX_HEADERS, MAX_LINE, BadHeaderLine
from repro.service.server import JSON_CONTENT_TYPE, _Handler

# ----------------------------------------------------------------------
# Server: parse_request.
# ----------------------------------------------------------------------


class _Recording(_Handler):
    """Records what the endpoint would see instead of answering."""

    def date_time_string(self, timestamp=None):
        return "DATE"

    def do_GET(self):  # noqa: N802 - http.server API
        self.dispatched = (
            self.command,
            self.path,
            self.request_version,
            self.close_connection,
            tuple(
                self.headers.get(name)
                for name in ("content-length", "connection", "expect", "transfer-encoding")
            ),
        )

    do_POST = do_PUT = do_GET  # noqa: N815


class _StdlibRecording(_Recording):
    parse_request = BaseHTTPRequestHandler.parse_request


class _UnclosableBytesIO(io.BytesIO):
    def close(self) -> None:  # keep tell() usable after a reader closes it
        pass


def _serve_one(handler_class, raw: bytes) -> tuple:
    handler = handler_class.__new__(handler_class)
    handler.rfile = _UnclosableBytesIO(raw)
    handler.wfile = io.BytesIO()
    handler.server = types.SimpleNamespace(log_requests=False)
    handler.client_address = ("127.0.0.1", 0)
    handler.close_connection = True
    handler.dispatched = None
    handler.handle_one_request()
    return (
        handler.dispatched,
        handler.close_connection,
        handler.command,
        getattr(handler, "path", None),
        handler.request_version,
        handler.requestline,
        handler.wfile.getvalue(),
        handler.rfile.tell(),
    )


_NAME_CHARS = "".join(chr(c) for c in range(0x21, 0x7F) if c != ord(":"))
_HEADER_NAMES = st.one_of(
    st.sampled_from(
        [
            "Content-Length", "content-length", "CONTENT-length", "Connection",
            "connection", "CONNECTION", "Expect", "EXPECT", "Host",
            "Transfer-Encoding", "X-Pad",
        ]
    ),
    st.text(alphabet=_NAME_CHARS, min_size=1, max_size=8),
)
_HEADER_VALUES = st.one_of(
    st.sampled_from(
        [
            "close", "Close", "CLOSE", "keep-alive", "Keep-Alive", "upgrade, close",
            "close ", "100-continue", "100-Continue", "0", "5", " 5", "5  ", "",
            "\t7\t", "x", "chunked",
        ]
    ),
    # Every byte but CR and LF, through latin-1 (NEL, VT, FF, NUL, ...).
    st.text(
        alphabet=st.characters(min_codepoint=0, max_codepoint=255, exclude_characters="\r\n"),
        max_size=12,
    ),
)
_VERSIONS = [
    None, "HTTP/0.9", "HTTP/1.0", "HTTP/1.1", "HTTP/2.0", "HTTP/3.1", "HTTP/1.1.1",
    "HTTP/01.01", "HTTP/1", "HTTX/1.1", "HTTP/1.a", "HTTP/12345678901.1", "HTTP/1.10",
]


@st.composite
def request_heads(draw) -> bytes:
    if draw(st.integers(0, 11)) == 0:
        line = draw(
            st.sampled_from(["\r\n", "   \r\n", "GET\r\n", "GET / HTTP/1.1 extra\r\n"])
        )
    else:
        words = [
            draw(st.sampled_from(["GET", "POST", "PUT", "get", "BREW"])),
            draw(st.sampled_from(["/partition", "/healthz?x=1", "//evil.example//x", "/", "*"])),
        ]
        version = draw(st.sampled_from(_VERSIONS))
        if version is not None:
            words.append(version)
        line = draw(st.sampled_from([" ", "  ", "\t"])).join(words)
        line += draw(st.sampled_from(["\r\n", "\n"]))
    lines = [line]
    headers = draw(st.lists(st.tuples(_HEADER_NAMES, _HEADER_VALUES), max_size=6))
    for name, value in headers:
        separator = draw(st.sampled_from(["", " ", "\t", "  "]))
        lines.append(f"{name}:{separator}{value}" + draw(st.sampled_from(["\r\n", "\n"])))
    shape = draw(st.sampled_from(["plain", "plain", "count", "long-header", "long-request"]))
    if shape == "count":
        # Around http.client's limit: 100 header lines, the blank one included.
        total = draw(st.integers(MAX_HEADERS - 3, MAX_HEADERS + 1))
        lines.extend(f"X-Pad: {index}\r\n" for index in range(max(0, total - len(lines) + 1)))
    elif shape == "long-header":
        length = draw(st.integers(MAX_LINE - 2, MAX_LINE + 2))
        lines.append("X-Long: " + "a" * (length - len("X-Long: \r\n")) + "\r\n")
    elif shape == "long-request":
        length = draw(st.integers(MAX_LINE - 2, MAX_LINE + 2))
        lines[0] = "GET /" + "a" * (length - len("GET / HTTP/1.1\r\n")) + " HTTP/1.1\r\n"
    # A head cut off by the peer's close, or followed by body bytes.
    ending = draw(st.sampled_from(["\r\n", "\n", ""]))
    if ending:
        ending += "tail"
    return ("".join(lines) + ending).encode("latin-1")


class TestParseRequestMatchesTheStdlib:
    @settings(
        max_examples=400,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(request_heads())
    def test_generated_heads(self, raw):
        assert _serve_one(_Recording, raw) == _serve_one(_StdlibRecording, raw)

    @pytest.mark.parametrize(
        "raw",
        [
            b"GET /models HTTP/1.1\r\nHost: x\r\n\r\n",
            b"POST /partition HTTP/1.1\r\nContent-Length: 2\r\nExpect: 100-continue\r\n\r\n{}",
            b"POST /partition HTTP/1.0\r\nExpect: 100-continue\r\n\r\n",
            b"GET /models HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
            b"GET /models HTTP/1.1\r\nConnection: close\r\nconnection: keep-alive\r\n\r\n",
            b"GET /models\r\n\r\n",
            b"POST /models\r\n\r\n",
            b"GET /models HTTP/2.0\r\n\r\n",
            b"GET /models HTTP/1.1\r\n" + b"X: y\r\n" * 99 + b"\r\n",
            b"GET /models HTTP/1.1\r\n" + b"X: y\r\n" * 100 + b"\r\n",
            b"GET /models HTTP/1.1\r\nX: " + b"a" * MAX_LINE + b"\r\n\r\n",
            b"GET /" + b"a" * MAX_LINE + b" HTTP/1.1\r\n\r\n",
        ],
        ids=[
            "keep-alive", "expect-100", "expect-ignored-on-1.0", "1.0-keep-alive",
            "first-connection-wins", "http-0.9", "http-0.9-post", "http-2",
            "99-headers", "100-headers", "long-header-line", "long-request-line",
        ],
    )
    def test_named_heads(self, raw):
        assert _serve_one(_Recording, raw) == _serve_one(_StdlibRecording, raw)

    @pytest.mark.parametrize(
        "header_lines",
        [
            b"X-A: 1\r\n folded\r\n",
            b"\tfolded-first: 1\r\n",
            b"X-A: 1\rContent-Length: 5\r\n",
            b"Content-Length : 5\r\n",
            b"Content-Length\x00: 5\r\n",
            b": no-name\r\n",
            b"From nobody\r\n",
            b"no-colon\r\nContent-Length: 5\r\n",
        ],
        ids=[
            "obs-fold", "leading-fold", "bare-cr", "blank-before-colon",
            "control-in-name", "empty-name", "envelope-line", "no-colon",
        ],
    )
    def test_malformed_header_lines_answer_400(self, header_lines):
        raw = b"POST /partition HTTP/1.1\r\n" + header_lines + b"\r\n"
        dispatched, close, *_, written, _ = _serve_one(_Recording, raw)
        assert dispatched is None and close
        assert written.startswith(b"HTTP/1.1 400 Bad header line\r\n")
        # The stdlib dispatches the request anyway, with the headers it
        # managed to read: the difference is deliberate.
        assert _serve_one(_StdlibRecording, raw)[0] is not None


# ----------------------------------------------------------------------
# Client: read_response.
# ----------------------------------------------------------------------


class _FakeSocket:
    def __init__(self, data: bytes) -> None:
        self.file = _UnclosableBytesIO(data)

    def makefile(self, *args, **kwargs):
        return self.file


def _stdlib_read(stream: bytes):
    sock = _FakeSocket(stream)
    response = http.client.HTTPResponse(sock, method="GET")
    try:
        response.begin()
        body = response.read()
    except http.client.HTTPException as error:
        return type(error)
    return response.status, body, response.will_close, sock.file.tell()


def _lean_read(stream: bytes):
    reader = _UnclosableBytesIO(stream)
    try:
        status, body, will_close = read_response(reader, "GET")
    except http.client.HTTPException as error:
        return type(error)
    return status, body, will_close, reader.tell()


_RESPONSE_HEADERS = st.tuples(
    st.sampled_from(
        [
            "Content-Length", "content-length", "Connection", "Keep-Alive",
            "Proxy-Connection", "Transfer-Encoding", "Server", "X-Pad",
        ]
    ),
    st.sampled_from(
        [
            "0", "3", "5", " 4", "-1", "x", "", "close", "Close", "keep-alive",
            "Keep-Alive", "upgrade, close", "timeout=5", "gzip", "identity",
        ]
    ),
)


@st.composite
def response_streams(draw) -> bytes:
    parts = []
    for _ in range(draw(st.integers(0, 2))):
        parts.append("HTTP/1.1 100 Continue\r\n")
        interim = draw(st.lists(_RESPONSE_HEADERS, max_size=2))
        parts.extend(f"{name}: {value}\r\n" for name, value in interim)
        parts.append("\r\n")
    shape = draw(st.sampled_from(["plain", "plain", "plain", "odd-status", "count", "long"]))
    if shape == "odd-status":
        parts.append(
            draw(
                st.sampled_from(
                    ["", "\r\n", "HTTP/1.1\r\n", "garbage here\r\n", "HTTP/1.1 2x0 OK\r\n",
                     "HTTP/1.1 099 Low\r\n", "HTTP/1.1 1000 High\r\n", "HTTP/2 200 OK\r\n",
                     "ICY 200 OK\r\n", "HTTP/1.1 +200 OK\r\n", "HTTP/1.1 100 Continue\r\n"]
                )
            )
        )
    else:
        version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/0.9", "HTTP/1.5"]))
        status = draw(st.sampled_from(["200", "204", "304", "404", "101", "500"]))
        reason = draw(st.sampled_from([" OK", "", " Not Found", " Bad  Gateway"]))
        parts.append(f"{version} {status}{reason}\r\n")
    headers = draw(st.lists(_RESPONSE_HEADERS, max_size=5))
    parts.extend(
        f"{name}:{draw(st.sampled_from(['', ' ', chr(9)]))}{value}"
        + draw(st.sampled_from(["\r\n", "\n"]))
        for name, value in headers
    )
    if shape == "count":
        total = draw(st.integers(MAX_HEADERS - 3, MAX_HEADERS + 1))
        parts.extend(f"X-Pad: {index}\r\n" for index in range(max(0, total - len(headers))))
    elif shape == "long":
        length = draw(st.integers(MAX_LINE - 2, MAX_LINE + 2))
        parts.append("X-Long: " + "a" * (length - len("X-Long: \r\n")) + "\r\n")
    # A head cut off by the peer's close, or followed by body bytes.
    ending = draw(st.sampled_from(["\r\n", "\n", ""]))
    body = draw(st.binary(max_size=12)) if ending else b""
    return ("".join(parts) + ending).encode("latin-1") + body


class TestReadResponseMatchesHttpClient:
    @settings(
        max_examples=400,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(response_streams())
    def test_generated_streams(self, stream):
        assume(b"chunked" not in stream.lower())
        assert _lean_read(stream) == _stdlib_read(stream)

    def test_a_daemon_answer_and_the_next_one(self):
        first = b'{"a":1}'
        stream = (
            b"HTTP/1.1 200 OK\r\nServer: hypar-serve\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n" % len(first) + first + b"HTTP/1.1 404 Not Found\r\n"
        )
        expected = (200, first, False, stream.index(b"HTTP/1.1 404"))
        assert _lean_read(stream) == _stdlib_read(stream) == expected

    def test_truncated_body_raises_incomplete_read(self):
        stream = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc"
        assert _lean_read(stream) is _stdlib_read(stream) is http.client.IncompleteRead

    def test_empty_stream_is_a_remote_disconnect(self):
        assert _lean_read(b"") is _stdlib_read(b"") is http.client.RemoteDisconnected

    def test_chunked_response_raises(self):
        stream = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n"
        assert _stdlib_read(stream)[1] == b"abc"
        assert _lean_read(stream) is http.client.HTTPException

    @pytest.mark.parametrize(
        "header_line", [b"X-A: 1\r\n folded\r\n", b"Content-Length : 3\r\n", b"no-colon\r\n"]
    )
    def test_malformed_header_line_raises(self, header_line):
        stream = b"HTTP/1.1 200 OK\r\n" + header_line + b"\r\nabc"
        assert not isinstance(_stdlib_read(stream), type)
        assert _lean_read(stream) is BadHeaderLine


# ----------------------------------------------------------------------
# Bytes on the wire.
# ----------------------------------------------------------------------


class _StdlibFramingHandler(_Handler):
    """The daemon's handler with the stdlib's request parsing and its
    header-by-header response head, written before the body."""

    parse_request = BaseHTTPRequestHandler.parse_request
    _conflicting_length = False

    def _send(self, status: int, response: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", JSON_CONTENT_TYPE)
        self.send_header("Content-Length", str(len(response)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(response)


_PARTITION = json.dumps({"model": "Lenet-c", "batch_size": 64, "num_accelerators": 4}).encode()

WIRE_REQUESTS = {
    "models": b"GET /models HTTP/1.1\r\nHost: x\r\n\r\n",
    "partition": b"POST /partition HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
    b"Content-Length: %d\r\n\r\n" % len(_PARTITION) + _PARTITION,
    "partition-twice": (
        b"POST /partition HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(_PARTITION) + _PARTITION
    ) * 2,
    "partition-http-1.0": b"POST /partition HTTP/1.0\r\nContent-Length: %d\r\n\r\n"
    % len(_PARTITION) + _PARTITION,
    "partition-expect-100": b"POST /partition HTTP/1.1\r\nExpect: 100-continue\r\n"
    b"Content-Length: %d\r\n\r\n" % len(_PARTITION) + _PARTITION,
    "connection-close": b"GET /strategies HTTP/1.1\r\nConnection: close\r\n\r\n"
    b"GET /models HTTP/1.1\r\n\r\n",
    "models-http-0.9": b"GET /models\r\n\r\n",
    "not-found": b"GET /nope HTTP/1.1\r\n\r\n",
    "wrong-method": b"GET /partition HTTP/1.1\r\n\r\n",
    "bad-json": b"POST /partition HTTP/1.1\r\nContent-Length: 5\r\n\r\n{nope",
    "empty-body": b"POST /partition HTTP/1.1\r\n\r\n",
    "oversized": b"POST /partition HTTP/1.1\r\nContent-Length: 2097152\r\n\r\n",
    "http-2": b"GET /models HTTP/2.0\r\n\r\n",
    "bad-version": b"GET /models HTTP/1.x\r\n\r\n",
    "too-many-headers": b"GET /models HTTP/1.1\r\n" + b"X: y\r\n" * 100 + b"\r\n",
    "unsupported-method": b"BREW /models HTTP/1.1\r\n\r\n",
}

_DATE = re.compile(rb"\r\nDate: [^\r\n]*\r\n")


def _exchange(port: int, request: bytes) -> bytes:
    with socket.create_connection(("127.0.0.1", port), timeout=30.0) as sock:
        sock.sendall(request)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return _DATE.sub(b"\r\nDate: DATE\r\n", b"".join(chunks))


@pytest.fixture(scope="module")
def server_pair():
    servers = [build_server(port=0), build_server(port=0)]
    servers[1].RequestHandlerClass = _StdlibFramingHandler
    threads = [
        threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
        for server in servers
    ]
    for thread in threads:
        thread.start()
    yield servers
    for server, thread in zip(servers, threads):
        server.close()
        thread.join(timeout=5.0)


@pytest.mark.parametrize("name", sorted(WIRE_REQUESTS))
def test_wire_bytes_match_the_stdlib_framing(server_pair, name):
    lean, stdlib = (_exchange(server.port, WIRE_REQUESTS[name]) for server in server_pair)
    assert lean and lean == stdlib
