"""HTTP/1.1 header lines, read the same way by the daemon and its client.

Stdlib only.  :func:`header_fields` reads the header lines of a request
or response off a binary ``readline`` under http.client's limits, without
``email.parser``: a line longer than :data:`MAX_LINE` bytes raises
:class:`http.client.LineTooLong`, and :data:`MAX_HEADERS` lines (the blank
one included) raise :class:`http.client.HTTPException`, both with
http.client's messages.  A line that is not ``name: value`` raises
:class:`BadHeaderLine`, where ``email.parser`` would fold it into the
previous value, skip it, or stop reading headers there.
"""

from __future__ import annotations

import http.client
import re
from typing import Callable, Iterator

#: http.client's ``_MAXLINE`` and ``_MAXHEADERS``.
MAX_LINE = 65536
MAX_HEADERS = 100

#: A name of the characters ``email.parser`` accepts before the colon,
#: optional blanks, then a value without CR or LF (its trailing blanks
#: kept, as the stdlib keeps them).
_FIELD = re.compile(rb"([!-9;-~]+):[ \t]*([^\r\n]*)(?:\r?\n)?")


class BadHeaderLine(http.client.HTTPException):
    """A header line that is not ``name: value``."""


def header_fields(readline: Callable[[int], bytes]) -> Iterator[tuple[str, str]]:
    """``(lower-cased name, value)`` per header line, up to the blank line
    (or the peer's close)."""
    count = 0
    while True:
        line = readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise http.client.LineTooLong("header line")
        count += 1
        if count > MAX_HEADERS:
            raise http.client.HTTPException(f"got more than {MAX_HEADERS} headers")
        if line in (b"\r\n", b"\n", b""):
            return
        match = _FIELD.fullmatch(line)
        if match is None:
            raise BadHeaderLine(repr(line))
        yield match[1].decode("ascii").lower(), match[2].decode("iso-8859-1")
