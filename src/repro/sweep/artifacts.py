"""Deterministic JSON/CSV artifact writers for sweep results.

Figure data leaves the sweep engine as flat row dictionaries; these
helpers serialize them reproducibly -- stable key order, full float
precision (``repr`` round trip) -- so artifacts produced by the serial and
process-parallel runners can be compared byte for byte, which is exactly
what the parity tests do.
"""

from __future__ import annotations

import csv
import io
import json
import os
from typing import Mapping, Sequence


def _columns(rows: Sequence[Mapping]) -> list[str]:
    """Union of row keys, in first-appearance order."""
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    return columns


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        # repr round-trips doubles exactly; str() would too on Python 3,
        # but repr states the intent.
        return repr(value)
    return str(value)


def rows_to_csv(rows: Sequence[Mapping], columns: Sequence[str] | None = None) -> str:
    """Render rows as CSV text (header + one line per row).

    Minimal quoting via the :mod:`csv` module -- strategy-space cells like
    ``"dp,mp"`` contain commas and must not shift columns.
    """
    columns = list(columns) if columns is not None else _columns(rows)
    if not columns:
        raise ValueError("cannot write a CSV without columns")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_cell(row.get(column)) for column in columns])
    return buffer.getvalue()


def write_csv(
    path: str, rows: Sequence[Mapping], columns: Sequence[str] | None = None
) -> None:
    """Write rows to ``path`` as CSV (creating parent directories)."""
    ensure_parent(path)
    with open(path, "w", newline="") as handle:
        handle.write(rows_to_csv(rows, columns))


def payload_to_json(payload) -> str:
    """Render an arbitrary JSON-serializable payload deterministically."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_json(path: str, payload) -> None:
    """Write a payload to ``path`` as pretty-printed, key-sorted JSON."""
    ensure_parent(path)
    with open(path, "w") as handle:
        handle.write(payload_to_json(payload))


def write_artifacts(
    directory: str, name: str, payload, rows: Sequence[Mapping]
) -> dict[str, str]:
    """Write ``payload`` to ``<name>.json`` and ``rows`` to ``<name>.csv``
    under ``directory``; returns both paths by format."""
    json_path = os.path.join(directory, f"{name}.json")
    csv_path = os.path.join(directory, f"{name}.csv")
    write_json(json_path, payload)
    write_csv(csv_path, rows)
    return {"json": json_path, "csv": csv_path}


def ensure_parent(path: str) -> None:
    """Create the directory ``path`` will be written into, if missing."""
    parent = os.path.dirname(os.path.abspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
