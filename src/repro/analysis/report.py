"""Small reporting utilities shared by the experiment drivers.

These helpers keep the benchmark harness output close to the paper's
presentation: normalised bar-chart style tables with a geometric-mean
column, like Figures 6, 7, 8 and 12.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (the paper's ``Gmean`` column)."""
    values = list(values)
    if not values:
        raise ValueError("geometric_mean requires at least one value")
    if any(value <= 0 for value in values):
        raise ValueError("geometric_mean requires strictly positive values")
    return math.exp(sum(math.log(value) for value in values) / len(values))


def format_value(value: float, digits: int = 3) -> str:
    """Format a number the way the paper's figures label bars."""
    if value == 0:
        return "0"
    if value >= 100:
        return f"{value:.0f}"
    if value >= 10:
        return f"{value:.1f}"
    return f"{value:.{digits - 1}f}"


def format_table(
    title: str,
    rows: Mapping[str, Mapping[str, float]],
    columns: Sequence[str],
    value_digits: int = 3,
    add_gmean: bool = True,
) -> str:
    """Render ``rows`` (row label -> column label -> value) as an ASCII table.

    When ``add_gmean`` is set a final row holds the geometric mean of every
    column (only the rows with strictly positive values contribute).
    """
    header = ["{:<12s}".format("")] + [f"{column:>18s}" for column in columns]
    lines = [title, "".join(header)]
    for label, values in rows.items():
        cells = [f"{label:<12s}"]
        for column in columns:
            value = values.get(column)
            cells.append(
                f"{format_value(value, value_digits):>18s}" if value is not None else f"{'-':>18s}"
            )
        lines.append("".join(cells))
    if add_gmean:
        cells = [f"{'Gmean':<12s}"]
        for column in columns:
            column_values = [
                values[column]
                for values in rows.values()
                if column in values and values[column] > 0
            ]
            if column_values:
                cells.append(f"{format_value(geometric_mean(column_values), value_digits):>18s}")
            else:
                cells.append(f"{'-':>18s}")
        lines.append("".join(cells))
    return "\n".join(lines)


def format_series(title: str, xs: Sequence, ys: Sequence[float], digits: int = 3) -> str:
    """Render an (x, y) series as two aligned rows (for sweep figures)."""
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have the same length")
    x_cells = "  ".join(f"{str(x):>10s}" for x in xs)
    y_cells = "  ".join(f"{format_value(y, digits):>10s}" for y in ys)
    return f"{title}\n  x: {x_cells}\n  y: {y_cells}"


def write_study_artifacts(
    name: str, rows: Sequence[Mapping], directory: str
) -> dict[str, str]:
    """Persist a study's flat rows as ``<name>.json`` + ``<name>.csv``.

    Thin plumbing over :mod:`repro.sweep.artifacts`, so every study's
    figure data leaves through the same deterministic writers the grid
    runner uses (full float precision, stable column order) and the serial
    and process-parallel runs stay byte-comparable on disk.
    """
    from repro.sweep.artifacts import write_artifacts

    rows = list(rows)
    return write_artifacts(directory, name, {"study": name, "rows": rows}, rows)
