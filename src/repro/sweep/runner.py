"""The generic grid runner behind ``hypar sweep``.

Every :class:`~repro.sweep.spec.SweepPoint` is one independent job: search
HyPar's assignment for the point's configuration, simulate it next to the
default Data/Model Parallelism baselines, and emit one flat
:class:`SweepRecord`.  The per-point task function is module-level (so the
process-parallel engine can ship it to workers) and everything heavy is
fetched through the process-global caches of :mod:`repro.sweep.cache` --
in particular the compiled cost table, which is shared by the search and
all three simulations of a point *and* by every other point of the grid
with the same ``(model, strategy space, scaling mode, batch, num_levels)``
key.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Sequence

from repro.core.baselines import data_parallelism, model_parallelism
from repro.nn.model_zoo import get_model
from repro.sweep import artifacts
from repro.sweep.cache import runtime_cached
from repro.sweep.engine import SweepEngine, owned_engine
from repro.sweep.spec import SweepPoint, SweepSpec

#: Strategy names as the paper's figures label them.
MODEL_PARALLELISM = "Model Parallelism"
DATA_PARALLELISM = "Data Parallelism"
HYPAR = "HyPar"


def _model_for(name: str):
    return runtime_cached(("model", name), lambda: get_model(name))


@dataclasses.dataclass(frozen=True)
class StrategyMetrics:
    """Simulated cost of one strategy at one sweep point."""

    step_seconds: float
    energy_joules: float
    communication_gb: float


@dataclasses.dataclass(frozen=True)
class SweepRecord:
    """One grid point's outcome: HyPar next to the two uniform baselines."""

    point: SweepPoint
    metrics: Mapping[str, StrategyMetrics]
    #: HyPar's searched per-level parallelism lists (e.g. ``"dp-mp-dp"``),
    #: empty for the single-accelerator degenerate point.
    hypar_levels: tuple[str, ...]

    def speedup(self, strategy: str = HYPAR, baseline: str = DATA_PARALLELISM) -> float:
        """Performance of ``strategy`` normalised to ``baseline`` (Figure 6)."""
        return self.metrics[baseline].step_seconds / self.metrics[strategy].step_seconds

    def energy_efficiency(
        self, strategy: str = HYPAR, baseline: str = DATA_PARALLELISM
    ) -> float:
        """Energy saving of ``strategy`` normalised to ``baseline`` (Figure 7)."""
        return self.metrics[baseline].energy_joules / self.metrics[strategy].energy_joules

    def to_row(self) -> dict:
        """Flat artifact row (one line of the sweep CSV)."""
        row = {
            "index": self.point.index,
            "model": self.point.model,
            "batch_size": self.point.batch_size,
            "num_accelerators": self.point.num_accelerators,
            "topology": self.point.topology,
            "scaling_mode": self.point.scaling_mode,
            "strategies": self.point.strategies,
            "cost_model": self.point.cost_model,
        }
        # Analytic rows keep the historical column set byte-for-byte; only
        # network-engine rows grow the extra column (the CSV writer unions
        # keys, so mixed grids render it with empty analytic cells).
        if self.point.sim_engine != "analytic":
            row["sim_engine"] = self.point.sim_engine
        for name, metrics in self.metrics.items():
            slug = name.lower().replace(" ", "_")
            row[f"{slug}_step_seconds"] = metrics.step_seconds
            row[f"{slug}_energy_joules"] = metrics.energy_joules
            row[f"{slug}_communication_gb"] = metrics.communication_gb
        if len(self.metrics) > 1:
            row["hypar_speedup"] = self.speedup()
            row["hypar_energy_efficiency"] = self.energy_efficiency()
        row["hypar_levels"] = " | ".join(self.hypar_levels)
        return row


def evaluate_point(point: SweepPoint) -> SweepRecord:
    """Search + simulate one grid point (the engine's task function)."""
    simulator = point.simulator()
    model = _model_for(point.model)

    if point.num_accelerators == 1:
        report = simulator.simulate(model, None, point.batch_size, strategy_name="single")
        metrics = {
            "single": StrategyMetrics(
                step_seconds=report.step_seconds,
                energy_joules=report.energy_joules,
                communication_gb=report.communication_gb,
            )
        }
        return SweepRecord(point=point, metrics=metrics, hypar_levels=())

    table = simulator.cost_table(model, point.batch_size)
    hypar = simulator.partitioner.partition(model, point.batch_size, table=table)
    num_levels = simulator.array.num_levels
    assignments = {
        MODEL_PARALLELISM: model_parallelism(model, num_levels),
        DATA_PARALLELISM: data_parallelism(model, num_levels),
        HYPAR: hypar.assignment,
    }
    metrics = {}
    for name, assignment in assignments.items():
        report = simulator.simulate(
            model, assignment, point.batch_size, name, cost_table=table
        )
        metrics[name] = StrategyMetrics(
            step_seconds=report.step_seconds,
            energy_joules=report.energy_joules,
            communication_gb=report.communication_gb,
        )
    return SweepRecord(
        point=point,
        metrics=metrics,
        hypar_levels=tuple(str(level) for level in hypar.assignment.levels),
    )


@dataclasses.dataclass(frozen=True)
class SweepResult:
    """All records of one grid run, in point order."""

    spec: SweepSpec
    records: tuple[SweepRecord, ...]

    def to_rows(self) -> list[dict]:
        return [record.to_row() for record in self.records]

    def to_payload(self) -> dict:
        """The JSON artifact: the spec next to its rows."""
        return {"spec": self.spec.to_json(), "rows": self.to_rows()}

    def write_artifacts(self, directory: str) -> dict[str, str]:
        """Write ``<name>.json`` and ``<name>.csv`` under ``directory``."""
        import os

        json_path = os.path.join(directory, f"{self.spec.name}.json")
        csv_path = os.path.join(directory, f"{self.spec.name}.csv")
        artifacts.write_json(json_path, self.to_payload())
        artifacts.write_csv(csv_path, self.to_rows())
        return {"json": json_path, "csv": csv_path}


def run_sweep(
    spec: SweepSpec,
    engine: SweepEngine | int | None = None,
    points: Sequence[SweepPoint] | None = None,
) -> SweepResult:
    """Run the grid described by ``spec`` through the engine.

    ``points`` optionally restricts the run to a subset (already-expanded)
    of the grid; by default the whole spec expands.  Results are in point
    order and independent of the engine's worker count.
    """
    grid = tuple(points) if points is not None else spec.points()
    with owned_engine(engine) as resolved:
        records = resolved.map(evaluate_point, grid)
    return SweepResult(spec=spec, records=tuple(records))
