"""Scalability study (Figure 11).

The paper scales the accelerator array from one to sixty-four accelerators
(hierarchy depth zero to six) on VGG-A and compares HyPar with the default
Data Parallelism on two axes: performance gain normalised to a single
accelerator, and total communication per step.  Data Parallelism's gain
saturates (and then degrades) once communication dominates, while HyPar
keeps scaling further -- the headline scalability claim of Section 6.4.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.core.baselines import data_parallelism
from repro.nn.model import DNNModel
from repro.nn.model_zoo import vgg_a
from repro.sim.metrics import TrainingStepReport
from repro.sweep.engine import SweepEngine, owned_engine
from repro.sweep.spec import PlanConfig

#: The paper sweeps 1, 2, 4, ..., 64 accelerators.
DEFAULT_ARRAY_SIZES = (1, 2, 4, 8, 16, 32, 64)


@dataclasses.dataclass(frozen=True)
class ScalabilityPoint:
    """Simulated behaviour of one strategy at one array size."""

    num_accelerators: int
    strategy_name: str
    report: TrainingStepReport

    @property
    def step_seconds(self) -> float:
        return self.report.step_seconds

    @property
    def communication_gb(self) -> float:
        return self.report.communication_gb


@dataclasses.dataclass(frozen=True)
class ScalabilityCurve:
    """One strategy's curve across array sizes."""

    strategy_name: str
    points: tuple[ScalabilityPoint, ...]

    def performance_gains(self, single_accelerator_seconds: float) -> list[float]:
        """Speedups over the single-accelerator latency (the left axis of Figure 11)."""
        return [single_accelerator_seconds / point.step_seconds for point in self.points]

    def communication_gb(self) -> list[float]:
        """Per-step traffic at every array size (the right axis of Figure 11)."""
        return [point.communication_gb for point in self.points]

    def saturation_size(self, single_accelerator_seconds: float) -> int:
        """Array size after which adding accelerators stops helping.

        Returns the number of accelerators at which the performance gain
        peaks; if the gain is still rising at the largest size swept, that
        size is returned.
        """
        gains = self.performance_gains(single_accelerator_seconds)
        best_index = max(range(len(gains)), key=lambda i: gains[i])
        return self.points[best_index].num_accelerators


@dataclasses.dataclass(frozen=True)
class ScalabilityStudy:
    """Complete Figure 11 data: both strategies over every array size."""

    model_name: str
    array_sizes: tuple[int, ...]
    single_accelerator_seconds: float
    hypar: ScalabilityCurve
    data_parallelism: ScalabilityCurve

    def as_rows(self) -> list[dict]:
        """Flat rows (one per array size) convenient for printing/CSV."""
        hypar_gains = self.hypar.performance_gains(self.single_accelerator_seconds)
        dp_gains = self.data_parallelism.performance_gains(self.single_accelerator_seconds)
        rows = []
        for index, size in enumerate(self.array_sizes):
            rows.append(
                {
                    "num_accelerators": size,
                    "hypar_gain": hypar_gains[index],
                    "dp_gain": dp_gains[index],
                    "hypar_comm_gb": self.hypar.points[index].communication_gb,
                    "dp_comm_gb": self.data_parallelism.points[index].communication_gb,
                }
            )
        return rows


def _scalability_task(
    task: tuple[PlanConfig, DNNModel]
) -> tuple[TrainingStepReport, TrainingStepReport]:
    """Sweep-engine task: HyPar and Data Parallelism reports at one size."""
    plan, model = task
    simulator = plan.simulator()
    batch_size = plan.batch_size
    if plan.num_accelerators == 1:
        report = simulator.simulate(model, None, batch_size, strategy_name="single")
        return report, report

    # Share one compiled cost table between the search and both
    # strategies' simulations at this array size.
    table = simulator.cost_table(model, batch_size)
    hypar_assignment = simulator.partitioner.partition(
        model, batch_size, table=table
    ).assignment
    dp_assignment = data_parallelism(model, simulator.array.num_levels)

    hypar_report = simulator.simulate(
        model, hypar_assignment, batch_size, "HyPar", cost_table=table
    )
    dp_report = simulator.simulate(
        model, dp_assignment, batch_size, "Data Parallelism", cost_table=table
    )
    return hypar_report, dp_report


def run_scalability_study(
    model: DNNModel | None = None,
    array_sizes: Sequence[int] = DEFAULT_ARRAY_SIZES,
    plan: PlanConfig | None = None,
    engine: "SweepEngine | int | None" = None,
) -> ScalabilityStudy:
    """Sweep the array size for HyPar and Data Parallelism (Figure 11).

    ``model`` defaults to VGG-A, the network the paper uses for this study.
    Each point runs on ``plan`` (the paper's platform by default) with
    ``num_accelerators`` set to its array size.  One sweep task per array
    size maps through ``engine`` (serial by default, byte-identical for any
    worker count).
    """
    model = model or vgg_a()
    plan = plan if plan is not None else PlanConfig()
    sizes = tuple(sorted(set(array_sizes)))
    if not sizes or sizes[0] < 1:
        raise ValueError("array sizes must be at least 1")

    tasks = [(dataclasses.replace(plan, num_accelerators=size), model) for size in sizes]
    with owned_engine(engine) as resolved:
        reports = resolved.map(_scalability_task, tasks)

    hypar_points = tuple(
        ScalabilityPoint(size, "HyPar", hypar_report)
        for size, (hypar_report, _) in zip(sizes, reports)
    )
    dp_points = tuple(
        ScalabilityPoint(size, "Data Parallelism", dp_report)
        for size, (_, dp_report) in zip(sizes, reports)
    )
    return ScalabilityStudy(
        model_name=model.name,
        array_sizes=sizes,
        # The single accelerator when the sweep has one (sizes are sorted),
        # else the smallest size swept.
        single_accelerator_seconds=hypar_points[0].step_seconds,
        hypar=ScalabilityCurve("HyPar", hypar_points),
        data_parallelism=ScalabilityCurve("Data Parallelism", dp_points),
    )
