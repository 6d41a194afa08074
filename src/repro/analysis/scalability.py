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

from repro.accelerator.array import ArrayConfig
from repro.core.baselines import data_parallelism
from repro.core.hierarchical import DEFAULT_BATCH_SIZE
from repro.core.parallelism import StrategySpace
from repro.core.tensors import ScalingMode
from repro.nn.model import DNNModel
from repro.nn.model_zoo import vgg_a
from repro.sim.metrics import TrainingStepReport
from repro.sweep.cache import cached_simulator
from repro.sweep.engine import SweepEngine, owned_engine

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


@dataclasses.dataclass(frozen=True)
class _ScalabilityContext:
    """Shared, picklable state of one Figure 11 sweep."""

    base_array: ArrayConfig
    batch_size: int
    scaling_mode: ScalingMode
    strategies: str | None
    model: DNNModel


def _scalability_task(
    task: tuple[_ScalabilityContext, int]
) -> tuple[TrainingStepReport, TrainingStepReport]:
    """Sweep-engine task: HyPar and Data Parallelism reports at one size."""
    context, size = task
    model = context.model
    simulator = cached_simulator(
        context.base_array.with_num_accelerators(size),
        scaling_mode=context.scaling_mode,
        strategies=context.strategies,
    )
    if size == 1:
        report = simulator.simulate(
            model, None, context.batch_size, strategy_name="single"
        )
        return report, report

    # Share one compiled cost table between the search and both
    # strategies' simulations at this array size.
    table = simulator.cost_table(model, context.batch_size)
    hypar_assignment = simulator.partitioner.partition(
        model, context.batch_size, table=table
    ).assignment
    dp_assignment = data_parallelism(model, simulator.array.num_levels)

    hypar_report = simulator.simulate(
        model, hypar_assignment, context.batch_size, "HyPar", cost_table=table
    )
    dp_report = simulator.simulate(
        model, dp_assignment, context.batch_size, "Data Parallelism", cost_table=table
    )
    return hypar_report, dp_report


def run_scalability_study(
    model: DNNModel | None = None,
    array_sizes: Sequence[int] = DEFAULT_ARRAY_SIZES,
    batch_size: int = DEFAULT_BATCH_SIZE,
    base_array: ArrayConfig | None = None,
    scaling_mode: ScalingMode | str = ScalingMode.PARALLELISM_AWARE,
    strategies=None,
    engine: "SweepEngine | int | None" = None,
) -> ScalabilityStudy:
    """Sweep the array size for HyPar and Data Parallelism (Figure 11).

    ``model`` defaults to VGG-A, the network the paper uses for this study.
    One sweep task per array size maps through ``engine`` (serial by
    default, byte-identical for any worker count).
    """
    model = model or vgg_a()
    base_array = base_array or ArrayConfig()
    sizes = tuple(sorted(set(array_sizes)))
    if sizes[0] < 1:
        raise ValueError("array sizes must be at least 1")

    context = _ScalabilityContext(
        base_array=base_array,
        batch_size=batch_size,
        scaling_mode=ScalingMode.parse(scaling_mode),
        strategies=StrategySpace.parse(strategies).describe(),
        model=model,
    )
    with owned_engine(engine) as resolved:
        reports = resolved.map(_scalability_task, [(context, size) for size in sizes])

    hypar_points: list[ScalabilityPoint] = []
    dp_points: list[ScalabilityPoint] = []
    single_seconds: float | None = None
    for size, (hypar_report, dp_report) in zip(sizes, reports):
        if size == 1:
            single_seconds = hypar_report.step_seconds
            hypar_points.append(ScalabilityPoint(size, "HyPar", hypar_report))
            dp_points.append(ScalabilityPoint(size, "Data Parallelism", dp_report))
            continue
        hypar_points.append(ScalabilityPoint(size, "HyPar", hypar_report))
        dp_points.append(ScalabilityPoint(size, "Data Parallelism", dp_report))

    if single_seconds is None:
        # The sweep did not include a single-accelerator point; normalise to
        # the smallest size instead.
        single_seconds = hypar_points[0].step_seconds

    return ScalabilityStudy(
        model_name=model.name,
        array_sizes=sizes,
        single_accelerator_seconds=single_seconds,
        hypar=ScalabilityCurve("HyPar", tuple(hypar_points)),
        data_parallelism=ScalabilityCurve("Data Parallelism", tuple(dp_points)),
    )
