"""Sensitivity studies beyond the paper's figures.

The paper's evaluation fixes the batch size (256), the link bandwidth
(1600 Mb/s) and the arithmetic precision (fp32).  These sweeps quantify how
HyPar's advantage over the default Data Parallelism changes when those
platform/workload parameters move -- the questions a designer adopting the
technique would ask next:

* **Batch size** -- Section 6.5.2 argues batch size shifts the dp/mp
  trade-off per layer; the sweep shows the end-to-end effect.
* **Link bandwidth** -- faster links shrink every communication advantage;
  the sweep shows where HyPar stops mattering.
* **Precision** -- fp16 halves every tensor, which scales all traffic
  equally and therefore moves the compute/communication balance.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.accelerator.array import ArrayConfig
from repro.core.baselines import data_parallelism
from repro.core.communication import CommunicationModel
from repro.core.tensors import ScalingMode
from repro.nn.model import DNNModel
from repro.nn.model_zoo import vgg_a
from repro.sweep.cache import cached_simulator
from repro.sweep.engine import SweepEngine, owned_engine

#: Batch sizes spanning the "generalisation" (32) to "throughput" (4096)
#: regimes discussed in Section 6.5.2.
DEFAULT_BATCH_SIZES = (32, 64, 128, 256, 512, 1024, 2048, 4096)
#: Link bandwidths around the paper's 1600 Mb/s baseline (in bits/s).
DEFAULT_LINK_BANDWIDTHS = (400e6, 800e6, 1600e6, 3200e6, 6400e6, 12800e6)


@dataclasses.dataclass(frozen=True)
class SensitivityPoint:
    """HyPar-vs-Data-Parallelism comparison at one swept parameter value."""

    parameter: float
    hypar_speedup: float
    hypar_energy_efficiency: float
    hypar_communication_gb: float
    dp_communication_gb: float

    @property
    def communication_reduction(self) -> float:
        if self.hypar_communication_gb <= 0:
            return float("inf")
        return self.dp_communication_gb / self.hypar_communication_gb


@dataclasses.dataclass(frozen=True)
class SensitivityStudy:
    """A named sweep of :class:`SensitivityPoint` records."""

    name: str
    model_name: str
    points: tuple[SensitivityPoint, ...]

    def parameters(self) -> list[float]:
        return [point.parameter for point in self.points]

    def speedups(self) -> list[float]:
        return [point.hypar_speedup for point in self.points]

    def as_rows(self) -> list[dict]:
        return [
            {
                "parameter": point.parameter,
                "speedup": point.hypar_speedup,
                "energy_efficiency": point.hypar_energy_efficiency,
                "comm_reduction": point.communication_reduction,
            }
            for point in self.points
        ]


def _compare(
    model: DNNModel,
    batch_size: int,
    array: ArrayConfig,
    scaling_mode: ScalingMode | str,
    communication_model: CommunicationModel | None = None,
) -> SensitivityPoint:
    simulator = cached_simulator(
        array, scaling_mode=scaling_mode, communication_model=communication_model
    )
    # One compiled cost table serves the search and both simulations (and,
    # through the shared cache, any other study of the configuration).
    table = simulator.cost_table(model, batch_size)
    hypar_assignment = simulator.partitioner.partition(
        model, batch_size, table=table
    ).assignment
    hypar = simulator.simulate(
        model, hypar_assignment, batch_size, "HyPar", cost_table=table
    )
    baseline = simulator.simulate(
        model,
        data_parallelism(model, array.num_levels),
        batch_size,
        "Data Parallelism",
        cost_table=table,
    )
    return SensitivityPoint(
        parameter=float("nan"),
        hypar_speedup=hypar.speedup_over(baseline),
        hypar_energy_efficiency=hypar.energy_efficiency_over(baseline),
        hypar_communication_gb=hypar.communication_gb,
        dp_communication_gb=baseline.communication_gb,
    )


@dataclasses.dataclass(frozen=True)
class _SensitivityTask:
    """One swept point: the ``_compare`` inputs plus the axis value."""

    parameter: float
    model: DNNModel
    batch_size: int
    array: ArrayConfig
    scaling_mode: ScalingMode
    communication_model: CommunicationModel | None = None


def _sensitivity_task(task: _SensitivityTask) -> SensitivityPoint:
    """Sweep-engine task: one HyPar-vs-Data-Parallelism comparison."""
    point = _compare(
        task.model,
        task.batch_size,
        task.array,
        task.scaling_mode,
        communication_model=task.communication_model,
    )
    return dataclasses.replace(point, parameter=task.parameter)


def _run_sensitivity(
    name: str,
    model: DNNModel,
    tasks: Sequence[_SensitivityTask],
    engine: "SweepEngine | int | None",
) -> SensitivityStudy:
    with owned_engine(engine) as resolved:
        points = resolved.map(_sensitivity_task, tasks)
    return SensitivityStudy(name, model.name, tuple(points))


def batch_size_sensitivity(
    model: DNNModel | None = None,
    batch_sizes: Sequence[int] = DEFAULT_BATCH_SIZES,
    array: ArrayConfig | None = None,
    scaling_mode: ScalingMode | str = ScalingMode.PARALLELISM_AWARE,
    engine: "SweepEngine | int | None" = None,
) -> SensitivityStudy:
    """HyPar's advantage over Data Parallelism as the batch size varies."""
    model = model or vgg_a()
    array = array or ArrayConfig()
    scaling_mode = ScalingMode.parse(scaling_mode)
    for batch_size in batch_sizes:
        if batch_size <= 0:
            raise ValueError(f"batch sizes must be positive, got {batch_size}")
    tasks = [
        _SensitivityTask(float(batch_size), model, batch_size, array, scaling_mode)
        for batch_size in batch_sizes
    ]
    return _run_sensitivity("batch-size", model, tasks, engine)


def link_bandwidth_sensitivity(
    model: DNNModel | None = None,
    link_bandwidths_bits: Sequence[float] = DEFAULT_LINK_BANDWIDTHS,
    batch_size: int = 256,
    scaling_mode: ScalingMode | str = ScalingMode.PARALLELISM_AWARE,
    engine: "SweepEngine | int | None" = None,
) -> SensitivityStudy:
    """HyPar's advantage over Data Parallelism as the links get faster."""
    model = model or vgg_a()
    scaling_mode = ScalingMode.parse(scaling_mode)
    for bandwidth in link_bandwidths_bits:
        if bandwidth <= 0:
            raise ValueError(f"link bandwidths must be positive, got {bandwidth}")
    tasks = [
        _SensitivityTask(
            float(bandwidth),
            model,
            batch_size,
            ArrayConfig(link_bandwidth_bits=bandwidth),
            scaling_mode,
        )
        for bandwidth in link_bandwidths_bits
    ]
    return _run_sensitivity("link-bandwidth", model, tasks, engine)


def precision_sensitivity(
    model: DNNModel | None = None,
    bytes_per_element: Sequence[int] = (2, 4, 8),
    batch_size: int = 256,
    array: ArrayConfig | None = None,
    scaling_mode: ScalingMode | str = ScalingMode.PARALLELISM_AWARE,
    engine: "SweepEngine | int | None" = None,
) -> SensitivityStudy:
    """HyPar's advantage as the storage precision of tensors changes."""
    model = model or vgg_a()
    array = array or ArrayConfig()
    scaling_mode = ScalingMode.parse(scaling_mode)
    for precision in bytes_per_element:
        if precision <= 0:
            raise ValueError(f"precision must be positive, got {precision}")
    tasks = [
        _SensitivityTask(
            float(precision),
            model,
            batch_size,
            array,
            scaling_mode,
            CommunicationModel(bytes_per_element=precision),
        )
        for precision in bytes_per_element
    ]
    return _run_sensitivity("precision", model, tasks, engine)
