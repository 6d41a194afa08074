"""Comparison against "one weird trick" (Figure 13 and Section 6.5.2).

Krizhevsky's trick assigns data parallelism to convolutional layers and
model parallelism to fully-connected layers by rule.  The paper shows the
rule breaks once batch size and hierarchy depth vary, using two layers of
VGG-E as the focal points:

* ``conv5`` (a late 512-channel 3x3 convolution whose output map is only
  14x14): at a small batch (32) the gradient tensor is *larger* than the
  output feature map, so the layer should use model parallelism -- the
  trick still picks data parallelism;
* ``fc3`` (the 4096 → 1000 classifier): at a large batch (4096) the
  gradient and output tensors are the same size, and the inter-layer term
  favours data parallelism -- the trick still picks model parallelism.

Each configuration of the figure is ``<focus layer>-b<batch>-h<levels>``:
the focus layer together with its predecessor (so the inter-layer term is
exercised) is evaluated at the given batch size on an array with the given
number of hierarchy levels, under both HyPar's searched assignment and the
trick's rule, and the figure reports HyPar's performance and energy
efficiency relative to the trick.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.analysis.report import geometric_mean
from repro.core.baselines import one_weird_trick
from repro.nn.model import DNNModel, build_model
from repro.nn.model_zoo import vgg_e
from repro.sweep.engine import SweepEngine, owned_engine
from repro.sweep.spec import PlanConfig

#: The six configurations shown in Figure 13.
DEFAULT_CONFIGS = (
    ("conv5", 32, 2),
    ("conv5", 32, 3),
    ("conv5", 32, 4),
    ("fc3", 4096, 2),
    ("fc3", 4096, 3),
    ("fc3", 4096, 4),
)

#: Concrete VGG-E layer used for each focus label: the last conv of the
#: fifth block, and the final classifier layer.
FOCUS_LAYERS = {
    "conv5": "conv5_4",
    "fc3": "fc3",
}


@dataclasses.dataclass(frozen=True)
class TrickComparison:
    """HyPar versus the trick for one Figure 13 configuration."""

    label: str
    focus_layer: str
    batch_size: int
    num_levels: int
    performance_ratio: float
    energy_ratio: float


@dataclasses.dataclass(frozen=True)
class TrickStudy:
    """Figure 13 data: all configurations plus geometric means."""

    comparisons: tuple[TrickComparison, ...]

    def gmean_performance(self) -> float:
        return geometric_mean(c.performance_ratio for c in self.comparisons)

    def gmean_energy(self) -> float:
        return geometric_mean(c.energy_ratio for c in self.comparisons)

    def max_performance(self) -> float:
        return max(c.performance_ratio for c in self.comparisons)

    def as_rows(self) -> list[dict]:
        return [
            {
                "config": c.label,
                "performance": c.performance_ratio,
                "energy_efficiency": c.energy_ratio,
            }
            for c in self.comparisons
        ]


def focus_subnetwork(model: DNNModel, focus_layer_name: str) -> DNNModel:
    """The focus layer of ``model`` together with its predecessor.

    The two-layer slice keeps the inter-layer communication term in play
    while isolating the per-layer decision the trick gets wrong.
    """
    focus = model.layer_by_name(focus_layer_name)
    if focus.index == 0:
        raise ValueError(f"focus layer {focus_layer_name!r} has no predecessor")
    predecessor = model[focus.index - 1]
    return build_model(
        f"{model.name}:{predecessor.name}+{focus.name}",
        predecessor.input_shape,
        [predecessor.spec, focus.spec],
    )


def _trick_task(task: tuple[DNNModel, str, PlanConfig]) -> TrickComparison:
    """Sweep-engine task: one ``<focus layer>-b<batch>-h<levels>`` configuration."""
    model, focus, plan = task
    subnetwork = focus_subnetwork(model, FOCUS_LAYERS[focus])
    simulator = plan.simulator()
    batch_size = plan.batch_size
    num_levels = simulator.array.num_levels

    table = simulator.cost_table(subnetwork, batch_size)
    hypar_assignment = simulator.partitioner.partition(
        subnetwork, batch_size, table=table
    ).assignment
    trick_assignment = one_weird_trick(subnetwork, num_levels)

    hypar_report = simulator.simulate(
        subnetwork, hypar_assignment, batch_size, "HyPar", cost_table=table
    )
    trick_report = simulator.simulate(
        subnetwork, trick_assignment, batch_size, "One Weird Trick", cost_table=table
    )

    return TrickComparison(
        label=f"{focus}-b{batch_size}-h{num_levels}",
        focus_layer=FOCUS_LAYERS[focus],
        batch_size=batch_size,
        num_levels=num_levels,
        performance_ratio=hypar_report.speedup_over(trick_report),
        energy_ratio=hypar_report.energy_efficiency_over(trick_report),
    )


def run_trick_study(
    configs: Sequence[tuple[str, int, int]] = DEFAULT_CONFIGS,
    plan: PlanConfig | None = None,
    engine: "SweepEngine | int | None" = None,
) -> TrickStudy:
    """Compare HyPar with "one weird trick" over the Figure 13 configurations.

    Each ``(focus, batch, levels)`` configuration runs on ``plan`` (the
    paper's platform by default) with ``batch_size`` set to its batch and
    ``num_accelerators`` to ``2**levels``.  One sweep task per
    configuration maps through ``engine`` (serial by default,
    byte-identical for any worker count).
    """
    for focus, _, _ in configs:
        if focus not in FOCUS_LAYERS:
            known = ", ".join(sorted(FOCUS_LAYERS))
            raise KeyError(f"unknown focus layer {focus!r}; known: {known}")
    plan = plan if plan is not None else PlanConfig()
    model = vgg_e()
    tasks = [
        (
            model,
            focus,
            dataclasses.replace(plan, batch_size=batch_size, num_accelerators=1 << num_levels),
        )
        for focus, batch_size, num_levels in configs
    ]
    with owned_engine(engine) as resolved:
        comparisons = resolved.map(_trick_task, tasks)
    return TrickStudy(tuple(comparisons))
