"""Congestion study: where link contention changes the preferred partition.

The analytic engine charges every pair boundary the closed-form cost
``bytes / effective_pair_bandwidth`` on one shared per-level link resource;
the network engine (:mod:`repro.sim.network`) instead routes each exchange
over the topology's physical links and lets concurrent flows queue.  On
the H tree the two agree bit-for-bit for uncongested schedules (the routed
flows are exactly the disjoint subtree links the closed form assumes), but
on a torus -- where pair flows share physical hops -- and wherever the
event-driven schedule overlaps gradient all-reduce with backpropagation,
the engines diverge.

This study pins the headline consequence: for a small set of
configurations it simulates Data Parallelism, Model Parallelism and
HyPar's searched assignment under *both* engines and records the two
strategy rankings.  At least one default configuration exhibits a
**ranking flip** -- the analytic engine prefers one strategy order, the
contention-aware simulation another -- which is the reason the network
engine exists: a partition chosen off the closed form alone can be the
wrong one on real links.

The default grid and its exact floats are golden-pinned
(``tests/analysis/golden_congestion.json``); regenerate deliberately with
``python scripts/generate_congestion_golden.py`` when an output change is
intended.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.core.baselines import data_parallelism, model_parallelism
from repro.nn.model_zoo import get_model
from repro.sweep.engine import SweepEngine, owned_engine
from repro.sweep.spec import PlanConfig

#: Strategy labels in simulation order (also the figure labels).
STRATEGIES = ("Data Parallelism", "Model Parallelism", "HyPar")


@dataclasses.dataclass(frozen=True)
class CongestionConfig:
    """One platform configuration of the study grid."""

    model: str
    num_accelerators: int
    topology: str
    batch_size: int

    def label(self) -> str:
        return (
            f"{self.model}/n{self.num_accelerators}"
            f"/{self.topology}/b{self.batch_size}"
        )


#: The pinned default grid.  The torus ``gpt_s-4`` point is the flip: the
#: analytic engine ranks Model Parallelism ahead of Data Parallelism, the
#: network engine reverses them (MP's boundary exchanges pile onto shared
#: torus hops while DP's gradient all-reduce overlaps backpropagation).
#: The H-tree points are the agreement controls.
DEFAULT_CONFIGS = (
    CongestionConfig("Lenet-c", 4, "htree", 64),
    CongestionConfig("gpt_s-4", 4, "htree", 256),
    CongestionConfig("gpt_s-4", 4, "torus", 256),
    CongestionConfig("AlexNet", 16, "torus", 256),
)


@dataclasses.dataclass(frozen=True)
class CongestionComparison:
    """Both engines' step times for every strategy at one configuration."""

    config: CongestionConfig
    #: ``{strategy: step_seconds}`` per engine, in :data:`STRATEGIES` order.
    analytic_seconds: dict[str, float]
    network_seconds: dict[str, float]

    def ranking(self, engine: str) -> tuple[str, ...]:
        """Strategies fastest-first under ``engine``."""
        times = {
            "analytic": self.analytic_seconds,
            "network": self.network_seconds,
        }[engine]
        return tuple(sorted(times, key=times.__getitem__))

    @property
    def flipped(self) -> bool:
        """True when contention reorders the strategy preference."""
        return self.ranking("analytic") != self.ranking("network")

    def to_row(self) -> dict:
        row = {
            "model": self.config.model,
            "num_accelerators": self.config.num_accelerators,
            "topology": self.config.topology,
            "batch_size": self.config.batch_size,
        }
        for name in STRATEGIES:
            slug = name.lower().replace(" ", "_")
            row[f"{slug}_analytic_seconds"] = self.analytic_seconds[name]
            row[f"{slug}_network_seconds"] = self.network_seconds[name]
        row["analytic_ranking"] = " > ".join(self.ranking("analytic"))
        row["network_ranking"] = " > ".join(self.ranking("network"))
        row["flipped"] = self.flipped
        return row


@dataclasses.dataclass(frozen=True)
class CongestionStudy:
    """The whole grid's comparisons, in config order."""

    comparisons: tuple[CongestionComparison, ...]

    @property
    def num_flips(self) -> int:
        return sum(1 for comparison in self.comparisons if comparison.flipped)

    def as_rows(self) -> list[dict]:
        return [comparison.to_row() for comparison in self.comparisons]

    def describe(self) -> str:
        lines = [
            f"congestion study: {len(self.comparisons)} configurations, "
            f"{self.num_flips} ranking flip(s)"
        ]
        for comparison in self.comparisons:
            marker = "FLIP" if comparison.flipped else "same"
            lines.append(
                f"  {comparison.config.label():<28s} {marker}  "
                f"analytic: {' > '.join(comparison.ranking('analytic'))}  |  "
                f"network: {' > '.join(comparison.ranking('network'))}"
            )
        return "\n".join(lines)


def _congestion_task(config: CongestionConfig) -> CongestionComparison:
    """Sweep-engine task: one configuration under both engines."""
    simulator = PlanConfig(
        batch_size=config.batch_size,
        num_accelerators=config.num_accelerators,
        topology=config.topology,
    ).simulator()
    model = get_model(config.model)
    num_levels = simulator.array.num_levels

    # One table serves the search and all six simulations; the search
    # itself is engine-independent (it minimises communication bytes).
    table = simulator.cost_table(model, config.batch_size)
    hypar = simulator.partitioner.partition(model, config.batch_size, table=table).assignment
    assignments = {
        "Data Parallelism": data_parallelism(model, num_levels),
        "Model Parallelism": model_parallelism(model, num_levels),
        "HyPar": hypar,
    }
    analytic_seconds = {}
    network_seconds = {}
    for name in STRATEGIES:
        assignment = assignments[name]
        analytic_seconds[name] = simulator.simulate(
            model, assignment, config.batch_size, name, cost_table=table
        ).step_seconds
        network_seconds[name] = simulator.simulate(
            model, assignment, config.batch_size, name, cost_table=table,
            sim_engine="network",
        ).step_seconds
    return CongestionComparison(
        config=config,
        analytic_seconds=analytic_seconds,
        network_seconds=network_seconds,
    )


def run_congestion_study(
    configs: Sequence[CongestionConfig] | None = None,
    engine: "SweepEngine | int | None" = None,
) -> CongestionStudy:
    """Simulate the grid under both engines and collect the rankings.

    One sweep task per configuration maps through ``engine`` (serial by
    default, byte-identical for any worker count).
    """
    grid = tuple(configs) if configs is not None else DEFAULT_CONFIGS
    with owned_engine(engine) as resolved:
        comparisons = resolved.map(_congestion_task, grid)
    return CongestionStudy(tuple(comparisons))
