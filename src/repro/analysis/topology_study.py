"""Topology comparison (Figure 12): H tree versus torus.

The parallelism per layer is HyPar's searched choice in both cases; only
the physical interconnect differs.  Performance is normalised to the
default Data Parallelism on the H tree (the baseline shared with Figure 6),
so the H-tree bars of this study coincide with HyPar's bars in Figure 6 and
the torus bars show what the mismatch between the binary-tree partition
pattern and a mesh costs.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.accelerator.array import ArrayConfig
from repro.analysis.report import geometric_mean
from repro.core.baselines import data_parallelism
from repro.core.hierarchical import DEFAULT_BATCH_SIZE
from repro.core.parallelism import StrategySpace
from repro.core.tensors import ScalingMode
from repro.nn.model import DNNModel
from repro.nn.model_zoo import all_models
from repro.sweep.cache import cached_simulator
from repro.sweep.engine import SweepEngine, owned_engine


@dataclasses.dataclass(frozen=True)
class TopologyComparison:
    """Normalised performance of HyPar on both topologies for one network."""

    model_name: str
    htree_performance: float
    torus_performance: float

    @property
    def htree_advantage(self) -> float:
        """How much faster the H tree is than the torus for this network."""
        if self.torus_performance <= 0:
            return float("inf")
        return self.htree_performance / self.torus_performance


@dataclasses.dataclass(frozen=True)
class TopologyStudy:
    """Figure 12 data for a set of networks."""

    comparisons: tuple[TopologyComparison, ...]

    def gmean_htree(self) -> float:
        return geometric_mean(c.htree_performance for c in self.comparisons)

    def gmean_torus(self) -> float:
        return geometric_mean(c.torus_performance for c in self.comparisons)

    def as_rows(self) -> list[dict]:
        return [
            {
                "model": c.model_name,
                "torus": c.torus_performance,
                "h_tree": c.htree_performance,
            }
            for c in self.comparisons
        ]


@dataclasses.dataclass(frozen=True)
class _TopologyContext:
    """Shared, picklable state of one Figure 12 sweep."""

    array: ArrayConfig
    batch_size: int
    scaling_mode: ScalingMode
    strategies: str | None


def _topology_task(task: tuple[_TopologyContext, DNNModel]) -> TopologyComparison:
    """Sweep-engine task: one network on both interconnects."""
    context, model = task
    htree_simulator, torus_simulator = (
        cached_simulator(
            context.array,
            topology,
            scaling_mode=context.scaling_mode,
            strategies=context.strategies,
        )
        for topology in ("htree", "torus")
    )
    batch_size = context.batch_size

    # One table serves the search and all three simulations: the compiled
    # amounts depend on the model and batch, not on the interconnect.
    table = htree_simulator.cost_table(model, batch_size)
    hypar_assignment = htree_simulator.partitioner.partition(
        model, batch_size, table=table
    ).assignment
    dp_assignment = data_parallelism(model, context.array.num_levels)

    baseline = htree_simulator.simulate(
        model, dp_assignment, batch_size, "Data Parallelism", cost_table=table
    )
    on_htree = htree_simulator.simulate(
        model, hypar_assignment, batch_size, "HyPar", cost_table=table
    )
    on_torus = torus_simulator.simulate(
        model, hypar_assignment, batch_size, "HyPar", cost_table=table
    )

    return TopologyComparison(
        model_name=model.name,
        htree_performance=on_htree.speedup_over(baseline),
        torus_performance=on_torus.speedup_over(baseline),
    )


def run_topology_study(
    models: Sequence[DNNModel] | None = None,
    array: ArrayConfig | None = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    scaling_mode: ScalingMode | str = ScalingMode.PARALLELISM_AWARE,
    strategies=None,
    engine: "SweepEngine | int | None" = None,
) -> TopologyStudy:
    """Compare HyPar on the H tree and on the torus (Figure 12).

    One sweep task per network maps through ``engine`` (serial by default,
    byte-identical for any worker count).
    """
    models = list(models) if models is not None else all_models()
    context = _TopologyContext(
        array=array or ArrayConfig(),
        batch_size=batch_size,
        scaling_mode=ScalingMode.parse(scaling_mode),
        strategies=StrategySpace.parse(strategies).describe(),
    )
    with owned_engine(engine) as resolved:
        comparisons = resolved.map(
            _topology_task, [(context, model) for model in models]
        )
    return TopologyStudy(tuple(comparisons))
