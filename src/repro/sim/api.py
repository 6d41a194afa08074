"""The simulation entry point: one spec, one call, two engines.

:class:`~repro.sim.training.TrainingSimulator` takes its platform in the
constructor and simulates a given assignment.  This module wraps it in one
call that can also search the assignment:

* :class:`SimulationSpec` -- one frozen record naming the platform and the
  engine (batch size, array, topology, scaling mode, strategy space,
  micro-batches, ``sim_engine``);
* :func:`simulate` -- the single entry point.  Given an assignment it
  simulates it; given none (on a multi-accelerator array) it runs HyPar's
  hierarchical search first, sharing one compiled cost table between the
  search and the simulation.  Engine selection is keyword-only
  (``sim_engine="analytic" | "network"``, see :mod:`repro.sim.backend`);
* :class:`SimulationResult` -- the report, the (searched or given)
  assignment, the engine that produced it, and the raw schedule.
"""

from __future__ import annotations

import dataclasses

from repro.accelerator.array import ArrayConfig
from repro.core.costs import HierarchicalCostTable, TableCache
from repro.core.hierarchical import DEFAULT_BATCH_SIZE, HierarchicalPartitioner
from repro.core.parallelism import HierarchicalAssignment, StrategySpace
from repro.core.tensors import ScalingMode
from repro.interconnect import Topology
from repro.nn.model import DNNModel
from repro.sim.backend import validate_sim_engine
from repro.sim.engine import Schedule
from repro.sim.metrics import TrainingStepReport
from repro.sim.training import DEFAULT_NUM_MICROBATCHES, TrainingSimulator


@dataclasses.dataclass(frozen=True)
class SimulationSpec:
    """Everything that fixes one simulated platform (and its engine).

    The defaults are the paper's evaluation platform: batch 256 on sixteen
    accelerators joined by an H tree, parallelism-aware scaling over the
    dp/mp strategy space, four micro-batches, analytic engine.
    """

    batch_size: int = DEFAULT_BATCH_SIZE
    array: ArrayConfig | None = None
    topology: Topology | None = None
    scaling_mode: ScalingMode | str = ScalingMode.PARALLELISM_AWARE
    strategies: StrategySpace | str | None = None
    num_microbatches: int = DEFAULT_NUM_MICROBATCHES
    sim_engine: str = "analytic"

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ValueError(
                f"batch_size must be positive, got {self.batch_size}"
            )
        validate_sim_engine(self.sim_engine)

    def build_simulator(
        self,
        table_cache: TableCache | None = None,
    ) -> TrainingSimulator:
        """A :class:`TrainingSimulator` configured exactly as this spec."""
        return TrainingSimulator(
            self.array,
            self.topology,
            scaling_mode=self.scaling_mode,
            strategies=self.strategies,
            num_microbatches=self.num_microbatches,
            table_cache=table_cache,
            sim_engine=self.sim_engine,
        )


@dataclasses.dataclass(frozen=True)
class SimulationResult:
    """Outcome of one :func:`simulate` call."""

    report: TrainingStepReport
    assignment: HierarchicalAssignment | None
    sim_engine: str
    schedule: Schedule

    @property
    def step_seconds(self) -> float:
        return self.report.step_seconds


def simulate(
    model: DNNModel,
    assignment: HierarchicalAssignment | None = None,
    spec: SimulationSpec | None = None,
    *,
    sim_engine: str | None = None,
    strategy_name: str | None = None,
    simulator: TrainingSimulator | None = None,
    cost_table: HierarchicalCostTable | None = None,
) -> SimulationResult:
    """Simulate one training step of ``model`` on the platform of ``spec``.

    With ``assignment=None`` on a multi-accelerator array, HyPar's
    hierarchical search runs first and the searched assignment is
    simulated (and returned); the search and the simulation share one
    compiled cost table -- ``cost_table`` when given, which must match the
    platform either way.  An explicit ``assignment`` is simulated as-is.

    ``sim_engine`` (keyword-only) overrides the spec's engine for this
    call.  ``simulator`` optionally reuses an existing
    :class:`TrainingSimulator` (its platform wins over ``spec``'s;
    sweeps pass their cached, table-cache-wired instance).
    ``strategy_name`` defaults to ``"HyPar"`` for searched assignments and
    ``"custom"`` for explicit ones.
    """
    spec = spec if spec is not None else SimulationSpec()
    engine = validate_sim_engine(
        spec.sim_engine if sim_engine is None else sim_engine
    )
    sim = simulator if simulator is not None else spec.build_simulator()

    if assignment is None and sim.array.num_levels > 0:
        if cost_table is None:
            cost_table = sim.cost_table(model, spec.batch_size)
        partitioner = HierarchicalPartitioner(
            num_levels=sim.array.num_levels,
            communication_model=sim.communication_model,
            scaling_mode=sim.scaling_mode,
            strategies=sim.strategies,
        )
        # The partitioner checks a supplied table against the platform
        # before it searches, raising the simulator's compatibility error.
        assignment = partitioner.partition(
            model, spec.batch_size, table=cost_table
        ).assignment
        strategy_name = strategy_name or "HyPar"
    report = sim.simulate(
        model,
        assignment,
        spec.batch_size,
        strategy_name or "custom",
        cost_table=cost_table,
        sim_engine=engine,
    )
    return SimulationResult(
        report=report,
        assignment=assignment,
        sim_engine=engine,
        schedule=sim.last_schedule,
    )
