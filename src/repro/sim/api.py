"""The simulation entry point: one plan, one call, two engines.

:class:`~repro.sim.training.TrainingSimulator` takes its platform in the
constructor and simulates a given assignment.  This module wraps it in one
call that can also search the assignment:

* :func:`simulate` -- the single entry point.  It runs on the
  :class:`~repro.sweep.spec.PlanConfig`'s simulator (the process's one
  simulator of that platform, compiling into the shared table cache), so
  repeated calls on one plan share one simulator and one compiled cost
  table.  Given an assignment it simulates it; given none (on a
  multi-accelerator array) it runs HyPar's hierarchical search first,
  sharing that table between the search and the simulation.  The plan's
  ``sim_engine`` (``"analytic"`` or ``"network"``, see
  :mod:`repro.sim.backend`) selects the engine;
* :class:`SimulationResult` -- the report, the (searched or given)
  assignment, the engine that produced it, and the raw schedule.
"""

from __future__ import annotations

import dataclasses

from repro.core.parallelism import HierarchicalAssignment
from repro.nn.model import DNNModel
from repro.sim.engine import Schedule
from repro.sim.metrics import TrainingStepReport
from repro.sweep.spec import PlanConfig


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
    plan: PlanConfig | None = None,
    *,
    strategy_name: str | None = None,
) -> SimulationResult:
    """Simulate one training step of ``model`` on the platform of ``plan``
    (the paper's platform by default).

    With ``assignment=None`` on a multi-accelerator array, HyPar's
    hierarchical search runs first and the searched assignment is
    simulated (and returned); on a single accelerator there is nothing to
    search or exchange.  An explicit ``assignment`` is simulated as-is.
    ``strategy_name`` defaults to ``"HyPar"`` for searched assignments,
    ``"single"`` for an unsearched single-accelerator step and
    ``"custom"`` for explicit ones.
    """
    plan = plan if plan is not None else PlanConfig()
    simulator = plan.simulator()
    table = None
    if assignment is not None:
        strategy_name = strategy_name or "custom"
    elif simulator.array.num_levels > 0:
        table = simulator.cost_table(model, plan.batch_size)
        assignment = simulator.partitioner.partition(
            model, plan.batch_size, table=table
        ).assignment
        strategy_name = strategy_name or "HyPar"
    report = simulator.simulate(
        model,
        assignment,
        plan.batch_size,
        strategy_name or "single",
        cost_table=table,
    )
    return SimulationResult(
        report=report,
        assignment=assignment,
        sim_engine=simulator.sim_engine,
        schedule=simulator.last_schedule,
    )
