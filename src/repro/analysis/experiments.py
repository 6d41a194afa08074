"""Drivers for the paper's headline experiments (Figures 5, 6, 7 and 8).

For every evaluation network the paper compares three strategies on the
sixteen-accelerator H-tree array:

* the default **Model Parallelism** (mp everywhere),
* the default **Data Parallelism** (dp everywhere, the normalisation
  baseline),
* **HyPar**, the hierarchical communication-minimising search.

Figure 5 reports the parallelism HyPar picks per layer per hierarchy level;
Figure 6 the performance normalised to Data Parallelism; Figure 7 the
energy efficiency normalised to Data Parallelism; Figure 8 the absolute
communication per training step.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Sequence

from repro.analysis.report import format_table, geometric_mean
from repro.core.baselines import data_parallelism, model_parallelism, one_weird_trick
from repro.core.parallelism import HierarchicalAssignment
from repro.core.result import HierarchicalResult
from repro.nn.model import DNNModel
from repro.nn.model_zoo import all_models
from repro.sim.metrics import TrainingStepReport
from repro.sweep.engine import SweepEngine, owned_engine
from repro.sweep.spec import PlanConfig

#: Strategy names as they appear in the paper's figures.
MODEL_PARALLELISM = "Model Parallelism"
DATA_PARALLELISM = "Data Parallelism"
HYPAR = "HyPar"
ONE_WEIRD_TRICK = "One Weird Trick"


@dataclasses.dataclass(frozen=True)
class ModelComparison:
    """Simulated reports for one network under every strategy."""

    model_name: str
    reports: Mapping[str, TrainingStepReport]
    hypar_result: HierarchicalResult

    @property
    def baseline(self) -> TrainingStepReport:
        return self.reports[DATA_PARALLELISM]

    def normalized_performance(self) -> dict[str, float]:
        """Speedup of every strategy over Data Parallelism (Figure 6)."""
        return {
            name: report.speedup_over(self.baseline)
            for name, report in self.reports.items()
        }

    def normalized_energy_efficiency(self) -> dict[str, float]:
        """Energy saving of every strategy over Data Parallelism (Figure 7)."""
        return {
            name: report.energy_efficiency_over(self.baseline)
            for name, report in self.reports.items()
        }

    def communication_gb(self) -> dict[str, float]:
        """Absolute communication per step in GB (Figure 8)."""
        return {name: report.communication_gb for name, report in self.reports.items()}


@dataclasses.dataclass(frozen=True)
class EvaluationTable:
    """Comparisons for a set of networks plus geometric means."""

    comparisons: Sequence[ModelComparison]

    def models(self) -> list[str]:
        return [comparison.model_name for comparison in self.comparisons]

    def _collect(self, extractor) -> dict[str, dict[str, float]]:
        return {
            comparison.model_name: extractor(comparison)
            for comparison in self.comparisons
        }

    def performance(self) -> dict[str, dict[str, float]]:
        return self._collect(ModelComparison.normalized_performance)

    def energy_efficiency(self) -> dict[str, dict[str, float]]:
        return self._collect(ModelComparison.normalized_energy_efficiency)

    def communication(self) -> dict[str, dict[str, float]]:
        return self._collect(ModelComparison.communication_gb)

    def gmean(self, table: Mapping[str, Mapping[str, float]], strategy: str) -> float:
        return geometric_mean(
            row[strategy] for row in table.values() if row.get(strategy, 0) > 0
        )

    def format(self) -> str:
        """All three tables rendered the way the paper's figures label them."""
        strategies = [MODEL_PARALLELISM, DATA_PARALLELISM, HYPAR]
        sections = [
            format_table("Figure 6: performance normalized to Data Parallelism",
                         self.performance(), strategies),
            format_table("Figure 7: energy efficiency normalized to Data Parallelism",
                         self.energy_efficiency(), strategies),
            format_table("Figure 8: total communication per step (GB)",
                         self.communication(), strategies),
        ]
        return "\n\n".join(sections)


def _compare_task(task: tuple[PlanConfig, bool, DNNModel]) -> "ModelComparison":
    """Sweep-engine task: one network's Figures 6-8 comparison."""
    plan, include_trick, model = task
    return ExperimentRunner(plan, include_trick).compare(model)


class ExperimentRunner:
    """Runs the partition search and the simulator for a set of strategies.

    ``plan`` defaults to the paper's setup: a sixteen-accelerator H-tree
    array and a batch size of 256.  The simulator is the plan's
    :meth:`~repro.sweep.spec.PlanConfig.simulator`, so every study
    touching the same platform reuses it and its compiled cost tables.
    """

    def __init__(self, plan: PlanConfig | None = None, include_trick: bool = False) -> None:
        self.plan = plan if plan is not None else PlanConfig()
        self.include_trick = include_trick
        self.simulator = self.plan.simulator()

    # ------------------------------------------------------------------
    # Figure 5: the optimised parallelism lists.
    # ------------------------------------------------------------------

    def optimized_parallelism(self, model: DNNModel) -> HierarchicalResult:
        """HyPar's searched assignment for ``model`` (one list per level).

        Search and simulation share the simulator's cached cost table.
        """
        table = self.simulator.cost_table(model, self.plan.batch_size)
        return self.simulator.partitioner.partition(model, self.plan.batch_size, table=table)

    # ------------------------------------------------------------------
    # Figures 6-8: simulate every strategy.
    # ------------------------------------------------------------------

    def strategy_assignments(self, model: DNNModel) -> dict[str, HierarchicalAssignment]:
        """The assignments simulated for one network."""
        return self._assignments(model, self.optimized_parallelism(model))

    def _assignments(
        self, model: DNNModel, hypar: HierarchicalResult
    ) -> dict[str, HierarchicalAssignment]:
        num_levels = self.simulator.array.num_levels
        assignments = {
            MODEL_PARALLELISM: model_parallelism(model, num_levels),
            DATA_PARALLELISM: data_parallelism(model, num_levels),
            HYPAR: hypar.assignment,
        }
        if self.include_trick:
            assignments[ONE_WEIRD_TRICK] = one_weird_trick(model, num_levels)
        return assignments

    def compare(self, model: DNNModel) -> ModelComparison:
        """Simulate every strategy for one network.

        Every strategy's simulation gathers from the same compiled cost
        table (tensor amounts depend on the model and batch, not on the
        strategy).
        """
        hypar_result = self.optimized_parallelism(model)
        assignments = self._assignments(model, hypar_result)
        table = self.simulator.cost_table(model, self.plan.batch_size)
        reports = {
            name: self.simulator.simulate(
                model, assignment, self.plan.batch_size, name, cost_table=table
            )
            for name, assignment in assignments.items()
        }
        return ModelComparison(
            model_name=model.name, reports=reports, hypar_result=hypar_result
        )

    def run(
        self,
        models: Sequence[DNNModel] | None = None,
        engine: "SweepEngine | int | None" = None,
    ) -> EvaluationTable:
        """Run the comparison for every network (defaults to the paper's ten).

        One sweep task per network: the grid maps through ``engine``
        (serial by default), so ``engine=SweepEngine(workers=4)`` fans the
        networks out across processes with byte-identical results.
        """
        models = list(models) if models is not None else all_models()
        with owned_engine(engine) as resolved:
            comparisons = resolved.map(
                _compare_task, [(self.plan, self.include_trick, model) for model in models]
            )
        return EvaluationTable(tuple(comparisons))
