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

from repro.accelerator.array import ArrayConfig
from repro.analysis.report import format_table, geometric_mean
from repro.core.baselines import data_parallelism, model_parallelism, one_weird_trick
from repro.core.costmodel import ANALYTIC_SPEC, canonical_cost_model, resolve_cost_model
from repro.core.hierarchical import DEFAULT_BATCH_SIZE
from repro.core.parallelism import HierarchicalAssignment, StrategySpace
from repro.core.result import HierarchicalResult
from repro.core.tensors import ScalingMode
from repro.nn.model import DNNModel
from repro.nn.model_zoo import all_models
from repro.sim.metrics import TrainingStepReport
from repro.sweep.cache import cached_simulator
from repro.sweep.engine import SweepEngine, owned_engine

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


@dataclasses.dataclass(frozen=True)
class _RunnerConfig:
    """Picklable recipe for rebuilding an :class:`ExperimentRunner` in a worker."""

    array: ArrayConfig
    batch_size: int
    scaling_mode: ScalingMode
    include_trick: bool
    strategies: str
    #: Cost-model spec string -- strings pickle cleanly into workers, and
    #: the worker re-resolves (and re-fits, once per process) on build.
    cost_model: str = ANALYTIC_SPEC

    def build(self) -> "ExperimentRunner":
        return ExperimentRunner(
            array=self.array,
            batch_size=self.batch_size,
            scaling_mode=self.scaling_mode,
            include_trick=self.include_trick,
            strategies=self.strategies,
            cost_model=self.cost_model,
        )


def _compare_task(task: tuple[_RunnerConfig, DNNModel]) -> "ModelComparison":
    """Sweep-engine task: one network's Figures 6-8 comparison."""
    config, model = task
    return config.build().compare(model)


class ExperimentRunner:
    """Runs the partition search and the simulator for a set of strategies.

    Parameters mirror the paper's setup: a sixteen-accelerator H-tree array
    and a batch size of 256, all overridable for the sensitivity studies.
    The simulator is the platform's
    :func:`~repro.sweep.cache.cached_simulator`, so every study touching
    the same configuration reuses it and its compiled cost tables.
    """

    def __init__(
        self,
        array: ArrayConfig | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        scaling_mode: ScalingMode | str = ScalingMode.PARALLELISM_AWARE,
        include_trick: bool = False,
        strategies: "StrategySpace | str | None" = None,
        cost_model: str = ANALYTIC_SPEC,
    ) -> None:
        self.array = array or ArrayConfig()
        self.batch_size = batch_size
        self.scaling_mode = ScalingMode.parse(scaling_mode)
        self.include_trick = include_trick
        self.cost_model = canonical_cost_model(cost_model)
        self.simulator = cached_simulator(
            self.array,
            scaling_mode=self.scaling_mode,
            strategies=strategies,
            communication_model=resolve_cost_model(self.cost_model).communication_model(),
        )
        self.strategies = self.simulator.strategies

    def _task_config(self) -> _RunnerConfig:
        return _RunnerConfig(
            array=self.array,
            batch_size=self.batch_size,
            scaling_mode=self.scaling_mode,
            include_trick=self.include_trick,
            strategies=self.strategies.describe(),
            cost_model=self.cost_model,
        )

    # ------------------------------------------------------------------
    # Figure 5: the optimised parallelism lists.
    # ------------------------------------------------------------------

    def optimized_parallelism(self, model: DNNModel) -> HierarchicalResult:
        """HyPar's searched assignment for ``model`` (one list per level).

        Search and simulation share the simulator's cached cost table.
        """
        table = self.simulator.cost_table(model, self.batch_size)
        return self.simulator.partitioner.partition(model, self.batch_size, table=table)

    # ------------------------------------------------------------------
    # Figures 6-8: simulate every strategy.
    # ------------------------------------------------------------------

    def strategy_assignments(self, model: DNNModel) -> dict[str, HierarchicalAssignment]:
        """The assignments simulated for one network."""
        return self._assignments(model, self.optimized_parallelism(model))

    def _assignments(
        self, model: DNNModel, hypar: HierarchicalResult
    ) -> dict[str, HierarchicalAssignment]:
        num_levels = self.array.num_levels
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
        table = self.simulator.cost_table(model, self.batch_size)
        reports = {
            name: self.simulator.simulate(
                model, assignment, self.batch_size, name, cost_table=table
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
            if resolved.workers <= 1:
                comparisons = resolved.map(self.compare, models)
            else:
                config = self._task_config()
                comparisons = resolved.map(
                    _compare_task, [(config, model) for model in models]
                )
        return EvaluationTable(tuple(comparisons))
