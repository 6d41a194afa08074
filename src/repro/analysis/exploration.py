"""Parallelism-space exploration (Figures 9 and 10).

The paper validates HyPar's search by exhaustively sweeping restricted
slices of the parallelism space and checking where the searched assignment
lands relative to the true performance peak:

* **Figure 9 (Lenet-c)** -- the parallelisms of all four layers at levels
  H2 and H3 are fixed to HyPar's choices while all four layers at H1 and H4
  sweep through every dp/mp combination (2^8 = 256 points).
* **Figure 10 (VGG-A)** -- every layer is fixed to HyPar's choice except
  ``conv5_2`` and ``fc1``, whose parallelism sweeps across all four levels
  (again 2^8 = 256 points).

Both sweeps report simulated performance normalised to the default Data
Parallelism, so the peak can be compared with the HyPar point directly.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.analysis.experiments import DATA_PARALLELISM, HYPAR, ExperimentRunner
from repro.core.exhaustive import (
    DEFAULT_MAX_CANDIDATES,
    check_free_positions,
    restricted_assignment,
)
from repro.core.parallelism import HierarchicalAssignment
from repro.nn.model import DNNModel
from repro.nn.model_zoo import lenet_c, vgg_a
from repro.sim.metrics import TrainingStepReport
from repro.sweep.engine import SweepEngine, owned_engine
from repro.sweep.spec import PlanConfig


@dataclasses.dataclass(frozen=True)
class ExplorationPoint:
    """One point of a restricted sweep."""

    assignment: HierarchicalAssignment
    #: Bit pattern over the swept positions (the x/y coordinates of the
    #: paper's surface plots), least-significant position first.
    bits: int
    normalized_performance: float


@dataclasses.dataclass(frozen=True)
class ExplorationResult:
    """Outcome of one restricted parallelism-space sweep."""

    model_name: str
    free_positions: tuple[tuple[int, int], ...]
    points: tuple[ExplorationPoint, ...]
    hypar_assignment: HierarchicalAssignment
    hypar_performance: float

    @property
    def peak(self) -> ExplorationPoint:
        """The best point found by the sweep."""
        return max(self.points, key=lambda point: point.normalized_performance)

    @property
    def hypar_is_peak(self) -> bool:
        """Whether HyPar's assignment achieves the sweep's peak performance."""
        return self.hypar_performance >= self.peak.normalized_performance * (1 - 1e-9)

    @property
    def hypar_gap(self) -> float:
        """Relative shortfall of HyPar versus the sweep peak (0 when optimal)."""
        return max(0.0, 1.0 - self.hypar_performance / self.peak.normalized_performance)


@dataclasses.dataclass(frozen=True)
class _SweepContext:
    """Shared, picklable state of one restricted sweep.

    Every task of the sweep carries a reference to the same context;
    pickling memoizes it, so a chunk shipped to a worker serializes the
    model and base assignment once, not once per point.
    """

    plan: PlanConfig
    model: DNNModel
    base_assignment: HierarchicalAssignment
    free_positions: tuple[tuple[int, int], ...]
    baseline_report: TrainingStepReport


def _sweep_point_task(task: tuple[_SweepContext, int]) -> float:
    """Sweep-engine task: simulate one restricted-sweep candidate.

    Returns the candidate's performance normalised to the context's Data
    Parallelism baseline -- the z axis of the Figures 9/10 surfaces.
    """
    context, codes = task
    simulator = context.plan.simulator()
    batch_size = context.plan.batch_size
    cost_table = simulator.cost_table(context.model, batch_size)
    assignment = restricted_assignment(
        context.base_assignment,
        context.free_positions,
        codes,
        simulator.strategies,
    )
    report = simulator.simulate(
        context.model,
        assignment,
        batch_size,
        strategy_name="sweep",
        cost_table=cost_table,
    )
    return report.speedup_over(context.baseline_report)


class ParallelismExplorer:
    """Sweeps restricted slices of the hierarchical parallelism space.

    Every point runs on ``plan`` (the paper's platform by default).
    ``engine`` (a :class:`~repro.sweep.engine.SweepEngine`, a worker count,
    or ``None`` for serial) controls how the sweep's independent simulation
    points are mapped; results are byte-identical for every engine.
    """

    def __init__(
        self,
        plan: PlanConfig | None = None,
        engine: "SweepEngine | int | None" = None,
    ) -> None:
        self.runner = ExperimentRunner(plan)
        #: Raw engine spec; resolved (and, for worker counts, closed)
        #: per explore() call by ``owned_engine``.
        self.engine = engine

    # ------------------------------------------------------------------
    # Generic restricted sweep.
    # ------------------------------------------------------------------

    def explore(
        self,
        model: DNNModel,
        free_positions: Sequence[tuple[int, int]],
    ) -> ExplorationResult:
        """Sweep every dp/mp combination of ``free_positions``.

        ``free_positions`` is a list of ``(level, layer)`` indices; every
        other position keeps HyPar's searched choice.  Performance of every
        point is simulated and normalised to the default Data Parallelism.
        The points map through the sweep engine, one task per candidate;
        each worker compiles the shared cost table once and gathers the
        scale-descent tensor amounts from it for all its points.
        """
        comparison = self.runner.compare(model)
        base_assignment = comparison.hypar_result.assignment
        baseline_report = comparison.reports[DATA_PARALLELISM]
        hypar_performance = comparison.reports[HYPAR].speedup_over(baseline_report)

        space = self.runner.simulator.strategies
        free = list(free_positions)
        check_free_positions(model, base_assignment, free, DEFAULT_MAX_CANDIDATES, space)
        context = _SweepContext(
            plan=self.runner.plan,
            model=model,
            base_assignment=base_assignment,
            free_positions=tuple(free),
            baseline_report=baseline_report,
        )
        num_candidates = space.size ** len(free)
        with owned_engine(self.engine) as engine:
            performances = engine.map(
                _sweep_point_task, [(context, codes) for codes in range(num_candidates)]
            )
        points = tuple(
            ExplorationPoint(
                assignment=restricted_assignment(base_assignment, free, bits, space),
                bits=bits,
                normalized_performance=performance,
            )
            for bits, performance in enumerate(performances)
        )
        return ExplorationResult(
            model_name=model.name,
            free_positions=tuple(free),
            points=points,
            hypar_assignment=base_assignment,
            hypar_performance=hypar_performance,
        )

    # ------------------------------------------------------------------
    # The paper's two sweeps.
    # ------------------------------------------------------------------

    def explore_lenet(self) -> ExplorationResult:
        """Figure 9: sweep all Lenet-c layers at levels H1 and H4."""
        model = lenet_c()
        num_layers = len(model)
        levels = self.runner.simulator.array.num_levels
        first_level = 0
        last_level = levels - 1
        free = [(first_level, layer) for layer in range(num_layers)]
        free += [(last_level, layer) for layer in range(num_layers)]
        return self.explore(model, free)

    def explore_vgg_a(self) -> ExplorationResult:
        """Figure 10: sweep conv5_2 and fc1 of VGG-A across every level."""
        model = vgg_a()
        conv5_2 = model.layer_by_name("conv5_2").index
        fc1 = model.layer_by_name("fc1").index
        levels = self.runner.simulator.array.num_levels
        free = [(level, conv5_2) for level in range(levels)]
        free += [(level, fc1) for level in range(levels)]
        return self.explore(model, free)


def describe_point(point: ExplorationPoint, free_positions: Sequence[tuple[int, int]]) -> str:
    """Readable encoding of a sweep point: the dp/mp bits of the swept positions."""
    bits = []
    for position, (level, layer) in enumerate(free_positions):
        choice = point.assignment.choice(level, layer)
        bits.append(f"H{level + 1}/layer{layer}={choice.short}")
    return ", ".join(bits)


def bit_string(point: ExplorationPoint, num_positions: int) -> str:
    """The sweep point's bit pattern as a string (0 = dp, 1 = mp)."""
    return format(point.bits, f"0{num_positions}b")[::-1]
