"""Algorithm 2: hierarchical partition of an accelerator array.

The whole array of ``2**H`` accelerators is split recursively: Algorithm 1
partitions the array into two halves (hierarchy level ``H1``), then each
half is partitioned again (``H2``), and so on for ``H`` levels until single
accelerators remain.  One parallelism list is produced per level, exactly
as in Figure 5 of the paper, and the total communication is

.. code-block:: text

   com(H) = com_level + 2 * com(H - 1)

because the two sibling sub-arrays each repeat the lower-level pattern.

The tensor amounts seen by deeper levels shrink according to the
:class:`~repro.core.tensors.ScalingMode`; see that module's docstring and
the ablation discussion in DESIGN.md.

Searches and evaluations run against a compiled
:class:`~repro.core.costs.HierarchicalCostTable` (every reachable
scale-descent state is derived once per model and gathered per level), so
sweeps that evaluate many assignments of the same model share one table;
pass it explicitly via the ``table`` parameter or let each call compile its
own.  Per level, a search on a compiled table gathers the level's costs
under the descent's states (tracked as arrays, one gather per level) and
reuses the table's edge structure, so it redoes nothing that stays the
same from level to level.  The original object-based evaluation is kept as
:meth:`HierarchicalPartitioner.evaluate_reference`, the oracle the
vectorized paths are tested against.
"""

from __future__ import annotations

from typing import Sequence, Union

from repro.core.communication import CommunicationModel
from repro.core.costs import CostTable, HierarchicalCostTable, TableCache, WarmStartDP
from repro.core.parallelism import (
    HierarchicalAssignment,
    LayerAssignment,
    Parallelism,
    StrategySpace,
)
from repro.core.partitioner import TwoWayPartitioner
from repro.core.result import HierarchicalResult, LevelResult
from repro.core.tensors import (
    ScalingMode,
    TensorScale,
    descend_scales,
    initial_scales,
    model_tensors,
)
from repro.nn.model import DNNModel

#: The paper's array of sixteen accelerators organised in four levels.
DEFAULT_NUM_LEVELS = 4
#: The paper's training batch size.
DEFAULT_BATCH_SIZE = 256


class HierarchicalPartitioner:
    """HyPar's hierarchical, communication-minimising partition search.

    Parameters
    ----------
    num_levels:
        Number of hierarchy levels ``H``; the array holds ``2**H``
        accelerators (the paper uses ``H = 4`` → 16 accelerators).
    communication_model:
        Cost model shared by every level (fp32 by default).
    scaling_mode:
        How tensor amounts shrink for deeper levels (see
        :class:`~repro.core.tensors.ScalingMode`).
    strategies:
        The per-layer strategy space searched at every level (the paper's
        dp/mp axis by default; e.g. ``"dp,mp,pp"`` adds pipeline
        parallelism).
    """

    def __init__(
        self,
        num_levels: int = DEFAULT_NUM_LEVELS,
        communication_model: CommunicationModel | None = None,
        scaling_mode: ScalingMode | str = ScalingMode.PARALLELISM_AWARE,
        strategies: StrategySpace | str | None = None,
    ) -> None:
        if num_levels <= 0:
            raise ValueError(f"num_levels must be positive, got {num_levels}")
        self.num_levels = num_levels
        self.communication_model = communication_model or CommunicationModel()
        self.scaling_mode = ScalingMode.parse(scaling_mode)
        self.strategies = StrategySpace.parse(strategies)
        self._two_way = TwoWayPartitioner(self.communication_model, self.strategies)

    @property
    def num_accelerators(self) -> int:
        return 1 << self.num_levels

    # ------------------------------------------------------------------
    # Cost-table compilation.
    # ------------------------------------------------------------------

    def compile_table(
        self,
        model: DNNModel,
        batch_size: int,
        table_cache: TableCache | None = None,
    ) -> HierarchicalCostTable:
        """Compile the reusable cost table for ``model`` at ``batch_size``.

        ``table_cache`` optionally supplies a shared
        :class:`~repro.core.costs.TableCache`; the compilation then happens
        at most once per configuration across every caller of that cache.
        """
        if table_cache is not None:
            return table_cache.get_or_compile(
                model,
                batch_size,
                self.num_levels,
                scaling_mode=self.scaling_mode,
                communication_model=self.communication_model,
                strategies=self.strategies,
            )
        return HierarchicalCostTable(
            model,
            batch_size,
            self.num_levels,
            scaling_mode=self.scaling_mode,
            communication_model=self.communication_model,
            strategies=self.strategies,
        )

    def _check_table(
        self, table: HierarchicalCostTable, model: DNNModel, batch_size: int
    ) -> None:
        table.check_compatible(
            model,
            batch_size,
            self.num_levels,
            self.scaling_mode,
            self.communication_model,
            strategies=self.strategies,
        )

    def _level_tables(
        self,
        model: DNNModel,
        batch_size: int,
        table: HierarchicalCostTable | None,
    ) -> "_LevelTableProvider":
        """Per-level cost tables for one descent through the hierarchy.

        With a compiled table the levels are pure gathers; without one they
        are derived along the actual scale descent (cheaper than compiling
        the whole state space for a single search or evaluation).
        """
        if table is not None:
            self._check_table(table, model, batch_size)
            return _CompiledLevelTables(table)
        return _DescentLevelTables(
            model,
            batch_size,
            self.communication_model,
            self.scaling_mode,
            self.strategies,
        )

    # ------------------------------------------------------------------
    # Search.
    # ------------------------------------------------------------------

    def partition(
        self,
        model: DNNModel,
        batch_size: int = DEFAULT_BATCH_SIZE,
        table: HierarchicalCostTable | None = None,
        warm: "HierarchicalWarmStart | None" = None,
    ) -> HierarchicalResult:
        """Search the parallelism list for every hierarchy level of ``model``.

        ``warm`` optionally supplies a :class:`HierarchicalWarmStart` whose
        per-level :class:`~repro.core.costs.WarmStartDP` solvers carry DP
        state from the caller's previous solves; the result is bit-exact
        with the cold search either way.
        """
        provider = self._level_tables(model, batch_size, table)
        levels: list[LevelResult] = []
        for level in range(self.num_levels):
            level_table = provider.level_table(level)
            if warm is not None:
                result = warm.level_solver(level).solve(level_table)
            else:
                result = level_table.dp_partition()
            levels.append(
                LevelResult(
                    level=level,
                    assignment=result.assignment,
                    communication_bytes=result.communication_bytes,
                    num_pairs=1 << level,
                    breakdown_factory=lambda result=result: result.breakdown,
                )
            )
            provider.advance(result.assignment)

        assignment = HierarchicalAssignment(tuple(lvl.assignment for lvl in levels))
        return HierarchicalResult(
            model_name=model.name,
            batch_size=batch_size,
            assignment=assignment,
            levels=tuple(levels),
        )

    # ------------------------------------------------------------------
    # Evaluation of arbitrary hierarchical assignments (baselines, sweeps).
    # ------------------------------------------------------------------

    def evaluate(
        self,
        model: DNNModel,
        assignment: HierarchicalAssignment,
        batch_size: int = DEFAULT_BATCH_SIZE,
        table: HierarchicalCostTable | None = None,
    ) -> HierarchicalResult:
        """Total communication of a given (possibly sub-optimal) assignment.

        The same scale-descent rules used by the search are applied, so the
        costs of searched and hand-specified assignments are directly
        comparable.  Per-layer breakdowns materialize lazily on access.
        """
        self._check_assignment(model, assignment)
        provider = self._level_tables(model, batch_size, table)
        levels: list[LevelResult] = []
        for level in range(self.num_levels):
            level_assignment = assignment[level]
            level_table = provider.level_table(level)
            levels.append(
                LevelResult(
                    level=level,
                    assignment=level_assignment,
                    communication_bytes=level_table.total_bytes(level_assignment),
                    num_pairs=1 << level,
                    breakdown_factory=lambda t=level_table, a=level_assignment: tuple(
                        t.communication_model.layer_breakdown(t.tensors, a, t.edges)
                    ),
                )
            )
            provider.advance(level_assignment)

        return HierarchicalResult(
            model_name=model.name,
            batch_size=batch_size,
            assignment=assignment,
            levels=tuple(levels),
        )

    def evaluate_reference(
        self,
        model: DNNModel,
        assignment: HierarchicalAssignment,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> HierarchicalResult:
        """Object-based evaluation: the oracle for the table-driven path.

        Re-derives the :class:`~repro.core.tensors.LayerTensors` list level
        by level with :func:`~repro.core.tensors.descend_scales`, exactly as
        the original implementation did; :meth:`evaluate` must agree with it
        bit for bit.
        """
        self._check_assignment(model, assignment)
        levels: list[LevelResult] = []
        scales: Sequence[TensorScale] = initial_scales(len(model))
        for level in range(self.num_levels):
            tensors = model_tensors(model, batch_size, scales)
            level_assignment = assignment[level]
            result = self._two_way.evaluate(tensors, level_assignment, edges=model.edges)
            levels.append(
                LevelResult(
                    level=level,
                    assignment=level_assignment,
                    communication_bytes=result.communication_bytes,
                    num_pairs=1 << level,
                    breakdown=result.breakdown,
                )
            )
            scales = descend_scales(scales, level_assignment, self.scaling_mode)

        return HierarchicalResult(
            model_name=model.name,
            batch_size=batch_size,
            assignment=assignment,
            levels=tuple(levels),
        )

    def _check_assignment(
        self, model: DNNModel, assignment: HierarchicalAssignment
    ) -> None:
        if assignment.num_levels != self.num_levels:
            raise ValueError(
                f"assignment has {assignment.num_levels} levels, "
                f"partitioner expects {self.num_levels}"
            )
        if assignment.num_layers != len(model):
            raise ValueError(
                f"assignment covers {assignment.num_layers} layers, "
                f"model {model.name!r} has {len(model)}"
            )

    # ------------------------------------------------------------------
    # Convenience evaluations of the canonical baselines.
    # ------------------------------------------------------------------

    def evaluate_uniform(
        self,
        model: DNNModel,
        parallelism: Parallelism,
        batch_size: int = DEFAULT_BATCH_SIZE,
        table: HierarchicalCostTable | None = None,
    ) -> HierarchicalResult:
        """Cost of the default Data Parallelism or Model Parallelism."""
        assignment = HierarchicalAssignment.uniform(
            parallelism, self.num_levels, len(model)
        )
        return self.evaluate(model, assignment, batch_size, table=table)

    def evaluate_per_level(
        self,
        model: DNNModel,
        level_assignment: LayerAssignment,
        batch_size: int = DEFAULT_BATCH_SIZE,
        table: HierarchicalCostTable | None = None,
    ) -> HierarchicalResult:
        """Cost of repeating the same per-layer list at every hierarchy level."""
        assignment = HierarchicalAssignment(tuple([level_assignment] * self.num_levels))
        return self.evaluate(model, assignment, batch_size, table=table)


class HierarchicalWarmStart:
    """Per-level warm-start state for consecutive hierarchical solves.

    The greedy level-by-level descent means level ``h``'s table depends
    only on the choices of levels ``0 .. h-1``: two solves of the same
    ``(model, batch, scaling, strategies)`` configuration at *different*
    total depths share identical tables for their common level prefix.
    Keeping one :class:`~repro.core.costs.WarmStartDP` per level index
    therefore turns the re-solves of an elastic re-planning timeline (the
    array regrows from 8 to 16 accelerators and back) into frontier
    lookups instead of full dynamic programs.
    """

    def __init__(self) -> None:
        self._solvers: dict[int, WarmStartDP] = {}

    def level_solver(self, level: int) -> WarmStartDP:
        solver = self._solvers.get(level)
        if solver is None:
            solver = WarmStartDP()
            self._solvers[level] = solver
        return solver

    def stats(self) -> dict:
        """Aggregated reuse counters across every level solver."""
        totals = {"full_hits": 0, "reused_layers": 0, "solved_layers": 0, "cold_solves": 0}
        for solver in self._solvers.values():
            for key, value in solver.stats().items():
                totals[key] += value
        return totals


class _CompiledLevelTables:
    """Level tables gathered from a pre-compiled :class:`HierarchicalCostTable`.

    The table's scale descent tracks every layer's halving counts as
    arrays, so each level's states are one gather and each advance two.
    """

    def __init__(self, table: HierarchicalCostTable) -> None:
        self._table = table
        self._descent = table.scale_descent()

    def level_table(self, level: int) -> CostTable:
        return self._table.level_cost_table(level, self._descent.states(level))

    def advance(self, assignment: LayerAssignment) -> None:
        self._descent.advance(assignment)


class _DescentLevelTables:
    """Level tables derived along the actual scale descent (no full compile).

    A single search or evaluation only visits one ``(level, states)``
    combination per level, so deriving the tensors on the way down -- the
    original object-path structure -- is cheaper than compiling every
    reachable state.  The floats are identical either way.
    """

    def __init__(
        self,
        model,
        batch_size,
        communication_model,
        scaling_mode,
        strategies=None,
    ) -> None:
        self._model = model
        self._batch_size = batch_size
        self._communication_model = communication_model
        self._scaling_mode = scaling_mode
        self._strategies = StrategySpace.parse(strategies)
        self._scales: Sequence[TensorScale] = initial_scales(len(model))

    def level_table(self, level: int) -> CostTable:
        tensors = model_tensors(self._model, self._batch_size, self._scales)
        return CostTable.from_tensors(
            tensors,
            self._communication_model,
            self._strategies,
            edges=self._model.edges,
        )

    def advance(self, assignment: LayerAssignment) -> None:
        self._scales = descend_scales(self._scales, assignment, self._scaling_mode)


#: Either provider satisfies the same two-method protocol.
_LevelTableProvider = Union[_CompiledLevelTables, _DescentLevelTables]
