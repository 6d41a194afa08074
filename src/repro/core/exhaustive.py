"""Exhaustive and restricted enumeration of the parallelism space.

Section 3.4 of the paper notes that brute-force enumeration over a whole
network costs ``O(2^N)`` per hierarchy level and is infeasible in general;
HyPar's dynamic program exists precisely to avoid it.  We still implement
the enumeration because

* on small networks it *is* feasible, and it certifies that the dynamic
  program returns a true optimum (used heavily by the test suite);
* the paper's Figures 9 and 10 are restricted enumerations (some layers or
  levels held fixed while others sweep), which
  :func:`enumerate_restricted` reproduces.

The enumerations are *vectorized*: candidates are scored as base-``K``
digit-patterns over a :class:`~repro.core.parallelism.StrategySpace`
(``K = 2`` dp/mp by default) against a compiled
:class:`~repro.core.costs.CostTable` /
:class:`~repro.core.costs.HierarchicalCostTable` in batched NumPy
operations, and ``PartitionResult`` / breakdown objects are materialized
only for the winning candidate.  The original per-candidate object loops
are kept as ``*_reference`` oracles; the vectorized paths agree with them
bit-exactly (same optimum bytes, same first-minimum tie resolution over the
enumeration order).
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.core.communication import CommunicationModel
from repro.core.costs import CostTable, HierarchicalCostTable, _resolve_chunk_size
from repro.core.hierarchical import HierarchicalPartitioner
from repro.core.parallelism import (
    HierarchicalAssignment,
    LayerAssignment,
    Parallelism,
    StrategySpace,
)
from repro.core.partitioner import TwoWayPartitioner
from repro.core.result import HierarchicalResult, PartitionResult
from repro.core.tensors import LayerTensors
from repro.nn.model import DNNModel

#: Enumerating more than this many assignments is almost certainly a bug in
#: the caller (the full space for VGG-E at four levels is 2**76).
DEFAULT_MAX_CANDIDATES = 1 << 22


class SearchSpaceTooLarge(ValueError):
    """Raised when an enumeration would exceed the configured candidate limit."""


def all_layer_assignments(
    num_layers: int,
    strategies: StrategySpace | Sequence[Parallelism] | str | None = None,
) -> Iterator[LayerAssignment]:
    """Yield every per-layer assignment for one hierarchy level (``K^L``)."""
    if num_layers <= 0:
        raise ValueError(f"num_layers must be positive, got {num_layers}")
    space = StrategySpace.parse(strategies)
    for codes in range(space.num_assignments(num_layers)):
        yield LayerAssignment.from_codes(codes, num_layers, space)


def exhaustive_two_way(
    tensors: Sequence[LayerTensors],
    communication_model: CommunicationModel | None = None,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    strategies: StrategySpace | Sequence[Parallelism] | str | None = None,
    edges: Sequence[tuple[int, int]] | None = None,
    chunk_size: int | None = None,
    prune: bool = False,
) -> PartitionResult:
    """Brute-force optimum for a single hierarchy level.

    Scores all ``K^L`` digit-patterns in batched NumPy operations against a
    compiled :class:`~repro.core.costs.CostTable`; only the winner (the
    first minimum in digit-pattern order, like the reference scan) is
    materialized into a :class:`PartitionResult`, whose breakdown stays
    lazy.  Returns the same kind of result as the dynamic program, so the
    two can be compared directly.  ``edges`` carries the layer DAG
    (``None`` = chain).

    ``chunk_size`` bounds the per-batch peak memory of the scorer;
    ``prune=True`` turns the scan into branch-and-bound: on chain tables
    the dynamic program's optimum seeds the incumbent (it *is* the
    optimum, so almost every chunk's dominance bound prunes), and chunks
    whose lower bound cannot beat the incumbent are skipped entirely.  The
    returned winner is identical either way -- pruning only skips
    provably-losing work.
    """
    space = StrategySpace.parse(strategies)
    num_layers = len(tensors)
    if space.num_assignments(num_layers) > max_candidates:
        raise SearchSpaceTooLarge(
            f"{space.size}^{num_layers} assignments exceed the limit of {max_candidates}"
        )
    table = CostTable.from_tensors(tensors, communication_model, space, edges=edges)
    upper_bound = None
    if prune:
        # Algorithm 1 / the cut-vertex program already yields the true
        # optimum total; as a branch-and-bound incumbent it lets the
        # dominance bound discard every chunk that cannot tie it.  The
        # safety margin inside the pruned scan keeps first-minimum tie
        # resolution identical to the plain scan.
        upper_bound = table.dp_partition().communication_bytes
    best_codes, best_total = table.argmin_assignment(
        chunk_size=chunk_size, prune=prune, upper_bound=upper_bound
    )
    return table.lazy_result(
        LayerAssignment.from_codes(best_codes, num_layers, space), best_total
    )


def exhaustive_two_way_reference(
    tensors: Sequence[LayerTensors],
    communication_model: CommunicationModel | None = None,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    strategies: StrategySpace | Sequence[Parallelism] | str | None = None,
    edges: Sequence[tuple[int, int]] | None = None,
) -> PartitionResult:
    """Object-based per-candidate scan: the oracle for :func:`exhaustive_two_way`."""
    space = StrategySpace.parse(strategies)
    num_layers = len(tensors)
    if space.num_assignments(num_layers) > max_candidates:
        raise SearchSpaceTooLarge(
            f"{space.size}^{num_layers} assignments exceed the limit of {max_candidates}"
        )
    partitioner = TwoWayPartitioner(communication_model, space)
    best: PartitionResult | None = None
    for assignment in all_layer_assignments(num_layers, space):
        candidate = partitioner.evaluate(tensors, assignment, edges=edges)
        if best is None or candidate.communication_bytes < best.communication_bytes:
            best = candidate
    assert best is not None  # num_layers >= 1 guarantees at least one candidate
    return best


def exhaustive_hierarchical(
    model: DNNModel,
    batch_size: int,
    num_levels: int,
    partitioner: HierarchicalPartitioner | None = None,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> HierarchicalResult:
    """Brute-force optimum over the full ``K^(H*L)`` hierarchical space.

    Only feasible for small models / few levels; used to validate the
    greedy-per-level structure of Algorithm 2 on toy cases.  All candidates
    are scored as digit-patterns against a
    :class:`~repro.core.costs.HierarchicalCostTable` (enumerated in the same
    order as ``itertools.product`` over per-level assignments, so ties pick
    the same winner as the reference loop); only the winner is materialized
    into a full :class:`HierarchicalResult`.  The strategy space is the
    partitioner's.
    """
    partitioner = partitioner or HierarchicalPartitioner(num_levels=num_levels)
    if partitioner.num_levels != num_levels:
        raise ValueError("partitioner and num_levels disagree")
    num_layers = len(model)
    space = partitioner.strategies
    total_candidates = space.size ** (num_levels * num_layers)
    if total_candidates > max_candidates:
        raise SearchSpaceTooLarge(
            f"{space.size}^{num_levels * num_layers} hierarchical assignments "
            f"exceed the limit of {max_candidates}"
        )
    table = partitioner.compile_table(model, batch_size)
    best_codes, _ = table.argmin_assignment()
    return partitioner.evaluate(
        model, table.codes_to_assignment(best_codes), batch_size, table=table
    )


def exhaustive_hierarchical_reference(
    model: DNNModel,
    batch_size: int,
    num_levels: int,
    partitioner: HierarchicalPartitioner | None = None,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> HierarchicalResult:
    """Object-based scan of the hierarchical space: the vectorized oracle."""
    partitioner = partitioner or HierarchicalPartitioner(num_levels=num_levels)
    if partitioner.num_levels != num_levels:
        raise ValueError("partitioner and num_levels disagree")
    num_layers = len(model)
    space = partitioner.strategies
    total_candidates = space.size ** (num_levels * num_layers)
    if total_candidates > max_candidates:
        raise SearchSpaceTooLarge(
            f"{space.size}^{num_levels * num_layers} hierarchical assignments "
            f"exceed the limit of {max_candidates}"
        )

    best: HierarchicalResult | None = None
    level_space = list(all_layer_assignments(num_layers, space))
    for combo in itertools.product(level_space, repeat=num_levels):
        assignment = HierarchicalAssignment(tuple(combo))
        candidate = partitioner.evaluate(model, assignment, batch_size)
        if (
            best is None
            or candidate.total_communication_bytes < best.total_communication_bytes
        ):
            best = candidate
    assert best is not None
    return best


def restricted_assignment(
    base_assignment: HierarchicalAssignment,
    free_positions: Sequence[tuple[int, int]],
    codes: int,
    strategies: StrategySpace | Sequence[Parallelism] | str | None = None,
) -> HierarchicalAssignment:
    """The assignment of one restricted-sweep candidate.

    ``codes`` follows the sweep encoding: base-``K`` digit ``i`` (least
    significant first) holds the strategy choice of ``free_positions[i]``;
    every other position keeps the base assignment's value.
    """
    space = StrategySpace.parse(strategies)
    levels = [list(level.choices) for level in base_assignment]
    for position, (level, layer) in enumerate(free_positions):
        digit = (codes // space.size ** position) % space.size
        levels[level][layer] = space.members[digit]
    return HierarchicalAssignment(
        tuple(LayerAssignment(tuple(choices)) for choices in levels)
    )


def check_free_positions(
    model: DNNModel,
    base_assignment: HierarchicalAssignment,
    free: Sequence[tuple[int, int]],
    max_candidates: int,
    space: StrategySpace,
) -> None:
    """Validate the free positions of a restricted sweep.

    Shared by :func:`enumerate_restricted`, its vectorized counterpart and
    the Figures 9/10 explorer, so the candidate-count limit and the index
    range checks cannot drift between them.
    """
    if not free:
        raise ValueError("free_positions must contain at least one position")
    if space.size ** len(free) > max_candidates:
        raise SearchSpaceTooLarge(
            f"{space.size}^{len(free)} candidates exceed the limit of {max_candidates}"
        )
    for level, layer in free:
        if not 0 <= level < base_assignment.num_levels:
            raise ValueError(f"level {level} out of range")
        if not 0 <= layer < len(model):
            raise ValueError(f"layer {layer} out of range")


def enumerate_restricted(
    model: DNNModel,
    batch_size: int,
    base_assignment: HierarchicalAssignment,
    free_positions: Iterable[tuple[int, int]],
    evaluator: Callable[[HierarchicalAssignment], float],
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    strategies: StrategySpace | Sequence[Parallelism] | str | None = None,
) -> list[tuple[HierarchicalAssignment, float]]:
    """Sweep a restricted subset of (level, layer) positions.

    This is the machinery behind the paper's Figures 9 and 10: all positions
    of ``base_assignment`` stay fixed except the ``free_positions``, which
    enumerate every strategy combination of the space.  ``evaluator`` maps
    an assignment to the objective being plotted (communication, simulated
    time, ...); the returned list preserves enumeration order (digit
    patterns over the free positions, least-significant position first).

    For the pure-communication objective use
    :func:`enumerate_restricted_communication`, which scores every
    candidate in batched NumPy operations instead of calling back into
    Python per point.
    """
    space = StrategySpace.parse(strategies)
    free = list(free_positions)
    check_free_positions(model, base_assignment, free, max_candidates, space)

    results: list[tuple[HierarchicalAssignment, float]] = []
    for codes in range(space.size ** len(free)):
        assignment = restricted_assignment(base_assignment, free, codes, space)
        results.append((assignment, evaluator(assignment)))
    return results


def enumerate_restricted_communication(
    model: DNNModel,
    batch_size: int,
    base_assignment: HierarchicalAssignment,
    free_positions: Iterable[tuple[int, int]],
    table: HierarchicalCostTable | None = None,
    partitioner: HierarchicalPartitioner | None = None,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    strategies: StrategySpace | Sequence[Parallelism] | str | None = None,
    chunk_size: int | None = None,
) -> np.ndarray:
    """Total communication bytes of every candidate of a restricted sweep.

    Vectorized counterpart of :func:`enumerate_restricted` for the
    communication objective: entry ``i`` of the returned array is the total
    traffic (bit-exact with
    ``HierarchicalPartitioner.evaluate(...).total_communication_bytes``) of
    the candidate whose free-position digits encode ``i`` (least
    significant digit = first free position).  No assignment or breakdown
    objects are built; materialize interesting points with
    :func:`restricted_assignment`.

    ``table`` may be passed to reuse a compiled cost table across sweeps;
    otherwise one is compiled from ``partitioner`` (or the default
    four-level configuration).  The sweep's strategy space defaults to the
    table's / partitioner's space.  ``chunk_size`` bounds the candidates
    scored per batch (peak memory); the totals are byte-identical for any
    chunk size.
    """
    free = list(free_positions)
    if table is None:
        partitioner = partitioner or HierarchicalPartitioner(
            num_levels=base_assignment.num_levels,
            strategies=strategies,
        )
        table = partitioner.compile_table(model, batch_size)
    else:
        # A stale table would yield silently wrong totals; validate it like
        # every other table-accepting consumer.  Without a partitioner the
        # table's own scaling/communication configuration is authoritative.
        table.check_compatible(
            model,
            batch_size,
            partitioner.num_levels if partitioner else base_assignment.num_levels,
            partitioner.scaling_mode if partitioner else table.scaling_mode,
            partitioner.communication_model if partitioner else table.communication_model,
            strategies=partitioner.strategies if partitioner else None,
        )
    space = StrategySpace.parse(strategies) if strategies is not None else table.strategies
    if space != table.strategies:
        raise ValueError(
            f"sweep strategy space {space.describe()} does not match the "
            f"table's {table.strategies.describe()}"
        )
    check_free_positions(model, base_assignment, free, max_candidates, space)

    num_candidates = space.size ** len(free)
    chunk_span = _resolve_chunk_size(chunk_size)
    code_of = space.code_of
    base_codes = [
        np.array([code_of(choice) for choice in base_assignment[level]], dtype=np.int64)
        for level in range(base_assignment.num_levels)
    ]
    totals = np.empty(num_candidates, dtype=np.float64)
    for start in range(0, num_candidates, chunk_span):
        chunk = np.arange(start, min(start + chunk_span, num_candidates), dtype=np.int64)
        # Start every level from the base assignment's codes, then overwrite
        # the free positions from the candidate counter.
        decoded = [np.tile(codes, (chunk.shape[0], 1)) for codes in base_codes]
        for position, (level, layer) in enumerate(free):
            if space.size == 2:
                decoded[level][:, layer] = (chunk >> position) & 1
            else:
                decoded[level][:, layer] = (chunk // space.size ** position) % space.size
        totals[start : start + chunk.shape[0]] = table.score_level_codes(decoded)
    return totals
