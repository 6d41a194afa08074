"""The search steps ``repro.core.costs`` had before its proportionate rewrite.

Kept as the test oracles of the production paths that replaced them:

* :func:`detect_periodic_blocks` -- the signature-id detector: every cut
  segment reduced to a tuple of its shape and its cost entries as Python
  floats, equal signatures sharing one integer id.  Production gathers
  each shape's rows into one value matrix instead
  (``CostTable._detect_periodic_blocks``).
* :func:`advance_dag_block` -- the chunked enumeration of one cut segment
  with its per-chunk decode, per-column gathers, per-run ``argmin`` scan
  and pruning bounds built for every segment.
  Production runs a one-chunk segment in one pass
  (``CostTable._advance_dag_block``).
* :class:`PerLayerDescent` -- the per-layer ``state_index`` /
  ``strategy_spec`` loop ``_CompiledLevelTables`` walked the scale
  descent with.  Production tracks the halving counts as arrays
  (``HierarchicalCostTable.scale_descent``).

``tests/properties/test_property_search_oracles.py`` checks that both
sides agree exactly, and ``benchmarks/bench_search_performance.py`` times
the detectors on the same level tables.  Module constants
(``DEFAULT_CHUNK_SIZE`` and friends) are read from ``repro.core.costs``
at call time, so a test that patches them there patches both sides.
"""

from __future__ import annotations

import numpy as np

from repro.core import costs
from repro.core.strategies import BATCH, WEIGHT, strategy_spec
from repro.core.tensors import ScalingMode


def detect_periodic_blocks(table, blocks):
    """Smallest ``(period, first, stop)`` with blocks ``first:stop`` periodic."""
    num_blocks = len(blocks)
    signature_ids: dict[tuple, int] = {}
    ids = np.empty(num_blocks, dtype=np.int64)
    for position, (block_start, block_end) in enumerate(blocks):
        local_edges = table._block_local_edges(block_start, block_end)
        signature = (
            block_end - block_start,
            tuple((source, destination) for _, source, destination in local_edges),
            tuple(table.intra[block_start + 1 : block_end + 1].ravel().tolist()),
            tuple(
                table.inter[[edge_index for edge_index, _, _ in local_edges]]
                .ravel()
                .tolist()
            ),
        )
        ids[position] = signature_ids.setdefault(signature, len(signature_ids))

    for period in range(1, min(costs._MAX_BLOCK_PERIOD, num_blocks // 4) + 1):
        region = costs._periodic_run(ids[period:] == ids[:-period], period)
        if region is not None:
            return region
    return None


def advance_dag_block(table, com, block_start, block_end):
    """``(best, best_rest)`` of the cut-vertex DP across one block."""
    num_strategies = table.num_strategies
    interior_count = block_end - block_start - 1
    num_patterns = num_strategies ** (interior_count + 2)
    block_layers = interior_count + 2
    block_edges = table._block_local_edges(block_start, block_end)
    group_size = num_patterns // num_strategies
    best = np.full(num_strategies, np.inf)
    best_rest = np.zeros(num_strategies, dtype=np.int64)
    free_digits = 0
    chunk_span = 1
    while (
        free_digits < block_layers
        and chunk_span * num_strategies <= costs.DEFAULT_CHUNK_SIZE
    ):
        chunk_span *= num_strategies
        free_digits += 1
    free_floor = float(com.min())
    for local in range(1, free_digits):
        free_floor += float(table.intra[block_start + local].min())
    fixed_edges = []
    cross_into_fixed = []
    for edge_index, local_source, local_destination in block_edges:
        if local_source < free_digits and local_destination < free_digits:
            free_floor += float(table.inter[edge_index].min())
        elif local_source >= free_digits:
            fixed_edges.append((edge_index, local_source, local_destination))
        elif local_destination >= free_digits:
            cross_into_fixed.append((edge_index, local_destination))
    for start in range(0, num_patterns, chunk_span):
        if free_digits < block_layers:
            fixed = costs._decode_digits(
                np.array([start // chunk_span], dtype=np.int64),
                block_layers - free_digits,
                num_strategies,
            )[0]
            bound = free_floor
            for local in range(free_digits, block_layers):
                bound += float(
                    table.intra[block_start + local, fixed[local - free_digits]]
                )
            for edge_index, local_source, local_destination in fixed_edges:
                bound += float(
                    table.inter[
                        edge_index,
                        fixed[local_source - free_digits],
                        fixed[local_destination - free_digits],
                    ]
                )
            for edge_index, local_destination in cross_into_fixed:
                bound += float(
                    table.inter[edge_index, :, fixed[local_destination - free_digits]].min()
                )
            incumbent = float(best.max())
            if bound * (1.0 - costs._PRUNE_MARGIN) > incumbent:
                continue
        codes = np.arange(start, min(start + chunk_span, num_patterns), dtype=np.int64)
        decoded = costs._decode_digits(codes, block_layers, num_strategies)
        per_layer = np.empty((codes.shape[0], block_layers), dtype=np.float64)
        per_layer[:, 0] = com[decoded[:, 0]]
        for local in range(1, block_layers):
            per_layer[:, local] = table.intra[block_start + local][decoded[:, local]]
        inter_acc = np.zeros_like(per_layer)
        for edge_index, local_source, local_destination in block_edges:
            inter_acc[:, local_destination] += table.inter[
                edge_index,
                decoded[:, local_source],
                decoded[:, local_destination],
            ]
        per_layer[:, 1:] += inter_acc[:, 1:]
        totals = costs._sequential_row_sum(per_layer)
        end_codes = codes // group_size
        bounds = (np.flatnonzero(end_codes[1:] != end_codes[:-1]) + 1).tolist()
        for low, high in zip([0, *bounds], [*bounds, codes.shape[0]]):
            end_code = end_codes[low]
            subset = totals[low:high]
            index = int(np.argmin(subset))
            if subset[index] < best[end_code]:
                best[end_code] = subset[index]
                best_rest[end_code] = codes[low + index] % group_size
    return best, best_rest


class PerLayerDescent:
    """The scale descent walked one layer at a time, as lists."""

    def __init__(self, table) -> None:
        self._table = table
        self._batch_counts = [0] * table.num_layers
        self._weight_counts = [0] * table.num_layers

    def states(self, level: int) -> list[int]:
        return [
            self._table.state_index(level, b, w)
            for b, w in zip(self._batch_counts, self._weight_counts)
        ]

    def level_table(self, level: int):
        return self._table.level_cost_table(level, self.states(level))

    def advance(self, assignment) -> None:
        if self._table.scaling_mode is not ScalingMode.PARALLELISM_AWARE:
            return
        for layer, choice in enumerate(assignment):
            halves = strategy_spec(choice).halves
            if halves == BATCH:
                self._batch_counts[layer] += 1
            elif halves == WEIGHT:
                self._weight_counts[layer] += 1
