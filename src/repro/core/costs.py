"""Vectorized cost-table evaluation engine for the partition search.

The object-based path (:class:`~repro.core.communication.CommunicationModel`
walking :class:`~repro.core.tensors.LayerTensors` lists) is convenient for
reporting but far too slow for the enumeration workloads: the restricted
sweeps of Figures 9/10 and the brute-force validators score up to ``2**22``
candidate assignments, and rebuilding tensor lists plus a
:class:`~repro.core.communication.LayerCommunication` breakdown per candidate
is pure-Python overhead repeated millions of times.

This module compiles the communication model *once* into NumPy arrays and
then scores whole batches of candidates with array operations.  Tables are
parameterized by a :class:`~repro.core.parallelism.StrategySpace` (the
paper's binary dp/mp axis by default):

* :class:`CostTable` -- one hierarchy level.  ``intra[l, c]`` is the
  intra-layer traffic (bytes) of layer ``l`` under strategy code ``c``
  (the index into the table's strategy space); ``inter[e, c, d]`` is the
  inter-layer traffic (bytes) of layer-DAG edge ``e = (src, dst)``
  (``table.edges``) when its endpoints use codes ``c`` and ``d`` -- for a
  chain, edge ``e`` is the historical boundary ``(e, e + 1)``.  The table
  supports the K-way array dynamic program of Algorithm 1 on chains, the
  cut-vertex dynamic program with batched branch-interior enumeration on
  DAGs (:meth:`CostTable.dp_partition`), and batched scoring of arbitrary
  base-K digit-patterns (:meth:`CostTable.score_codes`).
* :class:`HierarchicalCostTable` -- every hierarchy level at once.  Under
  :attr:`~repro.core.tensors.ScalingMode.PARALLELISM_AWARE` scaling a
  layer's tensor amounts at level ``h`` depend only on how many of its
  previous ``h`` choices halved the batch fraction and how many halved the
  weight fraction, so the table stores one cost slice per
  ``(level, halving-state)`` and batched scoring reduces to a gather over
  cumulative per-effect counts.  This is also the scale-descent cache
  used by the sweeps and the training simulator.  A level compiles in
  one array pass: the tensor amounts of all layers under all of the
  level's states are ``(L, S)`` columns, and the strategy-registry
  callables run on those columns once per strategy code (intra) and per
  ``(previous, current)`` code pair (inter).  No
  :class:`~repro.core.tensors.LayerTensors` record is built to compile;
  a gathered level table holds a lazy view that builds its records only
  when a breakdown is read.

Bit-exactness
-------------
The vectorized paths are required (and property-tested) to agree *bit for
bit* with the object-based reference path, which remains the oracle:

* table entries are computed with the same multiplications and additions,
  in the same order, as :func:`~repro.core.tensors.layer_tensors` and the
  :class:`CommunicationModel` calls the object path makes -- element-wise
  over the columns -- so the stored floats are identical (the per-entry
  compile survives as the oracle of
  ``tests/properties/test_property_table_compile.py``);
* batched totals accumulate per-layer ``intra + inter`` terms sequentially
  (layer 0, then layer 1, ...), reproducing the exact floating-point
  association of ``sum(record.total_bytes for record in breakdown)``;
* the array DP applies the same recurrence with the same tie rule
  (ties prefer the lowest strategy code -- dp first, matching
  :class:`~repro.core.partitioner.TwoWayPartitioner`), and batched argmins
  resolve ties to the lowest digit-pattern, matching the enumeration order
  of the reference brute force.

For the default dp/mp space the base-2 digit encoding *is* the bit
encoding of the Figures 9/10 exploration (layer 0 in the least significant
digit, 0 = dp, 1 = mp).

Breakdown objects are *lazy*: batch scorers return raw totals and only the
winning candidates are materialized into
:class:`~repro.core.result.PartitionResult` /
:class:`~repro.core.communication.LayerCommunication` records, on first
access of ``result.breakdown``.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
from typing import Iterator, Sequence

import numpy as np

from repro.core import kernels
from repro.core.communication import CommunicationModel
from repro.core.parallelism import (
    DEFAULT_SPACE,
    HierarchicalAssignment,
    LayerAssignment,
    Parallelism,
    StrategySpace,
)
from repro.core.result import PartitionResult
from repro.core.strategies import BATCH, NONE, WEIGHT, strategy_spec
from repro.core.tensors import (
    LayerTensors,
    ScalingMode,
    TensorScale,
    model_tensors,
)
from repro.nn.model import DNNModel

#: Candidates scored per NumPy batch; bounds peak memory of the gathered
#: (chunk, L) cost matrices to a few MB while keeping the per-chunk Python
#: overhead negligible.
DEFAULT_CHUNK_SIZE = 1 << 16

#: Largest enumerable packed-integer candidate space (int64 encodings).
_MAX_PACKED_SPACE = 1 << 62

#: Largest branch-interior pattern count the DAG dynamic program enumerates
#: per block (endpoints included).  The enumeration is chunked, so this
#: bounds *time*, not memory; real branching networks keep interiors to a
#: handful of layers, and hitting this limit means the model's branch
#: structure has no small cut decomposition.
DEFAULT_MAX_BLOCK_PATTERNS = 1 << 28

#: Chains shorter than this skip the repetition detector: the plain layer
#: loop finishes before the detection would pay for itself, and keeping
#: every historical (paper-zoo-sized) solve on the unmodified code path
#: makes the memoization a strict no-op for them.
_MEMOIZE_MIN_LAYERS = 32

#: Largest block period the repetition detector probes.  Transformer zoo
#: blocks repeat with period 4 (qkv / proj / up / down); the bound only
#: caps the (vectorized) detection work on aperiodic chains.
_MAX_MEMO_PERIOD = 64

#: Relative slack applied to dominance-pruning lower bounds before they
#: may discard a candidate chunk.  A bound assembled from per-term minima
#: uses a different float association than the exact sequential scorer, so
#: it can exceed a candidate's float total by a few ULPs; shrinking the
#: bound by far more than the worst accumulated rounding error (yet far
#: less than any real cost gap) keeps pruning bit-exact: no chunk holding
#: a first-minimum candidate is ever skipped.
_PRUNE_MARGIN = 1e-9

#: DAGs with fewer cut segments than this skip the block-repetition
#: detector, mirroring :data:`_MEMOIZE_MIN_LAYERS` for the cut-vertex
#: program: every paper-zoo branching network stays on the unmodified
#: path, and only deep residual stacks (``gpt_r``) pay for detection.
_MEMOIZE_MIN_BLOCKS = 16

#: Largest block-space period the DAG repetition detector probes.  A
#: residual transformer's cut segments alternate between the skip-free
#: connector and the skip-spanning interior (period 2); small bound, the
#: per-probe comparisons are tiny slices.
_MAX_BLOCK_PERIOD = 8

#: Test hook: cumulative DAG periodic-block-jump statistics for the
#: process.  ``jumps`` counts successful jumps, ``jumped_blocks`` /
#: ``jumped_layers`` the cut segments / layers they replayed by
#: translation instead of enumeration.
DAG_JUMP_STATS = {"jumps": 0, "jumped_blocks": 0, "jumped_layers": 0}


def _resolve_chunk_size(chunk_size: int | None) -> int:
    """Normalize a public ``chunk_size=`` argument (``None`` = default)."""
    if chunk_size is None:
        return DEFAULT_CHUNK_SIZE
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    return int(chunk_size)


# ----------------------------------------------------------------------
# Chain-DP inner loop: NumPy / compiled advancement plus block-repetition
# memoization.  Shared by CostTable.dp_partition and WarmStartDP.solve.
# ----------------------------------------------------------------------


def _advance_chain_numpy(
    intra: np.ndarray,
    inter: np.ndarray,
    parents: np.ndarray,
    frontiers: np.ndarray,
    start: int,
    stop: int,
) -> None:
    """Advance the Algorithm 1 recurrence over layers ``[start, stop)``.

    Reads the frontier (``com``) of layer ``start - 1`` from ``frontiers``
    and writes one parent row and one frontier row per advanced layer --
    the historical ``dp_partition`` loop body, verbatim, with the frontier
    matrix standing in for the rolling ``com`` vector.
    """
    state = np.arange(intra.shape[1])
    com = frontiers[start - 1]
    for layer in range(start, stop):
        candidates = com[:, None] + inter[layer - 1]  # (from, to)
        # argmin resolves ties to the lowest code (dp), matching the
        # reference earliest-strategy-wins scan.
        choice = np.argmin(candidates, axis=0)
        parents[layer - 1] = choice
        com = candidates[choice, state] + intra[layer]
        frontiers[layer] = com


def _chain_advancer(backend: str):
    """The layer-advancement routine for a resolved backend name.

    Both compiled variants share the serial chain kernel: the recurrence
    is sequential in the layer axis, so there is nothing for the
    ``prange`` leg to parallelize.
    """
    if backend in kernels.COMPILED_BACKENDS and kernels.NUMBA_AVAILABLE:
        return kernels.chain_dp_compiled
    return _advance_chain_numpy


def _detect_periodic_region(
    intra: np.ndarray, inter: np.ndarray
) -> tuple[int, int, int] | None:
    """Smallest ``(period, first, stop)`` with transitions ``first:stop`` periodic.

    Transition ``j`` (into layer ``j + 1``) is the cost pair
    ``(inter[j], intra[j + 1])``; two transitions are equivalent when
    their entries are numerically equal, making the DP treat them
    identically.  Periods are probed in ascending order with one
    vectorized shifted comparison each, and the longest run of shift-equal
    transitions wins (an embedding stem before and a classifier head after
    the repeated blocks are the norm, so the periodic region rarely
    reaches either end of the chain).  Requires at least four full periods
    so the stabilization check (step two blocks, jump the rest) has room
    to pay off.  Returns ``None`` on aperiodic chains.
    """
    num_layers = intra.shape[0]
    num_transitions = num_layers - 1
    for period in range(1, min(_MAX_MEMO_PERIOD, num_transitions // 4) + 1):
        # equal[j]: transition j matches transition j + period.
        equal = np.all(inter[period:] == inter[:-period], axis=(1, 2)) & np.all(
            intra[1 + period :] == intra[1 : num_layers - period], axis=1
        )
        region = _periodic_run(equal, period)
        if region is not None:
            return region
    return None


def _periodic_run(equal: np.ndarray, period: int) -> tuple[int, int, int] | None:
    """``(period, first, stop)`` of the longest run of shift-equal items.

    ``equal[j]`` says item ``j`` matches item ``j + period``; the first of
    the longest runs wins.  A run of ``length`` ties covers ``length +
    period`` items, and at least four full periods are required.
    """
    padded = np.concatenate(([False], equal, [False]))
    changes = np.flatnonzero(padded[1:] != padded[:-1])
    if changes.size == 0:
        return None
    run_starts = changes[::2]
    run_lengths = changes[1::2] - run_starts
    longest = int(np.argmax(run_lengths))
    first = int(run_starts[longest])
    length = int(run_lengths[longest])
    if (length + period) // period >= 4:
        return period, first, first + length + period
    return None


def _exactness_shift(arrays: Sequence[np.ndarray], magnitude: float) -> int | None:
    """Power-of-two shift making every entry an exact scaled integer.

    When all values are dyadic rationals at scale ``2**shift`` and every
    intermediate magnitude stays below ``2**53 / 2**shift``, IEEE double
    addition of these values is *exact* -- the precondition for replaying
    a converged DP block by translation instead of recomputation.  Returns
    ``None`` when no such shift exists (jump declined, stepping continues).
    """
    for array in arrays:
        if not np.all(np.isfinite(array)):
            return None
    for shift in range(53):
        scale = float(1 << shift)
        if magnitude * scale >= 2.0**53:
            return None
        if all(np.all(array * scale == np.round(array * scale)) for array in arrays):
            return shift
    return None


def _try_periodic_jump(
    intra: np.ndarray,
    inter: np.ndarray,
    parents: np.ndarray,
    frontiers: np.ndarray,
    cursor: int,
    period: int,
    count: int,
) -> bool:
    """Replay ``count`` converged blocks after boundary layer ``cursor``.

    ``cursor`` is the first layer *after* two fully stepped period blocks.
    The jump fires only when the DP has provably entered its steady state:

    * the last two blocks chose identical parent rows, and the frontier
      advanced by a *uniform* per-period increment ``delta`` (max-plus
      theory: the power iteration of a periodic transition matrix
      converges to uniform growth);
    * an exactness certificate holds (:func:`_exactness_shift`): every
      participating value is a bounded dyadic rational, so the float adds
      the skipped stepping *would* perform are exact and therefore equal
      ``previous block + delta`` bit for bit -- including every argmin
      tie, which is decided by exact comparisons of translated values.

    On success the jumped frontier rows are broadcast translations of the
    last stepped block and the parent rows are tiled copies; the caller's
    result is byte-identical to cold stepping.  Returns ``False`` (caller
    keeps stepping) when any certificate fails.
    """
    num_strategies = frontiers.shape[1]
    boundary = frontiers[cursor - 1]
    previous_boundary = frontiers[cursor - period - 1]
    delta = boundary - previous_boundary
    if not np.all(delta == delta[0]):
        return False
    if not np.array_equal(
        parents[cursor - period - 1 : cursor - 1],
        parents[cursor - 2 * period - 1 : cursor - period - 1],
    ):
        return False
    step = float(delta[0])
    intra_block = intra[cursor - period : cursor]
    inter_block = inter[cursor - period - 1 : cursor - 1]
    block_max = max(
        float(np.abs(intra_block).max()), float(np.abs(inter_block).max()), 1.0
    )
    magnitude = (
        float(np.abs(boundary).max())
        + (count + 2) * (abs(step) + block_max * (period + 2))
    )
    shift = _exactness_shift(
        [boundary, np.array([step]), intra_block, inter_block], magnitude
    )
    if shift is None:
        return False
    base_frontiers = frontiers[cursor - period : cursor]  # (period, K)
    base_parents = parents[cursor - period - 1 : cursor - 1]
    offsets = np.arange(1, count + 1, dtype=np.float64) * step
    frontiers[cursor : cursor + count * period] = (
        base_frontiers[None, :, :] + offsets[:, None, None]
    ).reshape(count * period, num_strategies)
    parents[cursor - 1 : cursor - 1 + count * period] = np.tile(
        base_parents, (count, 1)
    )
    return True


def _chain_dp_run(
    intra: np.ndarray,
    inter: np.ndarray,
    start: int,
    parents: np.ndarray,
    frontiers: np.ndarray,
    *,
    backend: str,
    memoize: bool = True,
) -> tuple[np.ndarray, int]:
    """Fill ``parents`` / ``frontiers`` for layers ``[start, L)``.

    The single chain-DP driver behind :meth:`CostTable.dp_partition` and
    :class:`WarmStartDP`: advances the recurrence with the selected
    backend and, when ``memoize`` is on and the chain's transitions repeat
    (transformer blocks), replays converged period blocks by translation
    (:func:`_try_periodic_jump`) instead of stepping them.  Returns the
    final frontier and the number of layers filled by jumps; every filled
    row is bit-exact with cold stepping.
    """
    num_layers = intra.shape[0]
    advance = _chain_advancer(backend)
    if not memoize or num_layers - start < _MEMOIZE_MIN_LAYERS:
        advance(intra, inter, parents, frontiers, start, num_layers)
        return frontiers[num_layers - 1], 0
    detected = _detect_periodic_region(intra, inter)
    if detected is None:
        advance(intra, inter, parents, frontiers, start, num_layers)
        return frontiers[num_layers - 1], 0
    period, first_transition, stop_transition = detected
    # Transition ``j`` feeds layer ``j + 1``: the periodic layers are
    # ``[first_transition + 1, stop_transition + 1)``.
    region_first = first_transition + 1
    region_stop = stop_transition + 1
    anchor = max(start, region_first, 1)
    blocks_behind = -(-(anchor - region_first) // period)  # ceil division
    cursor = region_first + blocks_behind * period  # first block boundary >= anchor
    last_boundary = region_first + ((region_stop - region_first) // period) * period
    if cursor + 2 * period > last_boundary:
        advance(intra, inter, parents, frontiers, start, num_layers)
        return frontiers[num_layers - 1], 0
    advance(intra, inter, parents, frontiers, start, cursor)
    stepped_blocks = 0
    jumped_layers = 0
    while cursor + period <= last_boundary:
        advance(intra, inter, parents, frontiers, cursor, cursor + period)
        stepped_blocks += 1
        cursor += period
        remaining = (last_boundary - cursor) // period
        if stepped_blocks >= 2 and remaining >= 1:
            if _try_periodic_jump(
                intra, inter, parents, frontiers, cursor, period, remaining
            ):
                jumped_layers = remaining * period
                cursor += jumped_layers
                break
    advance(intra, inter, parents, frontiers, cursor, num_layers)
    return frontiers[num_layers - 1], jumped_layers


def _sequential_row_sum(per_layer: np.ndarray) -> np.ndarray:
    """Left-to-right sum along axis 1, matching Python's ``sum()`` exactly.

    ``np.sum`` uses pairwise summation whose rounding can differ from the
    sequential accumulation of the object-based reference path; an explicit
    column loop (cheap: one vector add per layer) guarantees bit-exact
    parity.
    """
    totals = per_layer[:, 0].copy()
    for column in range(1, per_layer.shape[1]):
        totals += per_layer[:, column]
    return totals


def _decode_digits(codes: np.ndarray, num_layers: int, base: int) -> np.ndarray:
    """Base-``base`` digit matrix ``(N, L)`` of packed candidate integers.

    Callers must ensure ``base ** num_layers`` fits the int64 packed
    encoding (:data:`_MAX_PACKED_SPACE`); the public packed-integer entry
    points check and direct deeper models to the decoded-matrix scorers.
    """
    if base == 2:
        shifts = np.arange(num_layers, dtype=np.int64)
        return (codes[:, None] >> shifts) & 1
    powers = base ** np.arange(num_layers, dtype=np.int64)
    return (codes[:, None] // powers) % base


def _chain_edges(num_layers: int) -> tuple[tuple[int, int], ...]:
    """The canonical edge list of a linear chain of ``num_layers`` layers."""
    return tuple((index, index + 1) for index in range(num_layers - 1))


def _normalize_edges(
    edges: Sequence[tuple[int, int]] | None, num_layers: int
) -> tuple[tuple[int, int], ...]:
    """Coerce an edge list to int tuples, defaulting ``None`` to the chain."""
    if edges is None:
        return _chain_edges(num_layers)
    return tuple((int(source), int(destination)) for source, destination in edges)


class _Amounts:
    """Tensor amounts shaped like a :class:`LayerTensors` record, as arrays.

    Carries the attribute names (the error/gradient aliases included) the
    strategy-registry callables read, so a single call evaluates one
    Table-1 column or Table-2 transition for a whole block of layers and
    scale states.
    """

    __slots__ = ("feature_in", "feature_out", "weight", "macs")

    def __init__(
        self,
        feature_in: np.ndarray,
        feature_out: np.ndarray,
        weight: np.ndarray,
        macs: np.ndarray,
    ) -> None:
        self.feature_in = feature_in
        self.feature_out = feature_out
        self.weight = weight
        self.macs = macs

    @property
    def error_in(self) -> np.ndarray:
        return self.feature_in

    @property
    def error_out(self) -> np.ndarray:
        return self.feature_out

    @property
    def gradient(self) -> np.ndarray:
        return self.weight

    def rows(self, indices: np.ndarray) -> "_Amounts":
        """The amounts of the given layers (e.g. every edge's source)."""
        return _Amounts(
            self.feature_in[indices],
            self.feature_out[indices],
            self.weight[indices],
            self.macs[indices],
        )


class _TensorColumns(_Amounts):
    """Tensor amounts of ``L`` layers under ``S`` scale states, column-wise.

    ``feature_in`` / ``feature_out`` / ``weight`` / ``macs`` are ``(L, S)``
    float64 arrays: entry ``[l, s]`` is the matching :class:`LayerTensors`
    field of layer ``l`` under scale state ``s``, computed with the same
    multiplications in the same order as :func:`layer_tensors`, so every
    entry is bit-identical to the record's float.  ``identities`` holds
    each row's ``(layer_index, layer_name, is_conv)``.  Records are built
    on first request and kept per ``(layer, state)``, so every view of one
    level shares them.
    """

    __slots__ = ("identities", "_built")

    def __init__(
        self,
        identities: tuple[tuple[int, str, bool], ...],
        feature_in: np.ndarray,
        feature_out: np.ndarray,
        weight: np.ndarray,
        macs: np.ndarray,
    ) -> None:
        super().__init__(feature_in, feature_out, weight, macs)
        self.identities = identities
        self._built: dict[tuple[int, int], LayerTensors] = {}

    @staticmethod
    def layer_amounts(layers: Sequence) -> tuple:
        """``(identities, inputs, outputs, weights, macs)`` of model layers.

        The unscaled per-layer operands of :meth:`of_layers` as ``(L, 1)``
        float64 columns, read once per table.  The int amounts convert to
        float exactly as Python's mixed int/float multiplication in
        :func:`layer_tensors` converts them.
        """
        def column(values) -> np.ndarray:
            return np.array([float(value) for value in values], dtype=np.float64)[:, None]

        return (
            tuple((layer.index, layer.name, layer.is_conv) for layer in layers),
            column(layer.input_shape.elements for layer in layers),
            column(layer.output_shape.elements for layer in layers),
            column(layer.weight_count for layer in layers),
            column(layer.macs_per_sample for layer in layers),
        )

    @classmethod
    def of_layers(
        cls,
        layer_amounts: tuple,
        batch_size: int,
        batch_fractions: np.ndarray,
        weight_fractions: np.ndarray,
    ) -> "_TensorColumns":
        """Columns of the layers under per-state ``(S,)`` scale fractions."""
        identities, inputs, outputs, weights, macs = layer_amounts
        # ``layer_tensors``: ``batch * fraction`` first, then each amount
        # left to right.
        effective_batch = float(batch_size) * batch_fractions
        return cls(
            identities,
            feature_in=effective_batch * inputs,
            feature_out=effective_batch * outputs * weight_fractions,
            weight=weights * weight_fractions,
            macs=effective_batch * macs * weight_fractions,
        )

    @classmethod
    def of_records(cls, records: tuple[LayerTensors, ...]) -> "_TensorColumns":
        """Single-state ``(L, 1)`` columns of existing records.

        :meth:`record` hands the given records back unchanged.
        """
        amounts = np.array(
            [
                (
                    float(record.feature_in),
                    float(record.feature_out),
                    float(record.weight),
                    float(record.macs),
                )
                for record in records
            ],
            dtype=np.float64,
        )
        columns = cls(
            tuple(
                (record.layer_index, record.layer_name, record.is_conv)
                for record in records
            ),
            feature_in=amounts[:, 0:1],
            feature_out=amounts[:, 1:2],
            weight=amounts[:, 2:3],
            macs=amounts[:, 3:4],
        )
        columns._built.update(((layer, 0), record) for layer, record in enumerate(records))
        return columns

    @property
    def num_states(self) -> int:
        return self.feature_in.shape[1]

    def record(self, layer: int, state: int) -> LayerTensors:
        """The :class:`LayerTensors` record of one layer under one state."""
        built = self._built.get((layer, state))
        if built is None:
            layer_index, layer_name, is_conv = self.identities[layer]
            built = self._built[layer, state] = LayerTensors(
                layer_index=layer_index,
                layer_name=layer_name,
                is_conv=is_conv,
                feature_in=float(self.feature_in[layer, state]),
                feature_out=float(self.feature_out[layer, state]),
                weight=float(self.weight[layer, state]),
                macs=float(self.macs[layer, state]),
            )
        return built


class _LevelRecords(Sequence[LayerTensors]):
    """Lazy per-layer :class:`LayerTensors` of one level under given states.

    The tensor records a gathered :class:`CostTable` hands to the
    object-based breakdown.  Searches and simulations never read them, so
    each is built from the level's columns only when it is read, i.e. when
    a breakdown is materialized.
    """

    __slots__ = ("_columns", "_states")

    def __init__(self, columns: _TensorColumns, states: np.ndarray) -> None:
        self._columns = columns
        self._states = states

    def __len__(self) -> int:
        return len(self._states)

    def __getitem__(self, index):
        layers = range(len(self._states))[index]
        if isinstance(layers, range):
            return tuple(self[layer] for layer in layers)
        return self._columns.record(layers, int(self._states[layers]))


def _fill_cost_block(
    columns: _TensorColumns,
    space: StrategySpace,
    communication_model: CommunicationModel,
    edges: tuple[tuple[int, int], ...],
    intra: np.ndarray | None = None,
    inter: np.ndarray | None = None,
    inter_forward: np.ndarray | None = None,
    inter_backward: np.ndarray | None = None,
) -> None:
    """Fill ``(L, S, K)`` intra / ``(E, S, K, K)`` inter cost blocks in place.

    ``columns`` holds the tensor amounts of every layer under every scale
    state; ``edges`` is the canonical edge list the ``inter`` axis is
    indexed by, and an edge's boundary tensors are its *source* layer's.

    This is the cost-model seam of the table compiler.  For the plain
    analytic model the unchanged strategy-registry callables run on whole
    ``(L, S)`` / ``(E, S)`` column blocks, once per strategy code (intra)
    and once per ``(previous, current)`` code pair (inter), and the byte
    conversion inlines ``CommunicationModel._to_bytes`` -- the same
    additions and multiplications in the same order as the per-entry
    object path, applied element-wise, so the stored floats are identical
    to it (``tests/properties/test_property_table_compile.py`` keeps that
    per-entry compile as its oracle).  A *calibrated* model (profiled cost
    packs, ``is_calibrated``) owns per-entry scaling and latency terms, so
    its entries are produced one by one by the same byte-level methods the
    object-based oracle evaluates, fed with the records of ``columns`` --
    tables and breakdowns agree bit for bit by construction.
    """
    model = communication_model
    members = space.members
    if model.is_calibrated:
        for state in range(columns.num_states):
            records = [columns.record(layer, state) for layer in range(len(columns.identities))]
            if intra is not None:
                for index, record in enumerate(records):
                    for code, member in enumerate(members):
                        intra[index, state, code] = model.intra_layer_bytes(record, member)
            for edge_index, (source, _destination) in enumerate(edges):
                boundary = records[source]
                for q_code, current in enumerate(members):
                    for p_code, previous in enumerate(members):
                        entry = (edge_index, state, p_code, q_code)
                        if inter is not None:
                            inter[entry] = model.inter_layer_bytes(previous, current, boundary)
                        if inter_forward is not None:
                            inter_forward[entry] = model.inter_layer_forward_bytes(
                                previous, current, boundary
                            )
                        if inter_backward is not None:
                            inter_backward[entry] = model.inter_layer_backward_bytes(
                                previous, current, boundary
                            )
        return
    specs = [strategy_spec(member) for member in members]
    # The blocks take element amounts first; the byte conversion below
    # then applies ``_to_bytes``'s two multiplications to every entry.
    if intra is not None:
        for code, spec in enumerate(specs):
            intra[:, :, code] = spec.intra_elements(columns)
    if inter is not None or inter_forward is not None or inter_backward is not None:
        boundary = columns.rows(np.array([source for source, _ in edges], dtype=np.intp))
        for q_code, spec in enumerate(specs):
            for p_code, previous in enumerate(members):
                forward = spec.inter_forward_elements(previous, boundary)
                backward = spec.inter_backward_elements(previous, boundary)
                if inter is not None:
                    inter[:, :, p_code, q_code] = forward + backward
                if inter_forward is not None:
                    inter_forward[:, :, p_code, q_code] = forward
                if inter_backward is not None:
                    inter_backward[:, :, p_code, q_code] = backward
    for block in (intra, inter, inter_forward, inter_backward):
        if block is not None:
            block *= model.bytes_per_element
            block *= model.pair_factor


@dataclasses.dataclass(frozen=True, eq=False)
class CostTable:
    """Compiled per-layer communication costs for one hierarchy level.

    Identity equality (``eq=False``): the ndarray fields make a generated
    value ``__eq__`` raise, and two independently compiled tables are never
    meaningfully "the same" object to a cache anyway.

    Attributes
    ----------
    intra:
        ``(L, K)`` float array; ``intra[l, c]`` is the Table-1 intra-layer
        traffic (bytes) of layer ``l`` under strategy code ``c``.
    inter:
        ``(E, K, K)`` float array; ``inter[e, c, d]`` is the Table-2
        inter-layer traffic (bytes) of edge ``e = (src, dst)`` of the layer
        DAG when ``src`` uses code ``c`` and ``dst`` uses code ``d``.  For
        a chain ``E = L - 1`` and edge ``e`` is the historical boundary
        ``(e, e + 1)``.
    tensors:
        The tensor records the table was compiled from, kept so winning
        candidates can lazily materialize their full breakdown through the
        object-based reference path.  Tables gathered from a
        :class:`HierarchicalCostTable` hold a lazy view that builds the
        records only when a breakdown is read.
    communication_model:
        The model used to compile the table (and to materialize breakdowns).
    strategies:
        The strategy space defining the code axis (dp/mp by default).
    edges:
        The canonical ``(source, destination)`` edge list the ``inter``
        axis is indexed by (ordered by destination, then input position);
        ``None`` normalizes to the chain.
    backend:
        Kernel backend for the search hot paths: ``"numpy"`` (the
        vectorized loops), ``"compiled"`` (numba ``@njit`` kernels for
        the chain DP, the DAG cut-vertex DP and the batched scorers,
        silently falling back to NumPy when numba is absent),
        ``"compiled-parallel"`` (the same kernels with ``prange``
        candidate scoring), or ``None`` to follow the process default
        (:func:`repro.core.kernels.get_default_backend`), resolved at
        each use.  Backends are bit-exact with each other.
    """

    intra: np.ndarray
    inter: np.ndarray
    tensors: Sequence[LayerTensors]
    communication_model: CommunicationModel
    strategies: StrategySpace = DEFAULT_SPACE
    edges: tuple[tuple[int, int], ...] | None = None
    backend: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "edges", _normalize_edges(self.edges, len(self.tensors))
        )
        kernels.validate_backend(self.backend)
        kernels.warn_numba_fallback(self.backend)

    @functools.cached_property
    def is_chain(self) -> bool:
        """True when the edge list is the historical linear chain."""
        return self.edges == _chain_edges(self.num_layers)

    @functools.cached_property
    def _edges_by_destination(self) -> tuple[list[int], list[int]]:
        """Edge indices stably sorted by destination, and their destinations.

        Canonical edge lists are destination-ordered already, so the order
        is normally the identity; either way the edges into a contiguous
        destination range are one bisected slice (:meth:`_edges_into`).
        """
        order = sorted(range(len(self.edges)), key=lambda e: self.edges[e][1])
        return order, [self.edges[e][1] for e in order]

    def _edges_into(self, first: int, last: int) -> list[int]:
        """Indices, in canonical order, of the edges with ``first < dst <= last``."""
        order, destinations = self._edges_by_destination
        selected = order[
            bisect.bisect_right(destinations, first) : bisect.bisect_right(
                destinations, last
            )
        ]
        selected.sort()  # canonical order; already sorted for canonical lists
        return selected

    @functools.cached_property
    def _kernel_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(edge_index, source, destination)`` arrays for the DAG kernels.

        Grouped by destination with a *stable* sort, so each merge
        layer's incoming edges keep their canonical relative order and
        the kernels' per-destination accumulation is bit-exact with the
        NumPy edge loop.
        """
        order, destinations = self._edges_by_destination
        edge_index = np.array(order, dtype=np.int64)
        edge_source = np.array(
            [self.edges[e][0] for e in order], dtype=np.int64
        )
        edge_destination = np.array(destinations, dtype=np.int64)
        return edge_index, edge_source, edge_destination

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------

    @classmethod
    def from_tensors(
        cls,
        tensors: Sequence[LayerTensors],
        communication_model: CommunicationModel | None = None,
        strategies: StrategySpace | Sequence[Parallelism] | str | None = None,
        edges: Sequence[tuple[int, int]] | None = None,
        backend: str | None = None,
    ) -> "CostTable":
        """Compile the table from per-layer tensor amounts.

        ``edges`` is the layer DAG's canonical edge list; omitted it
        defaults to the chain, which keeps every historical call site (and
        its outputs) untouched.
        """
        tensors = tuple(tensors)
        if not tensors:
            raise ValueError("cannot build a cost table for zero layers")
        space = StrategySpace.parse(strategies)
        model = communication_model or CommunicationModel()
        edge_list = _normalize_edges(edges, len(tensors))
        num_strategies = space.size
        intra = np.empty((len(tensors), num_strategies), dtype=np.float64)
        inter = np.zeros(
            (len(edge_list), num_strategies, num_strategies), dtype=np.float64
        )
        # One scale state: fill through ``(L, 1, K)`` / ``(E, 1, K, K)`` views.
        _fill_cost_block(
            _TensorColumns.of_records(tensors),
            space,
            model,
            edge_list,
            intra=intra[:, None, :],
            inter=inter[:, None, :, :],
        )
        return cls(
            intra=intra,
            inter=inter,
            tensors=tensors,
            communication_model=model,
            strategies=space,
            edges=edge_list,
            backend=backend,
        )

    @classmethod
    def compile(
        cls,
        model: DNNModel,
        batch_size: int,
        scales: Sequence[TensorScale] | None = None,
        communication_model: CommunicationModel | None = None,
        strategies: StrategySpace | Sequence[Parallelism] | str | None = None,
        backend: str | None = None,
    ) -> "CostTable":
        """Compile the table for ``model`` at ``batch_size`` (and ``scales``)."""
        return cls.from_tensors(
            model_tensors(model, batch_size, scales),
            communication_model,
            strategies,
            edges=model.edges,
            backend=backend,
        )

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    @property
    def num_layers(self) -> int:
        return len(self.tensors)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_strategies(self) -> int:
        """The base ``K`` of the candidate digit encoding."""
        return self.strategies.size

    @property
    def num_assignments(self) -> int:
        """Size of the full assignment space for this level (``K**L``)."""
        return self.strategies.num_assignments(self.num_layers)

    # ------------------------------------------------------------------
    # Algorithm 1 as a K-way array DP over the table.
    # ------------------------------------------------------------------

    def dp_partition(self, *, memoize: bool = True) -> PartitionResult:
        """Optimal per-layer assignment over the table (Algorithm 1, generalized).

        For a chain this is exactly the recurrence of
        :meth:`~repro.core.partitioner.TwoWayPartitioner.partition_tensors_reference`
        -- same additions in the same order, ties preferring the lowest
        strategy code (dp first) -- so the returned optimum is bit-exact
        with the object-based oracle, byte-identical to the historical
        array DP.  The chain recurrence runs on the table's
        :attr:`backend` and, with ``memoize`` on (the default), replays
        converged repeated-block transitions by translation instead of
        stepping them (:func:`_chain_dp_run`) -- both bit-exact with the
        cold NumPy loop, which ``memoize=False`` forces for oracle runs.
        For a DAG the table runs the same dynamic program over the model's
        *cut vertices* (layers no edge jumps across), scoring each branch
        interior by batched enumeration (:meth:`_dp_partition_dag`); the
        optimum value equals the brute-force minimum of
        :meth:`score_codes` over the full space, float for float.
        ``memoize`` applies there too: repeated cut segments (residual
        transformer blocks, ``gpt_r``) are replayed by translation under
        the same exactness certificate as the chain jump.  The per-layer
        breakdown of the winner is materialized lazily.
        """
        if not self.is_chain:
            return self._dp_partition_dag(memoize=memoize)
        num_layers = self.num_layers
        parents = np.empty((num_layers - 1, self.num_strategies), dtype=np.int8)
        frontiers = np.empty((num_layers, self.num_strategies), dtype=np.float64)
        frontiers[0] = self.intra[0]  # layer 0 pays only its intra term
        com, _ = _chain_dp_run(
            self.intra,
            self.inter,
            1,
            parents,
            frontiers,
            backend=kernels.resolve_backend(self.backend),
            memoize=memoize,
        )

        last = int(np.argmin(com))  # tie -> lowest code, the reference rule
        total = float(com[last])
        # Backtrack over plain Python lists: scalar ndarray indexing costs
        # ~4x more per step, and at transformer depth the backtrack would
        # otherwise dominate the memoized solve.  The codes are exact
        # integers either way.
        parent_rows = parents.tolist()
        codes_per_layer = [0] * num_layers
        code = codes_per_layer[-1] = last
        for layer in range(num_layers - 2, -1, -1):
            code = codes_per_layer[layer] = parent_rows[layer][code]

        members = self.strategies.members
        assignment = LayerAssignment(
            tuple(members[code] for code in codes_per_layer)
        )
        return self.lazy_result(assignment, total)

    def cut_vertices(self) -> list[int]:
        """Layers no edge jumps across (every source-to-sink path visits them).

        A layer ``v`` is a cut vertex when no edge ``(a, b)`` satisfies
        ``a < v < b``.  The first and last layers always qualify; on a
        chain every layer does.  Consecutive cut vertices delimit the
        *branch interiors* the DAG dynamic program enumerates.
        """
        interior = [False] * self.num_layers
        for source, destination in self.edges:
            for vertex in range(source + 1, destination):
                interior[vertex] = True
        return [vertex for vertex in range(self.num_layers) if not interior[vertex]]

    def _dp_partition_dag(self, *, memoize: bool = True) -> PartitionResult:
        """Cut-vertex dynamic program with batched branch-interior enumeration.

        The layer order is a topological linearization, so between two
        consecutive cut vertices ``u < v`` every edge stays inside the
        block ``[u, v]``.  The program keeps ``com[c]`` -- the minimal
        accumulated cost of the prefix through the current cut vertex
        under code ``c``, built with the exact left-to-right per-layer
        association of :meth:`score_codes` -- and advances one block at a
        time (:meth:`_advance_dag_block`) by enumerating all
        ``K**(I + 2)`` code patterns of the block (``I`` interior layers
        plus both endpoints) in batched,
        :data:`DEFAULT_CHUNK_SIZE`-chunked operations (peak memory stays
        a few MB regardless of the block size).  IEEE addition is
        monotone, so the per-state minima compose exactly and the final
        optimum equals the brute-force minimum of :meth:`score_codes`,
        float for float; ties resolve to the lowest pattern digits
        (dp-first per layer).

        With ``memoize`` on, repeated cut segments -- the residual
        transformer stacks of ``gpt_r``, where every block's costs and
        local edge shape recur with a small period -- are detected up
        front (:meth:`_detect_periodic_blocks`) and, once the block map
        provably reaches its steady state (uniform ``com`` growth per
        period, identical block argmins, and the dyadic exactness
        certificate of :func:`_exactness_shift`), the remaining periods
        are replayed by translation instead of enumeration: ``com``
        advances by ``count * step`` and the stepped period's argmin
        arrays are reused verbatim.  This is the cut-vertex analogue of
        the chain-DP jump in :func:`_chain_dp_run`, byte-identical to
        cold stepping for the same reasons; ``memoize=False`` forces the
        full enumeration for oracle runs.
        """
        num_strategies = self.num_strategies
        cuts = self.cut_vertices()
        blocks = list(zip(cuts, cuts[1:]))
        com = self.intra[0].copy()  # layer 0 has no incoming edges
        block_plans: list[tuple[int, int, int, np.ndarray]] = []
        detected = None
        if memoize and len(blocks) >= _MEMOIZE_MIN_BLOCKS:
            detected = self._detect_periodic_blocks(blocks)
        # com entering block ``b`` (filled as stepping reaches ``b``);
        # the jump certificate compares boundaries one period apart.
        boundary_coms: list[np.ndarray | None] = [None] * (len(blocks) + 1)
        index = 0
        while index < len(blocks):
            boundary_coms[index] = com
            if detected is not None:
                period, first, stop = detected
                aligned = index >= first + 2 * period and (index - first) % period == 0
                remaining = (stop - index) // period if aligned else 0
                if remaining >= 1:
                    jumped_com = self._try_periodic_block_jump(
                        blocks,
                        block_plans,
                        boundary_coms,
                        index,
                        period,
                        remaining,
                    )
                    if jumped_com is not None:
                        com = jumped_com
                        index += remaining * period
                        # One region per table; later blocks step normally.
                        detected = None
                        continue
            block_start, block_end = blocks[index]
            best, best_rest = self._advance_dag_block(com, block_start, block_end)
            com = best
            block_plans.append(
                (block_start, block_end, block_end - block_start - 1, best_rest)
            )
            index += 1

        last = int(np.argmin(com))  # tie -> lowest code
        total = float(com[last])
        codes_per_layer = np.zeros(self.num_layers, dtype=np.int64)
        codes_per_layer[cuts[-1]] = last
        for block_start, block_end, interior_count, argmin_rest in reversed(block_plans):
            rest = int(argmin_rest[codes_per_layer[block_end]])
            codes_per_layer[block_start] = rest % num_strategies
            rest //= num_strategies
            for offset in range(interior_count):
                codes_per_layer[block_start + 1 + offset] = rest % num_strategies
                rest //= num_strategies

        members = self.strategies.members
        assignment = LayerAssignment(
            tuple(members[int(code)] for code in codes_per_layer)
        )
        return self.lazy_result(assignment, total)

    def _block_local_edges(
        self, block_start: int, block_end: int
    ) -> list[tuple[int, int, int]]:
        """``(edge_index, local_source, local_destination)`` of one cut segment.

        Local coordinates are relative to ``block_start``; an edge belongs
        to the block that contains its destination (the entering cut
        vertex's own incoming edges were settled by the previous block).
        """
        edges = self.edges
        return [
            (
                edge_index,
                edges[edge_index][0] - block_start,
                edges[edge_index][1] - block_start,
            )
            for edge_index in self._edges_into(block_start, block_end)
        ]

    def _detect_periodic_blocks(
        self, blocks: list[tuple[int, int]]
    ) -> tuple[int, int, int] | None:
        """Smallest ``(period, first, stop)`` with blocks ``first:stop`` periodic.

        Block ``b`` matches block ``b + period`` when the two cut
        segments have the same local shape (layer span and local edge
        endpoints) and numerically equal cost entries: the intra rows
        past the entering cut vertex and, pairing the blocks' local edge
        lists positionally, each edge's inter table.  Equal costs make
        the block maps identical functions of ``com``, the precondition
        for the steady-state jump.  As in :func:`_detect_periodic_region`
        the longest run wins and at least four full periods are required;
        returns ``None`` otherwise.

        Each block is reduced once to a signature -- its shape plus its
        cost entries as Python floats, which compare by value exactly like
        ``np.array_equal`` (``0.0 == -0.0``; a NaN never matches) -- and
        equal signatures share one integer id, so every period probe is a
        single vectorized id comparison.
        """
        num_blocks = len(blocks)
        signature_ids: dict[tuple, int] = {}
        ids = np.empty(num_blocks, dtype=np.int64)
        for position, (block_start, block_end) in enumerate(blocks):
            local_edges = self._block_local_edges(block_start, block_end)
            signature = (
                block_end - block_start,
                tuple((source, destination) for _, source, destination in local_edges),
                tuple(self.intra[block_start + 1 : block_end + 1].ravel().tolist()),
                tuple(
                    self.inter[[edge_index for edge_index, _, _ in local_edges]]
                    .ravel()
                    .tolist()
                ),
            )
            ids[position] = signature_ids.setdefault(signature, len(signature_ids))

        for period in range(1, min(_MAX_BLOCK_PERIOD, num_blocks // 4) + 1):
            region = _periodic_run(ids[period:] == ids[:-period], period)
            if region is not None:
                return region
        return None

    def _try_periodic_block_jump(
        self,
        blocks: list[tuple[int, int]],
        block_plans: list[tuple[int, int, int, np.ndarray]],
        boundary_coms: list[np.ndarray | None],
        index: int,
        period: int,
        count: int,
    ) -> np.ndarray | None:
        """Replay ``count`` converged periods of cut segments by translation.

        ``index`` is the next block to process, with at least two full
        periods stepped immediately before it.  Mirrors
        :func:`_try_periodic_jump` at block granularity:

        * the entering ``com`` advanced by a *uniform* increment ``step``
          over the last period, and the last two periods produced
          identical per-block argmin (``best_rest``) arrays -- the block
          map has reached its max-plus steady state;
        * the exactness certificate of :func:`_exactness_shift` holds for
          every participating value (boundary ``com``, ``step``, and one
          period's intra rows and inter tables), so the float adds the
          skipped enumeration *would* perform are exact and equal
          ``previous period + step`` bit for bit, including every
          strict-``<`` tie.

        On success appends the replayed block plans (reusing the stepped
        period's ``best_rest`` arrays) and returns the translated ``com``;
        returns ``None`` (caller keeps stepping) when any check fails.
        """
        com = boundary_coms[index]
        previous = boundary_coms[index - period]
        delta = com - previous
        if not np.all(delta == delta[0]):
            return None
        for offset in range(period):
            if not np.array_equal(
                block_plans[index - period + offset][3],
                block_plans[index - 2 * period + offset][3],
            ):
                return None
        step = float(delta[0])
        period_start = blocks[index - period][0]
        period_end = blocks[index - 1][1]
        intra_period = self.intra[period_start + 1 : period_end + 1]
        edge_indices = self._edges_into(period_start, period_end)
        inter_period = self.inter[edge_indices]
        block_max = max(
            float(np.abs(intra_period).max()),
            float(np.abs(inter_period).max()) if edge_indices else 0.0,
            1.0,
        )
        period_terms = (period_end - period_start) + len(edge_indices)
        magnitude = float(np.abs(com).max()) + (count + 2) * (
            abs(step) + block_max * (period_terms + 2)
        )
        shift = _exactness_shift(
            [com, np.array([step]), intra_period, inter_period], magnitude
        )
        if shift is None:
            return None
        for jumped in range(count * period):
            source_plan = block_plans[index - period + (jumped % period)]
            block_start, block_end = blocks[index + jumped]
            block_plans.append(
                (block_start, block_end, block_end - block_start - 1, source_plan[3])
            )
        DAG_JUMP_STATS["jumps"] += 1
        DAG_JUMP_STATS["jumped_blocks"] += count * period
        DAG_JUMP_STATS["jumped_layers"] += (
            blocks[index + count * period - 1][1] - blocks[index][0]
        )
        return com + float(count) * step

    def _advance_dag_block(
        self, com: np.ndarray, block_start: int, block_end: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Advance the cut-vertex DP across one block ``[block_start, block_end]``.

        ``com`` is the accumulated prefix cost through the entering cut
        vertex; returns ``(best, best_rest)`` -- the new frontier indexed
        by the closing cut vertex's code, and each frontier entry's
        winning low-digit pattern.  On a compiled backend the per-chunk
        candidate totals come from the numba block scorer
        (:func:`repro.core.kernels.dag_block_totals_compiled`, bit-exact
        with the NumPy body); chunking, dominance pruning and the
        strict-``<`` end-code scan stay in shared NumPy code, so every
        backend walks the identical sequence of comparisons.
        """
        num_strategies = self.num_strategies
        interior_count = block_end - block_start - 1
        num_patterns = num_strategies ** (interior_count + 2)
        if num_patterns > DEFAULT_MAX_BLOCK_PATTERNS:
            raise ValueError(
                f"branch interior between layers {block_start} and "
                f"{block_end} spans {interior_count + 2} layers; "
                f"{num_strategies}**{interior_count + 2} patterns exceed "
                f"the enumeration limit of {DEFAULT_MAX_BLOCK_PATTERNS}"
            )
        block_layers = interior_count + 2
        block_edges = self._block_local_edges(block_start, block_end)
        use_kernel = kernels.compiled_active(self.backend)
        if use_kernel:
            # Group the block's edges by local destination (stably) for
            # the kernel's single-pass walk; arrays are materialized once
            # per block, not per chunk.
            order = sorted(range(len(block_edges)), key=lambda e: block_edges[e][2])
            kernel_edge_index = np.array(
                [block_edges[e][0] for e in order], dtype=np.int64
            )
            kernel_edge_source = np.array(
                [block_edges[e][1] for e in order], dtype=np.int64
            )
            kernel_edge_destination = np.array(
                [block_edges[e][2] for e in order], dtype=np.int64
            )
            kernel_intra = np.ascontiguousarray(self.intra)
            kernel_inter = np.ascontiguousarray(self.inter)
            kernel_com = np.ascontiguousarray(com)
            parallel = kernels.parallel_active(self.backend)
        # The block-end code is the most significant digit; patterns
        # split as ``rest + group_size * end_code``.
        group_size = num_patterns // num_strategies
        best = np.full(num_strategies, np.inf)
        best_rest = np.zeros(num_strategies, dtype=np.int64)
        # Digit-aligned chunking (largest K**free <= DEFAULT_CHUNK_SIZE)
        # keeps every chunk's high digits constant, enabling dominance
        # pruning.  Chunk boundaries never affect the result: the
        # strict-< running minima scan codes in ascending order, so
        # any partition of that order yields the identical winner.
        free_digits = 0
        chunk_span = 1
        while (
            free_digits < block_layers
            and chunk_span * num_strategies <= DEFAULT_CHUNK_SIZE
        ):
            chunk_span *= num_strategies
            free_digits += 1
        # Lower-bound scaffolding over the free (low) digits: the
        # cheapest prefix state, each free layer's cheapest intra
        # entry, each free-internal edge's cheapest inter entry
        # (costs are nonnegative byte counts, so per-term minima
        # bound any completion from below).
        free_floor = float(com.min())
        for local in range(1, free_digits):
            free_floor += float(self.intra[block_start + local].min())
        fixed_edges = []
        cross_into_fixed = []
        cross_into_free = []
        for edge_index, local_source, local_destination in block_edges:
            if local_source < free_digits and local_destination < free_digits:
                free_floor += float(self.inter[edge_index].min())
            elif local_source >= free_digits:
                fixed_edges.append((edge_index, local_source, local_destination))
            elif local_destination >= free_digits:
                cross_into_fixed.append((edge_index, local_destination))
            else:  # pragma: no cover - edges run forward (source < dest)
                cross_into_free.append((edge_index, local_source))
        for start in range(0, num_patterns, chunk_span):
            if free_digits < block_layers:
                fixed = _decode_digits(
                    np.array([start // chunk_span], dtype=np.int64),
                    block_layers - free_digits,
                    num_strategies,
                )[0]
                bound = free_floor
                for local in range(free_digits, block_layers):
                    bound += float(
                        self.intra[block_start + local, fixed[local - free_digits]]
                    )
                for edge_index, local_source, local_destination in fixed_edges:
                    bound += float(
                        self.inter[
                            edge_index,
                            fixed[local_source - free_digits],
                            fixed[local_destination - free_digits],
                        ]
                    )
                for edge_index, local_destination in cross_into_fixed:
                    bound += float(
                        self.inter[
                            edge_index, :, fixed[local_destination - free_digits]
                        ].min()
                    )
                for edge_index, local_source in cross_into_free:  # pragma: no cover
                    bound += float(
                        self.inter[
                            edge_index, fixed[local_source - free_digits], :
                        ].min()
                    )
                incumbent = float(best.max())
                # Strictly-worse chunks cannot improve (or first-tie)
                # any end code's running minimum; the margin absorbs
                # the bound's different float association, keeping
                # the scan's output byte-identical to the unpruned
                # enumeration.
                if bound * (1.0 - _PRUNE_MARGIN) > incumbent:
                    continue
            codes = np.arange(
                start, min(start + chunk_span, num_patterns), dtype=np.int64
            )
            if use_kernel:
                totals = np.empty(codes.shape[0], dtype=np.float64)
                kernels.dag_block_totals_compiled(
                    kernel_com,
                    kernel_intra,
                    kernel_inter,
                    kernel_edge_index,
                    kernel_edge_source,
                    kernel_edge_destination,
                    block_start,
                    block_layers,
                    num_strategies,
                    start,
                    totals,
                    parallel=parallel,
                )
            else:
                decoded = _decode_digits(codes, block_layers, num_strategies)
                # Column 0 carries the accumulated prefix cost (the cut
                # vertex's own term is already inside ``com``); later
                # columns carry ``intra + (sequential sum of incoming-edge
                # inters)`` exactly like the batched scorer.
                per_layer = np.empty((codes.shape[0], block_layers), dtype=np.float64)
                per_layer[:, 0] = com[decoded[:, 0]]
                for local in range(1, block_layers):
                    per_layer[:, local] = self.intra[block_start + local][
                        decoded[:, local]
                    ]
                inter_acc = np.zeros_like(per_layer)
                for edge_index, local_source, local_destination in block_edges:
                    inter_acc[:, local_destination] += self.inter[
                        edge_index,
                        decoded[:, local_source],
                        decoded[:, local_destination],
                    ]
                per_layer[:, 1:] += inter_acc[:, 1:]
                totals = _sequential_row_sum(per_layer)
            end_codes = codes // group_size
            # Strict ``<`` against the running minima keeps the first
            # (lowest-pattern) winner across ascending chunks, matching
            # the unchunked group-argmin tie rule.
            for end_code in np.unique(end_codes):
                mask = end_codes == end_code
                subset = totals[mask]
                index = int(np.argmin(subset))
                if subset[index] < best[end_code]:
                    best[end_code] = subset[index]
                    best_rest[end_code] = codes[mask][index] % group_size
        return best, best_rest

    # ------------------------------------------------------------------
    # Batched scoring of candidate digit-patterns.
    # ------------------------------------------------------------------

    def score_codes(
        self, codes: np.ndarray | Sequence[int], chunk_size: int | None = None
    ) -> np.ndarray:
        """Total communication bytes for a batch of packed digit-patterns.

        ``codes`` encodes one candidate per element with the
        :meth:`~repro.core.parallelism.LayerAssignment.from_codes`
        convention (least-significant digit = layer 0, digit value =
        strategy code).  Returns a float array of the same length whose
        entries are bit-exact with ``CommunicationModel.total_bytes`` on
        the decoded assignments.

        ``chunk_size`` bounds the peak memory of the gathered ``(chunk,
        L)`` cost matrices (``None`` = :data:`DEFAULT_CHUNK_SIZE`); each
        candidate is scored independently, so every chunk size returns
        byte-identical totals.
        """
        if self.num_assignments > _MAX_PACKED_SPACE:
            # base ** layer powers would overflow int64 and decode garbage
            # digits; deep models must score decoded assignments instead.
            raise ValueError(
                f"a {self.num_strategies}**{self.num_layers} space overflows "
                "the 64-bit packed encoding; score assignments via "
                "total_bytes() instead"
            )
        step = _resolve_chunk_size(chunk_size)
        codes = np.asarray(codes, dtype=np.int64)
        if codes.ndim != 1:
            raise ValueError(f"codes must be one-dimensional, got shape {codes.shape}")
        totals = np.empty(codes.shape[0], dtype=np.float64)
        for start in range(0, codes.shape[0], step):
            chunk = codes[start : start + step]
            totals[start : start + chunk.shape[0]] = self._score_chunk(chunk)
        return totals

    def _score_chunk(self, codes: np.ndarray) -> np.ndarray:
        return self._score_decoded(
            _decode_digits(codes, self.num_layers, self.num_strategies)
        )

    def _score_decoded(self, decoded: np.ndarray) -> np.ndarray:
        """Score candidates given an ``(N, L)`` strategy-code matrix.

        Depth-safe core scorer: unlike the packed-integer entry points it
        has no 64-bit encoding limit, so single assignments of arbitrarily
        deep models route through it.  On the compiled backends both chain
        and DAG tables dispatch to the numba scorer kernels (bit-exact;
        see :mod:`repro.core.kernels`), with ``"compiled-parallel"``
        selecting the ``prange`` variants.
        """
        num_layers = self.num_layers
        if kernels.compiled_active(self.backend):
            totals = np.empty(decoded.shape[0], dtype=np.float64)
            parallel = kernels.parallel_active(self.backend)
            decoded_codes = np.ascontiguousarray(decoded, dtype=np.int64)
            if self.is_chain:
                kernels.score_decoded_chain_compiled(
                    np.ascontiguousarray(self.intra),
                    np.ascontiguousarray(self.inter),
                    decoded_codes,
                    totals,
                    parallel=parallel,
                )
            else:
                edge_index, edge_source, edge_destination = self._kernel_edges
                kernels.score_decoded_dag_compiled(
                    np.ascontiguousarray(self.intra),
                    np.ascontiguousarray(self.inter),
                    edge_index,
                    edge_source,
                    edge_destination,
                    decoded_codes,
                    totals,
                    parallel=parallel,
                )
            return totals
        per_layer = self.intra[np.arange(num_layers), decoded]  # (N, L)
        if self.is_chain:
            if num_layers > 1:
                boundary = np.arange(num_layers - 1)
                # One add per layer term keeps the ``intra + inter``
                # association of LayerCommunication.total_bytes.
                per_layer[:, 1:] += self.inter[boundary, decoded[:, :-1], decoded[:, 1:]]
        else:
            # A merge layer has several incoming edges, so its inter terms
            # are accumulated (in canonical edge order) into a separate
            # buffer first and added to the intra term once -- the
            # ``intra + (e1 + e2 + ...)`` association of the object path.
            inter_acc = np.zeros_like(per_layer)
            for edge_index, (source, destination) in enumerate(self.edges):
                inter_acc[:, destination] += self.inter[
                    edge_index, decoded[:, source], decoded[:, destination]
                ]
            per_layer += inter_acc
        return _sequential_row_sum(per_layer)

    def iter_all_codes(self, chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[np.ndarray]:
        """Chunked enumeration of the full ``K**L`` digit-pattern space."""
        if self.num_assignments > _MAX_PACKED_SPACE:
            raise ValueError(
                f"cannot enumerate a {self.num_strategies}**{self.num_layers} "
                "space with 64-bit packed encodings"
            )
        for start in range(0, self.num_assignments, chunk_size):
            stop = min(start + chunk_size, self.num_assignments)
            yield np.arange(start, stop, dtype=np.int64)

    def argmin_assignment(
        self,
        *,
        chunk_size: int | None = None,
        prune: bool = False,
        upper_bound: float | None = None,
    ) -> tuple[int, float]:
        """Brute-force optimum over all ``K**L`` assignments.

        Returns ``(codes, total_bytes)`` of the first minimum in
        enumeration order (lowest digit-pattern wins ties), matching the
        reference strict-``<`` scan of the object-based brute force.

        With ``prune`` on, the scan becomes a branch-and-bound: chunks are
        aligned to digit boundaries, a per-chunk lower bound (exact fixed
        high-digit cost plus per-term minima over the free digits; every
        cost is a nonnegative byte count) is compared against the running
        incumbent -- seeded from ``upper_bound`` when given, e.g. by a
        preceding :meth:`dp_partition` -- and strictly-dominated chunks
        are skipped without scoring.  The margined strict comparison
        (:data:`_PRUNE_MARGIN`) guarantees no chunk containing a first
        minimum is ever discarded, so the returned pair is byte-identical
        to the unpruned scan.  ``chunk_size`` bounds peak memory either
        way.
        """
        step = _resolve_chunk_size(chunk_size)
        if prune:
            return self._argmin_pruned(step, upper_bound)
        best_codes = -1
        best_total = np.inf
        for chunk in self.iter_all_codes(step):
            totals = self._score_chunk(chunk)
            index = int(np.argmin(totals))
            if totals[index] < best_total:
                best_total = float(totals[index])
                best_codes = int(chunk[index])
        return best_codes, best_total

    def _argmin_pruned(
        self, chunk_size: int, upper_bound: float | None
    ) -> tuple[int, float]:
        """Branch-and-bound enumeration behind :meth:`argmin_assignment`."""
        if self.num_assignments > _MAX_PACKED_SPACE:
            raise ValueError(
                f"cannot enumerate a {self.num_strategies}**{self.num_layers} "
                "space with 64-bit packed encodings"
            )
        num_layers = self.num_layers
        base = self.num_strategies
        # Digit-aligned chunks: the largest base**free <= chunk_size low
        # digits enumerate inside a chunk, the remaining high digits are
        # fixed per chunk and priced exactly in the bound.
        free_digits = 0
        span = 1
        while free_digits < num_layers and span * base <= chunk_size:
            span *= base
            free_digits += 1
        incumbent = np.inf if upper_bound is None else float(upper_bound)
        best_codes = -1
        best_total = np.inf
        if free_digits == num_layers:
            # One chunk covers the space; nothing to prune against.
            return self.argmin_assignment(chunk_size=chunk_size)
        free_floor = 0.0
        for layer in range(free_digits):
            free_floor += float(self.intra[layer].min())
        fixed_edges = []
        cross_edges = []
        for edge_index, (source, destination) in enumerate(self.edges):
            if destination < free_digits:
                free_floor += float(self.inter[edge_index].min())
            elif source >= free_digits:
                fixed_edges.append((edge_index, source, destination))
            else:
                cross_edges.append((edge_index, destination))
        fixed_layers = np.arange(free_digits, num_layers)
        for start in range(0, self.num_assignments, span):
            fixed = _decode_digits(
                np.array([start // span], dtype=np.int64),
                num_layers - free_digits,
                base,
            )[0]
            bound = free_floor + float(
                self.intra[fixed_layers, fixed].sum()
            )
            for edge_index, source, destination in fixed_edges:
                bound += float(
                    self.inter[
                        edge_index,
                        fixed[source - free_digits],
                        fixed[destination - free_digits],
                    ]
                )
            for edge_index, destination in cross_edges:
                bound += float(
                    self.inter[edge_index, :, fixed[destination - free_digits]].min()
                )
            # Strict, margined dominance: skipped chunks hold only totals
            # strictly above the incumbent, so neither the minimum value
            # nor the first-minimum tie winner can live there.
            if bound * (1.0 - _PRUNE_MARGIN) > min(incumbent, best_total):
                continue
            chunk = np.arange(
                start, min(start + span, self.num_assignments), dtype=np.int64
            )
            totals = self._score_chunk(chunk)
            index = int(np.argmin(totals))
            if totals[index] < best_total:
                best_total = float(totals[index])
                best_codes = int(chunk[index])
        return best_codes, best_total

    # ------------------------------------------------------------------
    # Lazy materialization of winners.
    # ------------------------------------------------------------------

    def total_bytes(self, assignment: LayerAssignment) -> float:
        """Total traffic of one assignment (fast path, no breakdown objects).

        Decodes the assignment directly instead of round-tripping through a
        packed integer, so models with 64+ weighted layers work too.
        """
        self._check_assignment(assignment)
        code_of = self.strategies.code_of
        decoded = np.array([[code_of(choice) for choice in assignment]], dtype=np.int64)
        return float(self._score_decoded(decoded)[0])

    def lazy_result(
        self, assignment: LayerAssignment, total_bytes: float
    ) -> PartitionResult:
        """A :class:`PartitionResult` whose breakdown materializes on access."""
        tensors = self.tensors
        model = self.communication_model
        edges = self.edges
        return PartitionResult(
            assignment=assignment,
            communication_bytes=total_bytes,
            breakdown_factory=lambda: tuple(
                model.layer_breakdown(tensors, assignment, edges)
            ),
        )

    def result_for_codes(self, codes: int) -> PartitionResult:
        """Materialize the :class:`PartitionResult` of one digit-pattern."""
        assignment = LayerAssignment.from_codes(
            codes, self.num_layers, self.strategies
        )
        total = float(self.score_codes(np.array([codes], dtype=np.int64))[0])
        return self.lazy_result(assignment, total)

    def _check_assignment(self, assignment: LayerAssignment) -> None:
        if assignment.num_layers != self.num_layers:
            raise ValueError(
                f"assignment covers {assignment.num_layers} layers, "
                f"table has {self.num_layers}"
            )


class WarmStartDP:
    """Incremental :meth:`CostTable.dp_partition` across consecutive solves.

    Elastic re-planning under node churn keeps solving near-identical
    tables: when the array shrinks or regrows, the level tables of the
    surviving hierarchy share a leading run of layers (often all of them)
    with the previous solve.  This solver caches the chain DP's per-layer
    frontier -- the ``com`` vector after each layer -- together with the
    parent pointers and the previous table's cost columns.  A new table is
    compared column by column against the cache and the recurrence resumes
    after the longest unchanged prefix instead of from layer 0.

    Bit-exactness invariant: the resumed recurrence performs the *same
    floating-point additions in the same order* with the same
    lowest-code-wins ``argmin`` tie rule as the cold solve, so the result
    is identical float for float (property-pinned over the whole model
    zoo by ``tests/resilience/test_warmstart.py``).  Layer ``l``'s
    frontier depends only on ``intra[0..l]`` and ``inter[0..l-1]``, which
    is what makes prefix reuse sound.  Non-chain (DAG) tables take the
    cold :meth:`CostTable._dp_partition_dag` path unchanged and leave the
    cached chain state untouched.
    """

    def __init__(self) -> None:
        self._intra: "np.ndarray | None" = None
        self._inter: "np.ndarray | None" = None
        self._frontiers: "np.ndarray | None" = None
        self._parents: "np.ndarray | None" = None
        self._result: "PartitionResult | None" = None
        #: Solve statistics (deterministic given the solve sequence).
        self.full_hits = 0
        self.reused_layers = 0
        self.solved_layers = 0
        self.cold_solves = 0
        #: Layers filled by block-repetition jumps instead of stepping
        #: (a subset of ``solved_layers``; purely informational, so the
        #: :meth:`stats` dict -- pinned by replan goldens -- is unchanged).
        self.memoized_layers = 0

    def _matching_prefix(self, table: CostTable) -> int:
        """Longest leading layer run whose DP state the cache can replay."""
        cached_intra, cached_inter = self._intra, self._inter
        if cached_intra is None:
            return 0
        if cached_intra.shape[1] != table.num_strategies:
            return 0
        limit = min(table.num_layers, cached_intra.shape[0])
        if table.intra is cached_intra and table.inter is cached_inter:
            return limit  # identical arrays: skip the column comparison
        prefix = 0
        while prefix < limit:
            if not np.array_equal(table.intra[prefix], cached_intra[prefix]):
                break
            if prefix > 0 and not np.array_equal(
                table.inter[prefix - 1], cached_inter[prefix - 1]
            ):
                break
            prefix += 1
        return prefix

    def solve(self, table: CostTable, *, memoize: bool = True) -> PartitionResult:
        """The ``table.dp_partition()`` optimum, warm-started when possible.

        The resumed recurrence runs through the shared
        :func:`_chain_dp_run` driver, so it inherits the table's backend
        and the block-repetition memoization (``memoize=False`` forces
        cold stepping for oracle comparisons); both are bit-exact with the
        historical layer loop.
        """
        if not table.is_chain:
            self.cold_solves += 1
            return table.dp_partition()
        num_layers = table.num_layers
        num_strategies = table.num_strategies
        prefix = self._matching_prefix(table)
        if (
            prefix == num_layers
            and self._result is not None
            and self._frontiers is not None
            and self._frontiers.shape[0] == num_layers
        ):
            self.full_hits += 1
            return self._result
        self.reused_layers += prefix
        self.solved_layers += num_layers - prefix

        parents = np.empty((num_layers - 1, num_strategies), dtype=np.int8)
        frontiers = np.empty((num_layers, num_strategies), dtype=np.float64)
        if prefix == 0:
            frontiers[0] = table.intra[0]
            start = 1
        else:
            frontiers[:prefix] = self._frontiers[:prefix]
            parents[: prefix - 1] = self._parents[: prefix - 1]
            start = prefix
        com, jumped = _chain_dp_run(
            table.intra,
            table.inter,
            start,
            parents,
            frontiers,
            backend=kernels.resolve_backend(table.backend),
            memoize=memoize,
        )
        self.memoized_layers += jumped

        last = int(np.argmin(com))
        total = float(com[last])
        parent_rows = parents.tolist()
        codes_per_layer = [0] * num_layers
        code = codes_per_layer[-1] = last
        for layer in range(num_layers - 2, -1, -1):
            code = codes_per_layer[layer] = parent_rows[layer][code]
        members = table.strategies.members
        assignment = LayerAssignment(
            tuple(members[code] for code in codes_per_layer)
        )
        result = table.lazy_result(assignment, total)

        self._intra = table.intra
        self._inter = table.inter
        self._frontiers = frontiers
        self._parents = parents
        self._result = result
        return result

    def stats(self) -> dict:
        """Deterministic reuse counters (for reports and tests)."""
        return {
            "full_hits": self.full_hits,
            "reused_layers": self.reused_layers,
            "solved_layers": self.solved_layers,
            "cold_solves": self.cold_solves,
        }


class HierarchicalCostTable:
    """Per-level cost tables indexed by each layer's scale-descent state.

    Under :attr:`ScalingMode.PARALLELISM_AWARE` a layer's tensor amounts at
    hierarchy level ``h`` are fully determined by how many of its choices
    at levels ``0 .. h-1`` halved the batch fraction (``b``, dp choices)
    and how many halved the weight fraction (``w``, mp choices) -- the
    scale is ``(0.5**b, 0.5**w)``.  Stage-local strategies (pp) halve
    neither, so

    * for spaces without a stage-local member ``b + w = h`` and level ``h``
      has ``h + 1`` states (indexed by ``w``, exactly the historical
      mp-count states);
    * for spaces with one, every pair ``b + w <= h`` is reachable and
      level ``h`` has ``(h + 1)(h + 2) / 2`` states.

    ``UNIFORM`` and ``NONE`` scaling are choice-independent and collapse
    to a single state per level.

    The table therefore caches *every* scale-descent outcome a sweep can
    reach: batched candidate scoring, `HierarchicalPartitioner` evaluation
    and the training simulator's per-level tensor derivation all gather from
    the same compiled arrays instead of rebuilding ``LayerTensors`` lists.
    """

    def __init__(
        self,
        model: DNNModel,
        batch_size: int,
        num_levels: int,
        scaling_mode: ScalingMode | str = ScalingMode.PARALLELISM_AWARE,
        communication_model: CommunicationModel | None = None,
        strategies: StrategySpace | Sequence[Parallelism] | str | None = None,
        backend: str | None = None,
    ) -> None:
        if num_levels <= 0:
            raise ValueError(f"num_levels must be positive, got {num_levels}")
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.model = model
        self.batch_size = batch_size
        self.num_levels = num_levels
        self.num_layers = len(model)
        self.scaling_mode = ScalingMode.parse(scaling_mode)
        self.communication_model = communication_model or CommunicationModel()
        self.strategies = StrategySpace.parse(strategies)
        #: Kernel backend handed to every gathered per-level
        #: :class:`CostTable` (``None`` = follow the process default).
        self.backend = kernels.validate_backend(backend)
        kernels.warn_numba_fallback(backend)
        #: Canonical edge list of the model's layer DAG; the per-level
        #: ``inter`` arrays are indexed by it (chains keep the historical
        #: boundary indexing, edge ``e`` == boundary ``(e, e + 1)``).
        self.edges: tuple[tuple[int, int], ...] = model.edges
        self._is_chain = model.is_chain
        self._edge_source = np.array([s for s, _ in self.edges], dtype=np.int64)
        # Destination-grouped (stable) edge arrays for the compiled level
        # scorers, mirroring CostTable._kernel_edges.
        kernel_order = sorted(range(len(self.edges)), key=lambda e: self.edges[e][1])
        self._kernel_edge_index = np.array(kernel_order, dtype=np.int64)
        self._kernel_edge_source = np.array(
            [self.edges[e][0] for e in kernel_order], dtype=np.int64
        )
        self._kernel_edge_destination = np.array(
            [self.edges[e][1] for e in kernel_order], dtype=np.int64
        )
        #: Per destination layer: its incoming ``(edge_index, source)`` pairs
        #: in canonical (input) order, for per-edge gathers.
        self._incoming: list[list[tuple[int, int]]] = [
            [] for _ in range(self.num_layers)
        ]
        for edge_index, (source, destination) in enumerate(self.edges):
            self._incoming[destination].append((edge_index, source))
        comm = self.communication_model
        space = self.strategies

        #: Per strategy code: 1 when one descent under that choice halves
        #: the batch / weight fraction (dp / mp); stage-local codes are 0
        #: in both.
        self._batch_effect = np.array(
            [1 if strategy_spec(member).halves == BATCH else 0 for member in space],
            dtype=np.int64,
        )
        self._weight_effect = np.array(
            [1 if strategy_spec(member).halves == WEIGHT else 0 for member in space],
            dtype=np.int64,
        )
        # Strategies that halve neither fraction (stage-local pp) break the
        # ``b + w = level`` invariant, widening the state space.
        self._has_stage_local = any(
            strategy_spec(member).halves == NONE for member in space
        )
        # For the default (dp, mp) space the weight effect of code ``c`` is
        # ``c`` itself, so the batched state tracking can skip a gather.
        self._weight_effect_is_identity = bool(
            np.array_equal(self._weight_effect, np.arange(space.size, dtype=np.int64))
        )

        # Per level h: the reachable (batch-halvings, weight-halvings) state
        # list, an index LUT for vectorized gathers, the (L, S) tensor
        # columns, intra[h] (L, S, K) and the edge array (E, S, K, K).  The
        # forward/backward splits of the inter-layer costs are compiled
        # lazily on first :meth:`level_communication` access: only the
        # simulator reads them, and ``_to_bytes(fwd + bwd)`` versus
        # ``_to_bytes(fwd) + _to_bytes(bwd)`` may round differently, so they
        # cannot be derived from the combined array.
        self._states: list[list[tuple[int, int]]] = []
        self._state_lut: list[np.ndarray] = []
        self._columns: list[_TensorColumns] = []
        self._intra: list[np.ndarray] = []
        self._inter: list[np.ndarray] = []
        self._inter_forward: list[np.ndarray] | None = None
        self._inter_backward: list[np.ndarray] | None = None

        layer_amounts = _TensorColumns.layer_amounts(tuple(model))
        num_layers = self.num_layers
        num_strategies = space.size
        for level in range(num_levels):
            level_states = self._level_states(level)
            self._states.append(level_states)
            lut = np.zeros((level + 1, level + 1), dtype=np.int64)
            for index, (b, w) in enumerate(level_states):
                lut[b, w] = index
            self._state_lut.append(lut)
            scales = [self._state_scale(level, b, w) for b, w in level_states]
            columns = _TensorColumns.of_layers(
                layer_amounts,
                batch_size,
                np.array([scale.batch_fraction for scale in scales], dtype=np.float64),
                np.array([scale.weight_fraction for scale in scales], dtype=np.float64),
            )
            num_states = len(level_states)
            intra = np.empty((num_layers, num_states, num_strategies), dtype=np.float64)
            inter = np.zeros(
                (len(self.edges), num_states, num_strategies, num_strategies),
                dtype=np.float64,
            )
            _fill_cost_block(columns, space, comm, self.edges, intra=intra, inter=inter)
            self._columns.append(columns)
            self._intra.append(intra)
            self._inter.append(inter)

    def _ensure_direction_split(self) -> None:
        """Compile the forward/backward inter-layer splits on first use."""
        if self._inter_forward is not None:
            return
        num_strategies = self.strategies.size
        forward: list[np.ndarray] = []
        backward: list[np.ndarray] = []
        for columns in self._columns:
            shape = (len(self.edges), columns.num_states, num_strategies, num_strategies)
            inter_fwd = np.zeros(shape, dtype=np.float64)
            inter_bwd = np.zeros(shape, dtype=np.float64)
            _fill_cost_block(
                columns,
                self.strategies,
                self.communication_model,
                self.edges,
                inter_forward=inter_fwd,
                inter_backward=inter_bwd,
            )
            forward.append(inter_fwd)
            backward.append(inter_bwd)
        self._inter_forward = forward
        self._inter_backward = backward

    # ------------------------------------------------------------------
    # Scale-descent states.
    # ------------------------------------------------------------------

    def _level_states(self, level: int) -> list[tuple[int, int]]:
        """Reachable ``(batch_halvings, weight_halvings)`` pairs at ``level``.

        Without a stage-local strategy every choice halves something, so
        ``b + w = level`` and the list is ordered by ``w`` -- index ``w``
        is the historical "mp count" state, keeping dp/mp tables laid out
        exactly as before.  With a stage-local strategy all pairs with
        ``b + w <= level`` are reachable.
        """
        if self.scaling_mode is not ScalingMode.PARALLELISM_AWARE:
            return [(0, 0)]
        if not self._has_stage_local:
            return [(level - w, w) for w in range(level + 1)]
        return [
            (b, w)
            for b in range(level + 1)
            for w in range(level + 1 - b)
        ]

    def num_states(self, level: int) -> int:
        """Number of distinct per-layer scale states at ``level``."""
        return len(self._states[level])

    def state_index(self, level: int, batch_halvings: int, weight_halvings: int) -> int:
        """The state index of one ``(b, w)`` halving count pair at ``level``."""
        if self.scaling_mode is not ScalingMode.PARALLELISM_AWARE:
            return 0
        return int(self._state_lut[level][batch_halvings, weight_halvings])

    def _state_scale(self, level: int, batch_halvings: int, weight_halvings: int) -> TensorScale:
        """The :class:`TensorScale` of one halving state at ``level``.

        Halvings are powers of two, so ``0.5 ** k`` is bit-exact with the
        reference path's sequential ``descend`` multiplications.
        """
        if self.scaling_mode is ScalingMode.PARALLELISM_AWARE:
            return TensorScale(
                batch_fraction=0.5 ** batch_halvings,
                weight_fraction=0.5 ** weight_halvings,
            )
        if self.scaling_mode is ScalingMode.UNIFORM:
            return TensorScale(batch_fraction=0.5 ** level, weight_fraction=1.0)
        return TensorScale()

    def state_indices(self, assignment: HierarchicalAssignment) -> np.ndarray:
        """Per-(level, layer) state indices implied by ``assignment``."""
        self._check_assignment(assignment)
        states = np.zeros((self.num_levels, self.num_layers), dtype=np.int64)
        if self.scaling_mode is not ScalingMode.PARALLELISM_AWARE:
            return states
        batch_counts = np.zeros(self.num_layers, dtype=np.int64)
        weight_counts = np.zeros(self.num_layers, dtype=np.int64)
        for level in range(self.num_levels):
            states[level] = self._state_lut[level][batch_counts, weight_counts]
            for layer, choice in enumerate(assignment[level]):
                halves = strategy_spec(choice).halves
                if halves == BATCH:
                    batch_counts[layer] += 1
                elif halves == WEIGHT:
                    weight_counts[layer] += 1
        return states

    def tensors_for_level(
        self, level: int, states: Sequence[int]
    ) -> Sequence[LayerTensors]:
        """The per-layer tensor records of one level under given state indices.

        A lazy view: the records are built from the level's tensor columns
        on first read (a breakdown), not when a search gathers its table.
        """
        return _LevelRecords(self._columns[level], np.array(states, dtype=np.int64))

    def level_cost_table(self, level: int, states: Sequence[int]) -> CostTable:
        """The single-level :class:`CostTable` of one scale-descent outcome.

        ``states[l]`` is layer ``l``'s state index at ``level`` (see
        :meth:`state_index`; always 0 outside parallelism-aware scaling).
        Pure gather -- no tensor or communication re-derivation -- so
        per-level searches and evaluations inside a sweep are O(L) array
        slicing.
        """
        if not 0 <= level < self.num_levels:
            raise ValueError(f"level {level} out of range for {self.num_levels} levels")
        state_array = np.asarray(states, dtype=np.int64)
        if state_array.shape != (self.num_layers,):
            raise ValueError(
                f"expected {self.num_layers} states, got {state_array.shape}"
            )
        layer_range = np.arange(self.num_layers)
        intra = self._intra[level][layer_range, state_array, :]
        # An edge's boundary tensors are its *source* layer's, so the edge
        # axis gathers the source's scale state (``[:-1]`` historically).
        inter = self._inter[level][
            np.arange(len(self.edges)), state_array[self._edge_source], :, :
        ]
        return CostTable(
            intra=intra,
            inter=inter,
            tensors=self.tensors_for_level(level, state_array),
            communication_model=self.communication_model,
            strategies=self.strategies,
            edges=self.edges,
            backend=self.backend,
        )

    # ------------------------------------------------------------------
    # Batched candidate scoring.
    # ------------------------------------------------------------------

    @property
    def num_strategies(self) -> int:
        return self.strategies.size

    @property
    def total_digits(self) -> int:
        """Digits needed to encode one full hierarchical assignment."""
        return self.num_levels * self.num_layers

    @property
    def num_assignments(self) -> int:
        """Size of the full hierarchical space (``K**(H*L)``)."""
        return self.strategies.size ** self.total_digits

    def score_codes(
        self, codes: np.ndarray | Sequence[int], chunk_size: int | None = None
    ) -> np.ndarray:
        """Total communication bytes of a batch of hierarchical digit-patterns.

        Encoding: the deepest-varying ``num_layers`` digits (least
        significant) are the *last* level's assignment and each level's
        digits follow the ``LayerAssignment.from_codes`` convention --
        exactly the order ``itertools.product(all_layer_assignments(L),
        repeat=H)`` visits the space, so first-minimum ties match the
        reference enumeration.  Totals are bit-exact with
        ``HierarchicalPartitioner.evaluate(...).total_communication_bytes``.
        ``chunk_size`` bounds peak memory (``None`` =
        :data:`DEFAULT_CHUNK_SIZE`) without affecting a single byte of
        the output.
        """
        if self.num_assignments > _MAX_PACKED_SPACE:
            # The packed int64 encoding cannot address the space; deep
            # models route per-level code matrices through
            # :meth:`score_level_codes` instead.
            raise ValueError(
                f"a {self.num_strategies}**{self.total_digits} space overflows "
                "the 64-bit packed encoding; use score_level_codes with "
                "per-level code matrices instead"
            )
        step = _resolve_chunk_size(chunk_size)
        codes = np.asarray(codes, dtype=np.int64)
        if codes.ndim != 1:
            raise ValueError(f"codes must be one-dimensional, got shape {codes.shape}")
        totals = np.empty(codes.shape[0], dtype=np.float64)
        for start in range(0, codes.shape[0], step):
            chunk = codes[start : start + step]
            totals[start : start + chunk.shape[0]] = self._score_chunk(chunk)
        return totals

    def decode_level_codes(self, codes: np.ndarray) -> list[np.ndarray]:
        """Per-level strategy-code matrices ``(N, L)`` for a batch of candidates."""
        num_layers = self.num_layers
        base = self.num_strategies
        decoded = []
        if base == 2:
            shifts = np.arange(num_layers, dtype=np.int64)
            mask = (1 << num_layers) - 1
            for level in range(self.num_levels):
                level_codes = (codes >> (num_layers * (self.num_levels - 1 - level))) & mask
                decoded.append((level_codes[:, None] >> shifts) & 1)
            return decoded
        level_space = base ** num_layers
        for level in range(self.num_levels):
            level_codes = (
                codes // (level_space ** (self.num_levels - 1 - level))
            ) % level_space
            decoded.append(_decode_digits(level_codes, num_layers, base))
        return decoded

    def _score_chunk(self, codes: np.ndarray) -> np.ndarray:
        return self.score_level_codes(self.decode_level_codes(codes))

    def score_level_codes(self, decoded: Sequence[np.ndarray]) -> np.ndarray:
        """Score candidates given per-level ``(N, L)`` strategy-code matrices.

        This is the core batched scorer; it also serves candidate spaces
        whose *full* encoding would overflow 64 bits (deep models at many
        levels) as long as the batch itself is enumerable, e.g. the
        restricted sweeps of Figures 9/10.  On the compiled backends each
        level's gather-and-accumulate runs in a numba kernel
        (:func:`repro.core.kernels.hier_level_score_compiled`, bit-exact
        with the NumPy body; ``"compiled-parallel"`` scores candidates
        under ``prange``), while the cross-level scale-state tracking
        stays in shared NumPy code.
        """
        if len(decoded) != self.num_levels:
            raise ValueError(
                f"expected {self.num_levels} level code matrices, got {len(decoded)}"
            )
        num_layers = self.num_layers
        num_candidates = decoded[0].shape[0]
        layer_range = np.arange(num_layers)
        boundary_range = np.arange(max(num_layers - 1, 0))
        totals = np.zeros(num_candidates, dtype=np.float64)
        use_kernel = kernels.compiled_active(self.backend)
        parallel = kernels.parallel_active(self.backend)
        track_states = self.scaling_mode is ScalingMode.PARALLELISM_AWARE
        weight_counts = np.zeros((num_candidates, num_layers), dtype=np.int64)
        batch_counts = (
            np.zeros((num_candidates, num_layers), dtype=np.int64)
            if self._has_stage_local
            else None
        )
        for level in range(self.num_levels):
            level_codes = decoded[level]
            if not track_states:
                states = np.zeros((num_candidates, num_layers), dtype=np.int64)
            elif batch_counts is None:
                # Without stage-local strategies the state index is the
                # weight-halving (mp) count, as in the historical layout.
                states = weight_counts
            else:
                states = self._state_lut[level][batch_counts, weight_counts]
            if use_kernel:
                # The kernel folds gather, edge accumulation, sequential
                # row sum and the ``* (1 << level)`` pair scaling into one
                # pass, accumulating straight into ``totals``.
                kernels.hier_level_score_compiled(
                    self._intra[level],
                    self._inter[level],
                    np.ascontiguousarray(states, dtype=np.int64),
                    np.ascontiguousarray(level_codes, dtype=np.int64),
                    float(1 << level),
                    totals,
                    is_chain=self._is_chain,
                    edge_index=self._kernel_edge_index,
                    edge_source=self._kernel_edge_source,
                    edge_destination=self._kernel_edge_destination,
                    parallel=parallel,
                )
            else:
                per_layer = self._intra[level][layer_range, states, level_codes]
                if self._is_chain:
                    if num_layers > 1:
                        per_layer[:, 1:] += self._inter[level][
                            boundary_range,
                            states[:, :-1],
                            level_codes[:, :-1],
                            level_codes[:, 1:],
                        ]
                else:
                    # Merge layers accumulate their incoming-edge terms (in
                    # canonical edge order) before the single add onto the intra
                    # term, matching the object path's association.
                    inter_acc = np.zeros_like(per_layer)
                    for edge_index, (source, destination) in enumerate(self.edges):
                        inter_acc[:, destination] += self._inter[level][
                            edge_index,
                            states[:, source],
                            level_codes[:, source],
                            level_codes[:, destination],
                        ]
                    # ``per_layer`` is a fresh advanced-indexing copy, so the
                    # in-place add is safe (and allocation-free, like the
                    # single-level scorer's).
                    per_layer += inter_acc
                level_totals = _sequential_row_sum(per_layer)
                # ``level.total_bytes`` multiplies by the (power-of-two) pair
                # count before the exact sequential accumulation over levels.
                totals += level_totals * float(1 << level)
            if track_states:
                weight_counts = weight_counts + (
                    level_codes
                    if self._weight_effect_is_identity
                    else self._weight_effect[level_codes]
                )
                if batch_counts is not None:
                    batch_counts = batch_counts + self._batch_effect[level_codes]
        return totals

    def argmin_assignment(self, *, chunk_size: int | None = None) -> tuple[int, float]:
        """First minimum over the full ``K**(H*L)`` space, in product order."""
        space = self.num_assignments
        if space > _MAX_PACKED_SPACE:
            raise ValueError(
                f"cannot enumerate a {self.num_strategies}**{self.total_digits} "
                "space with 64-bit packed encodings"
            )
        step = _resolve_chunk_size(chunk_size)
        best_codes = -1
        best_total = np.inf
        for start in range(0, space, step):
            chunk = np.arange(start, min(start + step, space), dtype=np.int64)
            totals = self._score_chunk(chunk)
            index = int(np.argmin(totals))
            if totals[index] < best_total:
                best_total = float(totals[index])
                best_codes = int(chunk[index])
        return best_codes, best_total

    # ------------------------------------------------------------------
    # Assignment helpers.
    # ------------------------------------------------------------------

    def assignment_to_codes(self, assignment: HierarchicalAssignment) -> int:
        """Encode an assignment with the :meth:`score_codes` digit layout."""
        self._check_assignment(assignment)
        level_space = self.num_strategies ** self.num_layers
        codes = 0
        for level in range(self.num_levels):
            codes = codes * level_space + assignment[level].to_codes(self.strategies)
        return codes

    def codes_to_assignment(self, codes: int) -> HierarchicalAssignment:
        """Inverse of :meth:`assignment_to_codes`."""
        level_space = self.num_strategies ** self.num_layers
        levels: list[LayerAssignment] = []
        for _ in range(self.num_levels):
            codes, level_codes = divmod(codes, level_space)
            levels.append(
                LayerAssignment.from_codes(level_codes, self.num_layers, self.strategies)
            )
        levels.reverse()
        return HierarchicalAssignment(tuple(levels))

    def total_bytes(self, assignment: HierarchicalAssignment) -> float:
        """Total traffic of one hierarchical assignment (fast path)."""
        self._check_assignment(assignment)
        code_of = self.strategies.code_of
        decoded = [
            np.array([[code_of(choice) for choice in assignment[level]]], dtype=np.int64)
            for level in range(self.num_levels)
        ]
        return float(self.score_level_codes(decoded)[0])

    def level_communication(
        self, assignment: HierarchicalAssignment
    ) -> list[list[tuple[Parallelism, float, tuple[tuple[int, float, float], ...]]]]:
        """Per-level, per-layer ``(choice, intra, incoming)`` bytes.

        ``incoming`` lists the layer's incoming-edge re-layouts as
        ``(source_layer, inter_fwd, inter_bwd)`` tuples in canonical edge
        (input) order -- one entry per incoming DAG edge, so merge layers
        carry one record per branch.  This is the gather the training
        simulator consumes; the floats are identical to the ones the
        object path derives from fresh ``model_tensors`` lists at every
        level.
        """
        self._ensure_direction_split()
        states = self.state_indices(assignment)
        code_of = self.strategies.code_of
        records: list[
            list[tuple[Parallelism, float, tuple[tuple[int, float, float], ...]]]
        ] = []
        for level in range(self.num_levels):
            level_assignment = assignment[level]
            level_records = []
            for layer, choice in enumerate(level_assignment):
                state = int(states[level, layer])
                intra = float(self._intra[level][layer, state, code_of(choice)])
                incoming = []
                for edge_index, source in self._incoming[layer]:
                    previous = level_assignment[source]
                    boundary_state = int(states[level, source])
                    fwd = float(
                        self._inter_forward[level][
                            edge_index, boundary_state, code_of(previous), code_of(choice)
                        ]
                    )
                    bwd = float(
                        self._inter_backward[level][
                            edge_index, boundary_state, code_of(previous), code_of(choice)
                        ]
                    )
                    incoming.append((source, fwd, bwd))
                level_records.append((choice, intra, tuple(incoming)))
            records.append(level_records)
        return records

    @property
    def cache_key(self) -> tuple:
        """The :func:`table_cache_key` this compilation answers to."""
        return table_cache_key(
            self.model,
            self.batch_size,
            self.num_levels,
            self.scaling_mode,
            self.communication_model,
            self.strategies,
            self.backend,
        )

    def check_compatible(
        self,
        model: DNNModel,
        batch_size: int,
        num_levels: int,
        scaling_mode: ScalingMode,
        communication_model: CommunicationModel,
        strategies: StrategySpace | None = None,
    ) -> None:
        """Raise when this table was compiled for a different configuration.

        Shared by every consumer that accepts an externally supplied table
        (the hierarchical partitioner, the training simulator) so the
        compatibility rules cannot drift between them.  ``strategies`` may
        be omitted by consumers that only *evaluate* assignments (the
        evaluation is strategy-space-agnostic as long as the assignment's
        choices are members of the table's space).
        """
        if (
            (self.model is not model and self.model != model)
            or self.batch_size != batch_size
            or self.num_levels != num_levels
            or self.scaling_mode is not scaling_mode
            or not self.communication_model.same_costs(communication_model)
            or (strategies is not None and self.strategies != strategies)
        ):
            # Structural equality (not identity) qualifies a model: the
            # shared sweep cache hands one compiled table to every caller
            # holding an equal model, including unpickled copies in worker
            # processes.
            raise ValueError(
                "cost table was compiled for a different "
                "(model, batch, levels, scaling, communication-model, "
                "strategy-space) configuration"
            )

    def _check_assignment(self, assignment: HierarchicalAssignment) -> None:
        if assignment.num_levels != self.num_levels:
            raise ValueError(
                f"assignment has {assignment.num_levels} levels, "
                f"table expects {self.num_levels}"
            )
        if assignment.num_layers != self.num_layers:
            raise ValueError(
                f"assignment covers {assignment.num_layers} layers, "
                f"table has {self.num_layers}"
            )


def compile_cost_table(
    model: DNNModel,
    batch_size: int,
    scales: Sequence[TensorScale] | None = None,
    communication_model: CommunicationModel | None = None,
    strategies: StrategySpace | Sequence[Parallelism] | str | None = None,
    backend: str | None = None,
) -> CostTable:
    """Module-level convenience alias for :meth:`CostTable.compile`."""
    return CostTable.compile(
        model, batch_size, scales, communication_model, strategies, backend
    )


# ----------------------------------------------------------------------
# Shared compiled-table cache.
# ----------------------------------------------------------------------


def table_cache_key(
    model: DNNModel,
    batch_size: int,
    num_levels: int,
    scaling_mode: ScalingMode | str = ScalingMode.PARALLELISM_AWARE,
    communication_model: CommunicationModel | None = None,
    strategies: StrategySpace | Sequence[Parallelism] | str | None = None,
    backend: str | None = None,
) -> tuple:
    """Hashable identity of a :class:`HierarchicalCostTable` compilation.

    Two compilations with equal keys produce float-identical tables: the
    arrays are pure functions of the model's resolved layers, the batch
    size, the hierarchy depth, the scaling mode, the communication-model
    parameters and the strategy space.  ``DNNModel`` is a frozen dataclass,
    so equal models -- including copies unpickled in sweep worker
    processes -- hash and compare equal and hit the same cache entry.

    ``backend`` is resolved (``None`` -> the process default *at key
    time*) before entering the key: the stored floats are
    backend-independent, but the gathered per-level tables inherit the
    backend, so a cache hit must hand back tables that dispatch the way
    the caller asked.
    """
    communication_model = communication_model or CommunicationModel()
    return (
        model,
        int(batch_size),
        int(num_levels),
        ScalingMode.parse(scaling_mode),
        StrategySpace.parse(strategies),
        communication_model.cache_key,
        kernels.resolve_backend(backend),
    )


class TableCache:
    """Cache of compiled :class:`HierarchicalCostTable` objects.

    Keyed by :func:`table_cache_key`, i.e. by the *configuration* rather
    than by object identity, so every study of a sweep that touches the
    same ``(model, strategy space, scaling mode, batch, num_levels)``
    point compiles the table once and gathers from it thereafter --
    including across the serial and process-parallel runners (each worker
    process holds one instance and warms it as its share of the grid
    streams through).  Hit/miss counters make the sharing observable.
    """

    def __init__(self, limit: int = 64) -> None:
        if limit <= 0:
            raise ValueError(f"limit must be positive, got {limit}")
        self._limit = limit
        self._tables: dict[tuple, HierarchicalCostTable] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._tables)

    def get_or_compile(
        self,
        model: DNNModel,
        batch_size: int,
        num_levels: int,
        scaling_mode: ScalingMode | str = ScalingMode.PARALLELISM_AWARE,
        communication_model: CommunicationModel | None = None,
        strategies: StrategySpace | Sequence[Parallelism] | str | None = None,
        backend: str | None = None,
    ) -> HierarchicalCostTable:
        """The compiled table for the configuration, compiling on first use."""
        resolved_backend = kernels.resolve_backend(backend)
        key = table_cache_key(
            model,
            batch_size,
            num_levels,
            scaling_mode,
            communication_model,
            strategies,
            resolved_backend,
        )
        table = self._tables.get(key)
        if table is not None:
            self.hits += 1
            return table
        self.misses += 1
        if len(self._tables) >= self._limit:
            # Simple full flush: sweeps revisit configurations in grid
            # order, so an LRU would only help adversarial access patterns.
            self.evictions += len(self._tables)
            self._tables.clear()
        table = HierarchicalCostTable(
            model,
            batch_size,
            num_levels,
            scaling_mode=scaling_mode,
            communication_model=communication_model,
            strategies=strategies,
            backend=resolved_backend,
        )
        self._tables[key] = table
        return table

    def clear(self) -> None:
        self._tables.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when untouched)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> dict:
        """Counters for tests, sweep reports and the service ``/healthz``."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._tables),
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }
