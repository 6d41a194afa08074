"""Bit-exactness properties of the DAG cut-vertex program.

The cut-vertex program replays repeated cut segments of residual
transformer DAGs (``gpt_r``) by translation instead of stepping them, as
the chain DP does for repeated transitions.  These tests drive the cold
segment stepping over random DAGs and the branching zoo against the
brute-force minimum, and the memoizer and its periodic-block detector
over periodic residual stacks, perturbed copies of them and ``gpt_r``,
asserting exact float equality with cold stepping and with the scanning
reference detector.  The random-DAG strategy is shared with the
search-oracle properties.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.core.costs import DAG_JUMP_STATS, CostTable
from repro.core.tensors import LayerTensors
from repro.nn.model_zoo import gpt_r, inception_s, resnet_s

# Integer byte-like amounts keep every cost a small exact float -- the
# regime where the DAG block jump's exactness certificate admits the
# translation (the parity properties themselves hold for any floats).
int_amounts = st.integers(min_value=1, max_value=1 << 24)


def _layer(index: int, feature_in: int, feature_out: int, weight: int) -> LayerTensors:
    return LayerTensors(
        layer_index=index,
        layer_name=f"layer{index}",
        is_conv=False,
        feature_in=float(feature_in),
        feature_out=float(feature_out),
        weight=float(weight),
        macs=float(weight),
    )


@st.composite
def random_dag_tables(draw, max_layers=7):
    """Tensors plus a random DAG edge list (chain + up to two skips).

    Small enough that the full ``K**L`` space is enumerable, so the
    cut-vertex DP can be checked against the brute-force scorer minimum.
    Skip edges may share a destination with the chain edge (a merge
    layer) and are appended *after* the chain edges.
    """
    count = draw(st.integers(min_value=3, max_value=max_layers), label="layers")
    tensors = [
        _layer(index, draw(int_amounts), draw(int_amounts), draw(int_amounts))
        for index in range(count)
    ]
    edges = [(index, index + 1) for index in range(count - 1)]
    num_skips = draw(st.integers(min_value=0, max_value=2), label="skips")
    for _ in range(num_skips):
        source = draw(st.integers(min_value=0, max_value=count - 3), label="src")
        destination = draw(
            st.integers(min_value=source + 2, max_value=count - 1), label="dst"
        )
        if (source, destination) not in edges:
            edges.append((source, destination))
    return tensors, edges


@st.composite
def periodic_residual_tables(draw, min_repeats=6, max_repeats=24):
    """A stem, repeated identical blocks with a skip edge each, and a head.

    The residual-transformer shape: block-periodic costs *and*
    block-periodic edge structure, so the DAG repetition memoizer's
    detector sees a periodic cut-segment region (the jump itself still
    requires steady state plus the exactness certificate, and simply
    declines otherwise -- either way the result must stay bit-exact).
    """
    block_len = draw(st.integers(min_value=3, max_value=4), label="block_len")
    repeats = draw(
        st.integers(min_value=min_repeats, max_value=max_repeats), label="repeats"
    )
    block = [
        (draw(int_amounts), draw(int_amounts), draw(int_amounts))
        for _ in range(block_len)
    ]
    stem = (draw(int_amounts), draw(int_amounts), draw(int_amounts))
    head = (draw(int_amounts), draw(int_amounts), draw(int_amounts))
    rows = [stem] + block * repeats + [head]
    tensors = [
        _layer(index, fin, fout, weight)
        for index, (fin, fout, weight) in enumerate(rows)
    ]
    edges = [(index, index + 1) for index in range(len(rows) - 1)]
    # One skip per repeated block, spanning its first interior layer.
    for repeat in range(repeats):
        start = 1 + repeat * block_len
        edges.append((start, start + 2))
    return tensors, edges


BRANCHING_ZOO = [
    pytest.param(resnet_s, id="resnet_s"),
    pytest.param(inception_s, id="inception_s"),
    pytest.param(lambda: gpt_r(2), id="gpt_r-2"),
]


class TestDagColdPath:
    """The cut-vertex program's cold segment stepping and its scorer.

    ``memoize=False`` steps every cut segment through
    ``CostTable._advance_dag_block``; the batched scorer gathers the edge
    terms in ``CostTable._score_decoded``.  Both must agree exactly with
    the memoized program and with the brute-force minimum.
    """

    @settings(max_examples=40, deadline=None)
    @given(table=random_dag_tables(), space=st.sampled_from(["dp,mp", "dp,mp,pp"]))
    def test_cold_dag_dp_matches_memoized_and_brute_force(self, table, space):
        tensors, edges = table
        cost_table = CostTable.from_tensors(tensors, edges=edges, strategies=space)
        cold = cost_table.dp_partition(memoize=False)
        memoized = cost_table.dp_partition()
        assert cold.communication_bytes == memoized.communication_bytes
        assert cold.assignment.choices == memoized.assignment.choices
        _, brute = cost_table.argmin_assignment()
        assert cold.communication_bytes == brute

    @settings(max_examples=40, deadline=None)
    @given(table=random_dag_tables(), chunk_size=st.sampled_from([1, 2, 3, 7]))
    def test_dag_scorer_is_chunk_size_invariant(self, table, chunk_size):
        tensors, edges = table
        cost_table = CostTable.from_tensors(tensors, edges=edges)
        codes = np.arange(cost_table.num_assignments, dtype=np.int64)
        assert np.array_equal(
            cost_table.score_codes(codes, chunk_size=chunk_size),
            cost_table.score_codes(codes),
        )

    @pytest.mark.parametrize("space", ["dp,mp", "dp,mp,pp"])
    @pytest.mark.parametrize("builder", BRANCHING_ZOO)
    def test_branching_zoo_cold_dp_matches_brute_force(self, builder, space):
        table = CostTable.compile(builder(), 64, strategies=space)
        cold = table.dp_partition(memoize=False)
        codes, brute = table.argmin_assignment()
        assert cold.communication_bytes == brute
        assert table.score_codes([codes])[0] == brute
        assert table.dp_partition().assignment.choices == cold.assignment.choices


class TestDagRepeatedBlockMemoization:
    @settings(max_examples=30, deadline=None)
    @given(table=periodic_residual_tables())
    def test_memoized_dag_dp_is_bit_exact_with_cold(self, table):
        tensors, edges = table
        cost_table = CostTable.from_tensors(tensors, edges=edges)
        memoized = cost_table.dp_partition(memoize=True)
        cold = cost_table.dp_partition(memoize=False)
        assert memoized.communication_bytes == cold.communication_bytes
        assert memoized.assignment.choices == cold.assignment.choices

    def test_block_jump_fires_on_gpt_r_at_depth(self):
        """The DAG periodic-block jump actually engages on ``gpt_r``.

        A 64-block residual transformer has ~129 cut segments alternating
        with period two; integer tensor amounts let the exactness
        certificate admit the jump.  If a refactor silently degrades the
        cut-vertex program to cold stepping, the jump statistics stay
        flat and this test (not just a benchmark) catches it.
        """
        table = CostTable.compile(gpt_r(64), 256)
        before = dict(DAG_JUMP_STATS)
        memoized = table.dp_partition()
        after = dict(DAG_JUMP_STATS)
        assert after["jumps"] > before["jumps"]
        assert after["jumped_blocks"] > before["jumped_blocks"]
        cold = table.dp_partition(memoize=False)
        assert memoized.communication_bytes == cold.communication_bytes
        assert memoized.assignment.choices == cold.assignment.choices

    @pytest.mark.parametrize("space", ["dp,mp", "dp,mp,pp"])
    def test_gpt_r_memoized_matches_cold_in_each_space(self, space):
        table = CostTable.compile(gpt_r(32), 64, strategies=space)
        memoized = table.dp_partition()
        cold = table.dp_partition(memoize=False)
        assert memoized.communication_bytes == cold.communication_bytes
        assert memoized.assignment.choices == cold.assignment.choices


def _block_local_edges_reference(table, block_start, block_end):
    """The full edge scan ``CostTable._block_local_edges`` replaced."""
    return [
        (edge_index, source - block_start, destination - block_start)
        for edge_index, (source, destination) in enumerate(table.edges)
        if block_start < destination <= block_end
    ]


def _detect_periodic_blocks_reference(table, blocks):
    """The pairwise ``np.array_equal`` detector the signature ids replaced."""
    num_blocks = len(blocks)
    shapes = []
    edge_lists = []
    for block_start, block_end in blocks:
        local_edges = _block_local_edges_reference(table, block_start, block_end)
        shapes.append(
            (
                block_end - block_start,
                tuple((source, destination) for _, source, destination in local_edges),
            )
        )
        edge_lists.append([edge_index for edge_index, _, _ in local_edges])

    def matches(left, right):
        if shapes[left] != shapes[right]:
            return False
        left_start, left_end = blocks[left]
        right_start, right_end = blocks[right]
        if not np.array_equal(
            table.intra[left_start + 1 : left_end + 1],
            table.intra[right_start + 1 : right_end + 1],
        ):
            return False
        for left_edge, right_edge in zip(edge_lists[left], edge_lists[right]):
            if not np.array_equal(table.inter[left_edge], table.inter[right_edge]):
                return False
        return True

    for period in range(1, min(8, num_blocks // 4) + 1):
        best_first = best_length = 0
        run_start = run_length = 0
        for position in range(num_blocks - period):
            if matches(position, position + period):
                if run_length == 0:
                    run_start = position
                run_length += 1
                if run_length > best_length:
                    best_first, best_length = run_start, run_length
            else:
                run_length = 0
        if best_length and (best_length + period) // period >= 4:
            return period, best_first, best_first + best_length + period
    return None


@st.composite
def perturbed_periodic_tables(draw):
    """A periodic residual table with a few entries rewritten.

    Rewrites break periodicity (new values), keep it (``-0.0`` for
    ``0.0`` compares equal) or poison it (a NaN never matches), so the
    detector's value-equality semantics are exercised, not just its
    happy path.
    """
    tensors, edges = draw(periodic_residual_tables(min_repeats=4, max_repeats=16))
    table = CostTable.from_tensors(tensors, edges=edges)
    intra = table.intra.copy()
    inter = table.inter.copy()
    for _ in range(draw(st.integers(min_value=0, max_value=3), label="rewrites")):
        target = draw(st.sampled_from(["intra", "inter"]), label="target")
        array = intra if target == "intra" else inter
        flat = array.reshape(-1)
        position = draw(st.integers(min_value=0, max_value=flat.size - 1), label="at")
        flat[position] = draw(
            st.sampled_from([-0.0, float("nan"), 1.0, flat[position]]), label="value"
        )
    return CostTable(
        intra=intra,
        inter=inter,
        tensors=table.tensors,
        communication_model=table.communication_model,
        edges=table.edges,
    )


class TestDagDetectorMatchesReference:
    """Bucketed edges and signature ids reproduce the scanning detector."""

    @settings(max_examples=60, deadline=None)
    @given(table=perturbed_periodic_tables())
    def test_detector_and_block_edges_match_the_reference(self, table):
        cuts = table.cut_vertices()
        blocks = list(zip(cuts, cuts[1:]))
        for block_start, block_end in blocks:
            assert table._block_local_edges(
                block_start, block_end
            ) == _block_local_edges_reference(table, block_start, block_end)
        assert table._detect_periodic_blocks(
            blocks
        ) == _detect_periodic_blocks_reference(table, blocks)

    @settings(max_examples=30, deadline=None)
    @given(table=periodic_residual_tables(min_repeats=16, max_repeats=40))
    def test_jump_statistics_and_result_are_unchanged(self, table):
        tensors, edges = table
        cost_table = CostTable.from_tensors(tensors, edges=edges)
        assert _memoized_solve(cost_table) == _memoized_solve(cost_table, reference=True)

    def test_gpt_r_jump_is_unchanged(self):
        cost_table = CostTable.compile(gpt_r(30), 256)
        cuts = cost_table.cut_vertices()
        blocks = list(zip(cuts, cuts[1:]))
        assert cost_table._detect_periodic_blocks(
            blocks
        ) == _detect_periodic_blocks_reference(cost_table, blocks)
        fast = _memoized_solve(cost_table)
        assert fast[2]["jumps"] == 1
        assert fast == _memoized_solve(cost_table, reference=True)


def _memoized_solve(cost_table, reference=False):
    """``(bytes, choices, DAG_JUMP_STATS delta)`` of one memoized DAG solve.

    With ``reference`` the solve runs on the scanning edge lookups and
    the pairwise detector instead of the bucketed ones.
    """
    with pytest.MonkeyPatch.context() as patch:
        if reference:
            patch.setattr(CostTable, "_block_local_edges", _block_local_edges_reference)
            patch.setattr(
                CostTable, "_detect_periodic_blocks", _detect_periodic_blocks_reference
            )
            patch.setattr(
                CostTable,
                "_edges_into",
                lambda self, first, last: [
                    edge_index
                    for edge_index, (_, destination) in enumerate(self.edges)
                    if first < destination <= last
                ],
            )
        before = dict(DAG_JUMP_STATS)
        result = cost_table.dp_partition()
        delta = {key: DAG_JUMP_STATS[key] - before[key] for key in before}
    return result.communication_bytes, result.assignment.choices, delta
