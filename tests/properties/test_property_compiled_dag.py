"""Bit-exactness properties of the compiled DAG and hierarchical fast paths.

PR 8 extends the compiled (numba) kernel backend beyond chains: the DAG
cut-vertex DP enumerates its branch interiors in an ``@njit`` block
scorer, the hierarchical level scorers run as kernels, a
``"compiled-parallel"`` leg scores candidates under ``prange``, and the
cut-vertex program gains the chain DP's repeated-block memoization for
residual transformer DAGs (``gpt_r``).  Every one of those paths promises
*bit-exact* agreement with the cold NumPy oracle; these tests drive them
over the branching zoo, random DAGs and periodic residual stacks and
assert exact float equality.

When numba is absent (the default local environment) the compiled
backends silently run the NumPy path, so the backend properties hold
trivially here and bind for real in the numba CI leg; the dispatch-counter
tests flip accordingly and prove the kernels actually *executed* wherever
numba is present.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.core import kernels
from repro.core.costs import DAG_JUMP_STATS, CostTable, HierarchicalCostTable
from repro.core.exhaustive import enumerate_restricted_communication
from repro.core.parallelism import HierarchicalAssignment, Parallelism
from repro.core.tensors import LayerTensors, model_tensors
from repro.nn.model_zoo import gpt_r, inception_s, lenet_c, resnet_s

COMPILED_BACKENDS = ["compiled", "compiled-parallel"]

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
    cut-vertex DP can be checked against the brute-force scorer minimum
    as well as across backends.  Skip edges may share a destination with
    the chain edge (a merge layer) and are appended *after* the chain
    edges, exercising the kernels' stable destination grouping.
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


class TestCompiledDagDP:
    @settings(max_examples=40, deadline=None)
    @given(table=random_dag_tables(), backend=st.sampled_from(COMPILED_BACKENDS))
    def test_compiled_dag_dp_matches_numpy_and_brute_force(self, table, backend):
        tensors, edges = table
        numpy_table = CostTable.from_tensors(tensors, edges=edges, backend="numpy")
        compiled_table = CostTable.from_tensors(tensors, edges=edges, backend=backend)
        a = numpy_table.dp_partition()
        b = compiled_table.dp_partition()
        assert a.communication_bytes == b.communication_bytes
        assert a.assignment.choices == b.assignment.choices
        _, brute = numpy_table.argmin_assignment()
        assert a.communication_bytes == brute

    @settings(max_examples=40, deadline=None)
    @given(table=random_dag_tables(), backend=st.sampled_from(COMPILED_BACKENDS))
    def test_compiled_dag_scorer_matches_numpy(self, table, backend):
        tensors, edges = table
        numpy_table = CostTable.from_tensors(tensors, edges=edges, backend="numpy")
        compiled_table = CostTable.from_tensors(tensors, edges=edges, backend=backend)
        codes = np.arange(numpy_table.num_assignments, dtype=np.int64)
        assert np.array_equal(
            compiled_table.score_codes(codes), numpy_table.score_codes(codes)
        )

    @pytest.mark.parametrize("backend", COMPILED_BACKENDS)
    @pytest.mark.parametrize("builder", [resnet_s, inception_s, gpt_r])
    def test_branching_zoo_compiled_dp_matches_numpy(self, builder, backend):
        tensors = model_tensors(builder(), 64)
        edges = builder().edges
        numpy_table = CostTable.from_tensors(tensors, edges=edges, backend="numpy")
        compiled_table = CostTable.from_tensors(tensors, edges=edges, backend=backend)
        a = numpy_table.dp_partition()
        b = compiled_table.dp_partition()
        assert a.communication_bytes == b.communication_bytes
        assert a.assignment.choices == b.assignment.choices


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

    @pytest.mark.parametrize("backend", COMPILED_BACKENDS)
    def test_gpt_r_compiled_memoized_matches_numpy_cold(self, backend):
        """Memoizer and compiled kernels compose on the residual stack."""
        model = gpt_r(32)
        compiled_table = CostTable.compile(model, 64, backend=backend)
        numpy_table = CostTable.compile(model, 64, backend="numpy")
        a = compiled_table.dp_partition()
        b = numpy_table.dp_partition(memoize=False)
        assert a.communication_bytes == b.communication_bytes
        assert a.assignment.choices == b.assignment.choices


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


class TestCompiledHierarchicalScorers:
    @pytest.mark.parametrize("backend", COMPILED_BACKENDS)
    @pytest.mark.parametrize("builder", [lenet_c, resnet_s])
    def test_hier_score_codes_matches_numpy(self, builder, backend):
        model = builder()
        numpy_table = HierarchicalCostTable(model, 64, 2, backend="numpy")
        compiled_table = HierarchicalCostTable(model, 64, 2, backend=backend)
        codes = np.arange(numpy_table.num_assignments, dtype=np.int64)
        assert np.array_equal(
            compiled_table.score_codes(codes), numpy_table.score_codes(codes)
        )
        assert compiled_table.argmin_assignment() == numpy_table.argmin_assignment()

    def test_parallel_scorer_tiny_chunks_are_byte_identical(self):
        """Chunk boundaries never leak into the prange leg's totals.

        Tiny chunks rescore two fixed windows of the 2**20 codes, the
        first and the last 4096, against the full-array baseline: one
        Python-level chunk per code or three makes all of them a
        five-minute rescore.  The NumPy scorer's own tiny-chunk identity
        is ``test_property_fastpaths.py::TestChunkSizeByteIdentity``'s.
        """
        table = HierarchicalCostTable(resnet_s(), 64, 2, backend="compiled-parallel")
        codes = np.arange(table.num_assignments, dtype=np.int64)
        baseline = table.score_codes(codes)
        for window in (slice(0, 4096), slice(-4096, None)):
            for chunk in (1, 3, 7):
                assert np.array_equal(
                    table.score_codes(codes[window], chunk_size=chunk), baseline[window]
                )

    @pytest.mark.parametrize("backend", COMPILED_BACKENDS)
    def test_restricted_sweep_rides_the_compiled_table(self, backend):
        model = resnet_s()
        numpy_table = HierarchicalCostTable(model, 64, 4, backend="numpy")
        compiled_table = HierarchicalCostTable(model, 64, 4, backend=backend)
        base = HierarchicalAssignment.uniform(Parallelism.DATA, 4, len(model))
        free = [(0, 0), (1, 2), (2, 5), (0, 3)]
        baseline = enumerate_restricted_communication(
            model, 64, base, free, table=numpy_table
        )
        compiled = enumerate_restricted_communication(
            model, 64, base, free, table=compiled_table
        )
        assert np.array_equal(compiled, baseline)


class TestKernelDispatchCounters:
    """`--backend compiled` must *execute* kernels, not silently fall back.

    With numba present the counters prove the dispatch happened; without
    it they prove the graceful fallback stayed on the NumPy path.
    """

    def setup_method(self):
        kernels.reset_dispatch_counts()

    def test_dag_dp_dispatches_block_kernel(self):
        CostTable.compile(resnet_s(), 64, backend="compiled").dp_partition()
        counts = kernels.dispatch_counts()
        if kernels.NUMBA_AVAILABLE:
            assert counts["dag_block"] > 0
        else:
            assert counts["dag_block"] == 0

    def test_hierarchical_scoring_dispatches_level_kernel(self):
        table = HierarchicalCostTable(resnet_s(), 64, 2, backend="compiled")
        table.score_codes(np.arange(256, dtype=np.int64))
        counts = kernels.dispatch_counts()
        if kernels.NUMBA_AVAILABLE:
            assert counts["hier_level"] > 0
        else:
            assert counts["hier_level"] == 0

    def test_parallel_backend_dispatches_scorer_kernels(self):
        chain = CostTable.compile(lenet_c(), 64, backend="compiled-parallel")
        chain.score_codes(np.arange(chain.num_assignments, dtype=np.int64))
        dag = CostTable.compile(resnet_s(), 64, backend="compiled-parallel")
        dag.score_codes(np.arange(64, dtype=np.int64))
        counts = kernels.dispatch_counts()
        if kernels.NUMBA_AVAILABLE:
            assert counts["chain_score"] > 0
            assert counts["dag_score"] > 0
        else:
            assert counts["chain_score"] == 0
            assert counts["dag_score"] == 0
