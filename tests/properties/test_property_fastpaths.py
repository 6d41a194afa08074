"""Property-based bit-exactness tests for the search fast paths.

The cost engine has two accelerations -- block-repetition memoization in
the chain DP and dominance pruning in the batched scanners -- both
promising *bit-exact* agreement with the plain NumPy path (which the
existing property suites pin against the object oracle, making the
equivalence three deep).  These tests drive the fast paths over random
repeated-block chains at transformer-style depth and assert exact float
equality: same optimum bytes, same argmin assignment, identical candidate
totals.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.core.costs import CostTable, HierarchicalCostTable, WarmStartDP
from repro.core.exhaustive import (
    enumerate_restricted,
    enumerate_restricted_communication,
    exhaustive_two_way,
    exhaustive_two_way_reference,
)
from repro.core.hierarchical import HierarchicalPartitioner
from repro.core.parallelism import HierarchicalAssignment, Parallelism
from repro.core.tensors import LayerTensors, model_tensors
from repro.nn.model_zoo import gpt_s, lenet_c, resnet_s

# Integer byte-like amounts keep every cost a small exact float, the regime
# where the memoizer's exactness certificate admits the translated-frontier
# jump; the bit-exactness property itself holds for any floats (the jump
# simply declines when exactness cannot be certified).
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
def repeated_block_chains(draw, min_repeats=3, max_repeats=40):
    """A stem, ``repeats`` copies of one 1-4 layer block, and a head.

    The structure of a parameterized transformer chain: distinct layers at
    both ends, an exactly-periodic interior.  Depths reach past the
    memoizer's minimum (32 layers) so the periodic-region detector and the
    block-stepping path both run under the property.
    """
    block_len = draw(st.integers(min_value=1, max_value=4), label="block_len")
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
    return [
        _layer(index, fin, fout, weight)
        for index, (fin, fout, weight) in enumerate(rows)
    ]


@st.composite
def short_chains(draw, max_layers=7):
    count = draw(st.integers(min_value=1, max_value=max_layers))
    return [
        _layer(index, draw(int_amounts), draw(int_amounts), draw(int_amounts))
        for index in range(count)
    ]


class TestMemoizedChainDP:
    @settings(max_examples=50, deadline=None)
    @given(tensors=repeated_block_chains())
    def test_memoized_dp_is_bit_exact_with_cold_dp(self, tensors):
        table = CostTable.from_tensors(tensors)
        memoized = table.dp_partition(memoize=True)
        cold = table.dp_partition(memoize=False)
        assert memoized.communication_bytes == cold.communication_bytes
        assert memoized.assignment.choices == cold.assignment.choices

    @settings(max_examples=25, deadline=None)
    @given(tensors=repeated_block_chains(min_repeats=10))
    def test_warmstart_memoized_solve_matches_cold(self, tensors):
        table = CostTable.from_tensors(tensors)
        warm = WarmStartDP().solve(table)
        cold = table.dp_partition(memoize=False)
        assert warm.communication_bytes == cold.communication_bytes
        assert warm.assignment.choices == cold.assignment.choices

    @settings(max_examples=15, deadline=None)
    @given(tensors=repeated_block_chains(min_repeats=12), data=st.data())
    def test_warmstart_suffix_mutation_reuse_at_depth(self, tensors, data):
        """Mutating a suffix layer re-solves only the suffix, bit-exactly."""
        solver = WarmStartDP()
        table = CostTable.from_tensors(tensors)
        solver.solve(table)
        # Mutate one layer in the back half; the prefix frontier is reused.
        # Bumping the weight guarantees the layer's cost column changes, so
        # the solve cannot short-circuit as a full cache hit.
        index = data.draw(
            st.integers(min_value=len(tensors) // 2, max_value=len(tensors) - 1),
            label="mutated_layer",
        )
        original = tensors[index]
        mutated = list(tensors)
        mutated[index] = _layer(
            index,
            int(original.feature_in),
            int(original.feature_out),
            int(original.weight) + 1,
        )
        mutated_table = CostTable.from_tensors(mutated)
        warm = solver.solve(mutated_table)
        cold = mutated_table.dp_partition(memoize=False)
        assert warm.communication_bytes == cold.communication_bytes
        assert warm.assignment.choices == cold.assignment.choices
        assert solver.stats()["reused_layers"] > 0

    def test_periodic_jump_fires_at_transformer_depth(self):
        """The translated-frontier jump actually engages (not just falls back).

        ``gpt_s(64)`` is a 258-layer chain of integer-valued tensor amounts,
        the regime where the exactness certificate certifies the jump; if a
        refactor silently degrades it to cold stepping, ``memoized_layers``
        stays zero and this test (not just a benchmark) catches it.
        """
        tensors = model_tensors(gpt_s(64), 256)
        cost_table = CostTable.from_tensors(tensors)
        solver = WarmStartDP()
        warm = solver.solve(cost_table)
        assert solver.memoized_layers > 0
        cold = cost_table.dp_partition(memoize=False)
        assert warm.communication_bytes == cold.communication_bytes
        assert warm.assignment.choices == cold.assignment.choices


class TestDominancePruning:
    @settings(max_examples=40, deadline=None)
    @given(tensors=short_chains())
    def test_pruned_argmin_matches_plain_scan(self, tensors):
        table = CostTable.from_tensors(tensors)
        plain = table.argmin_assignment()
        pruned = table.argmin_assignment(prune=True)
        assert pruned == plain

    @settings(max_examples=30, deadline=None)
    @given(tensors=short_chains())
    def test_pruned_argmin_with_dp_incumbent_matches(self, tensors):
        table = CostTable.from_tensors(tensors)
        plain = table.argmin_assignment()
        upper = table.dp_partition().communication_bytes
        pruned = table.argmin_assignment(prune=True, upper_bound=upper)
        assert pruned == plain

    @settings(max_examples=25, deadline=None)
    @given(tensors=short_chains(max_layers=6))
    def test_branch_and_bound_exhaustive_matches_reference(self, tensors):
        pruned = exhaustive_two_way(tensors, prune=True, chunk_size=8)
        reference = exhaustive_two_way_reference(tensors)
        assert pruned.communication_bytes == reference.communication_bytes
        assert pruned.assignment.choices == reference.assignment.choices


class TestChunkSizeByteIdentity:
    @settings(max_examples=30, deadline=None)
    @given(tensors=short_chains(), data=st.data())
    def test_tiny_chunks_score_byte_identically(self, tensors, data):
        table = CostTable.from_tensors(tensors)
        codes = np.arange(table.num_assignments, dtype=np.int64)
        baseline = table.score_codes(codes)
        chunk = data.draw(st.sampled_from([1, 2, 3, 7]), label="chunk_size")
        assert np.array_equal(table.score_codes(codes, chunk_size=chunk), baseline)

    def test_hierarchical_scorer_tiny_chunks_are_byte_identical(self):
        table = HierarchicalCostTable(lenet_c(), 64, 2)
        codes = np.arange(table.num_assignments, dtype=np.int64)
        baseline = table.score_codes(codes)
        for chunk in (1, 3, 16):
            assert np.array_equal(table.score_codes(codes, chunk_size=chunk), baseline)
        plain = table.argmin_assignment()
        assert table.argmin_assignment(chunk_size=1) == plain

    def test_restricted_sweep_tiny_chunks_are_byte_identical(self):
        model = lenet_c()
        base = HierarchicalAssignment.uniform(Parallelism.DATA, 2, len(model))
        free = [(0, 0), (1, 2), (0, 3)]
        baseline = enumerate_restricted_communication(model, 64, base, free)
        tiny = enumerate_restricted_communication(model, 64, base, free, chunk_size=2)
        assert np.array_equal(tiny, baseline)

    def test_deep_hierarchical_scorer_tiny_chunk_windows_are_byte_identical(self):
        """Chunk boundaries never leak into a 20-digit space's totals.

        Tiny chunks rescore two fixed windows of ResNet-S's 2**20 two-level
        codes, the first and the last 4096, against the full-array
        baseline; one Python-level chunk per code or three makes the whole
        space a minutes-long rescore.
        """
        table = HierarchicalCostTable(resnet_s(), 64, 2)
        codes = np.arange(table.num_assignments, dtype=np.int64)
        baseline = table.score_codes(codes)
        for window in (slice(0, 4096), slice(-4096, None)):
            for chunk in (1, 3, 7):
                assert np.array_equal(
                    table.score_codes(codes[window], chunk_size=chunk), baseline[window]
                )


class TestSharedHierarchicalTable:
    """One compiled table serves many restricted sweeps (Figures 9/10)."""

    @pytest.mark.parametrize("builder", [lenet_c, resnet_s])
    def test_restricted_sweeps_on_a_shared_table_match_the_object_sweep(self, builder):
        model = builder()
        partitioner = HierarchicalPartitioner(num_levels=4)
        table = partitioner.compile_table(model, 64)
        base = HierarchicalAssignment.uniform(Parallelism.DATA, 4, len(model))
        sweeps = [[(0, 0), (1, 2), (2, len(model) - 1), (0, 3)], [(3, 1), (2, 0)]]

        def reference(free):
            return [
                total
                for _, total in enumerate_restricted(
                    model,
                    64,
                    base,
                    free,
                    lambda assignment: partitioner.evaluate_reference(
                        model, assignment, 64
                    ).total_communication_bytes,
                )
            ]

        first = enumerate_restricted_communication(model, 64, base, sweeps[0], table=table)
        second = enumerate_restricted_communication(model, 64, base, sweeps[1], table=table)
        assert first.tolist() == reference(sweeps[0])
        assert second.tolist() == reference(sweeps[1])
        again = enumerate_restricted_communication(model, 64, base, sweeps[0], table=table)
        assert np.array_equal(again, first)

