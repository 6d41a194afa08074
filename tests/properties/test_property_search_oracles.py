"""The proportionate search steps against the steps they replaced.

Each production step of the cost-table search is checked, exactly, against
its predecessor kept in ``tests/core/search_oracle.py`` (or, for the chain
step, against the NumPy loop kept in ``repro.core.costs``):

* the row-matrix periodic-block detector against the signature-id
  detector, on periodic residual tables with entries rewritten to
  ``-0.0``, NaN, infinities or other values: the same ``(period, first,
  stop)``;
* the one-pass cut-segment advance against the chunked scan, on random
  DAG blocks holding ``-0.0``, NaN and infinite entries, with two and
  three strategies and with chunks small enough to split a segment: the
  same frontier bits and winning patterns;
* the array scale descent against the per-layer ``state_index`` loop,
  over random assignments, all three scaling modes and both strategy
  spaces: the same states and gathered level tables;
* the Python-float chain step against ``_advance_chain_numpy``, on random
  rows with and without NaN or infinite entries: the same frontier bits
  (``float.hex``) and parents.
"""

import importlib.util
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.core import costs
from repro.core.costs import CostTable, HierarchicalCostTable
from repro.core.hierarchical import _CompiledLevelTables
from repro.core.parallelism import HierarchicalAssignment, LayerAssignment, StrategySpace
from repro.nn.model_zoo import gpt_r, lenet_c, resnet_s


def _load(relative: str, name: str):
    path = Path(__file__).resolve().parents[1] / relative
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load("core/search_oracle.py", "search_oracle")
compiled_dag = _load("properties/test_property_compiled_dag.py", "compiled_dag_tables")

SPACES = ["dp,mp", "dp,mp,pp"]
SPECIAL = [-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 1.0]


def _rewrite(draw, array, count):
    """Rewrite up to ``count`` entries of ``array`` to drawn special values."""
    flat = array.reshape(-1)
    for _ in range(draw(st.integers(min_value=0, max_value=count), label="rewrites")):
        position = draw(st.integers(min_value=0, max_value=flat.size - 1), label="at")
        flat[position] = draw(st.sampled_from(SPECIAL + [flat[position]]), label="value")


def _table_like(table, intra, inter):
    return CostTable(
        intra=intra,
        inter=inter,
        tensors=table.tensors,
        communication_model=table.communication_model,
        strategies=table.strategies,
        edges=table.edges,
    )


@st.composite
def perturbed_tables(draw, tables):
    """A table of ``tables`` under a drawn space, entries rewritten."""
    tensors, edges = draw(tables)
    space = draw(st.sampled_from(SPACES), label="space")
    table = CostTable.from_tensors(tensors, edges=edges, strategies=space)
    intra = table.intra.copy()
    inter = table.inter.copy()
    _rewrite(draw, intra, 3)
    _rewrite(draw, inter, 3)
    return _table_like(table, intra, inter)


class TestRowMatrixDetector:
    @settings(max_examples=60, deadline=None)
    @given(table=compiled_dag.perturbed_periodic_tables())
    def test_matches_the_signature_detector(self, table):
        blocks = table.layout.segments
        assert table._detect_periodic_blocks(blocks) == oracle.detect_periodic_blocks(
            table, blocks
        )

    @settings(max_examples=60, deadline=None)
    @given(
        table=perturbed_tables(
            compiled_dag.periodic_residual_tables(min_repeats=4, max_repeats=12)
        )
    )
    def test_matches_under_both_spaces_and_infinities(self, table):
        blocks = table.layout.segments
        assert table._detect_periodic_blocks(blocks) == oracle.detect_periodic_blocks(
            table, blocks
        )

    def test_gpt_r_levels_match(self):
        table = HierarchicalCostTable(gpt_r(12), 256, 4, strategies="dp,mp,pp")
        descent = table.scale_descent()
        for level in range(table.num_levels):
            level_table = table.level_cost_table(level, descent.states(level))
            blocks = level_table.layout.segments
            found = level_table._detect_periodic_blocks(blocks)
            assert found == oracle.detect_periodic_blocks(level_table, blocks)
            descent.advance(level_table.dp_partition().assignment)


class TestOnePassSegmentAdvance:
    # ``inf + -inf`` is NaN on both sides; NumPy warns about it each time.
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @settings(max_examples=80, deadline=None)
    @given(
        table=perturbed_tables(compiled_dag.random_dag_tables(max_layers=8)),
        com=st.lists(st.sampled_from(SPECIAL + [2.5, 7.0]), min_size=3, max_size=3),
        chunk_size=st.sampled_from([1, 2, 3, 4, 8, 9, 27, costs.DEFAULT_CHUNK_SIZE]),
    )
    def test_matches_the_chunked_scan(self, table, com, chunk_size):
        entering = np.array(com[: table.num_strategies])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(costs, "DEFAULT_CHUNK_SIZE", chunk_size)
            for block_start, block_end in table.layout.segments:
                best, best_rest = table._advance_dag_block(entering, block_start, block_end)
                expected, expected_rest = oracle.advance_dag_block(
                    table, entering, block_start, block_end
                )
                assert best.tobytes() == expected.tobytes()
                assert np.array_equal(best_rest, expected_rest)
                entering = best

    @pytest.mark.parametrize("space", SPACES)
    def test_multi_chunk_zoo_segments_match(self, space):
        table = CostTable.compile(resnet_s(), 64, strategies=space)
        entering = table.intra[0].copy()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(costs, "DEFAULT_CHUNK_SIZE", 4)
            for block_start, block_end in table.layout.segments:
                best, best_rest = table._advance_dag_block(entering, block_start, block_end)
                expected, expected_rest = oracle.advance_dag_block(
                    table, entering, block_start, block_end
                )
                assert best.tobytes() == expected.tobytes()
                assert np.array_equal(best_rest, expected_rest)
                entering = best


@st.composite
def descents(draw):
    """A compiled table and a random assignment per level."""
    builder = draw(st.sampled_from([lenet_c, resnet_s]), label="model")
    levels = draw(st.integers(min_value=1, max_value=4), label="levels")
    scaling = draw(
        st.sampled_from(["parallelism-aware", "uniform", "none"]), label="scaling"
    )
    space = StrategySpace.parse(draw(st.sampled_from(SPACES), label="space"))
    model = builder()
    table = HierarchicalCostTable(model, 64, levels, scaling_mode=scaling, strategies=space)
    assignments = [
        LayerAssignment(
            tuple(
                draw(st.sampled_from(space.members), label="choice") for _ in range(len(model))
            )
        )
        for _ in range(levels)
    ]
    return table, assignments


class TestArrayScaleDescent:
    @settings(max_examples=60, deadline=None)
    @given(case=descents())
    def test_matches_the_per_layer_loop(self, case):
        table, assignments = case
        provider = _CompiledLevelTables(table)
        expected = oracle.PerLayerDescent(table)
        expected_states = []
        for level, assignment in enumerate(assignments):
            states = expected.states(level)
            expected_states.append(states)
            gathered = provider.level_table(level)
            reference = expected.level_table(level)
            assert gathered.intra.tobytes() == reference.intra.tobytes()
            assert gathered.inter.tobytes() == reference.inter.tobytes()
            provider.advance(assignment)
            expected.advance(assignment)
        indices = table.state_indices(HierarchicalAssignment(tuple(assignments)))
        assert indices.tolist() == expected_states

    def test_a_choice_outside_the_space_is_a_value_error(self):
        table = HierarchicalCostTable(lenet_c(), 64, 2)
        pipeline = LayerAssignment.from_codes(0, len(lenet_c()), "pp")
        with pytest.raises(ValueError, match="not part of the strategy space"):
            table.scale_descent().advance(pipeline)


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
any_entry = st.one_of(finite, st.sampled_from(SPECIAL))


@st.composite
def chain_rows(draw):
    """Random ``(intra, inter, frontiers, start, stop)`` of a chain block."""
    num_strategies = draw(st.integers(min_value=1, max_value=4), label="K")
    num_layers = draw(st.integers(min_value=2, max_value=10), label="L")
    entries = any_entry if draw(st.booleans(), label="special") else finite
    intra = np.array(
        draw(
            st.lists(
                entries,
                min_size=num_layers * num_strategies,
                max_size=num_layers * num_strategies,
            )
        )
    ).reshape(num_layers, num_strategies)
    inter = np.array(
        draw(
            st.lists(
                entries,
                min_size=(num_layers - 1) * num_strategies**2,
                max_size=(num_layers - 1) * num_strategies**2,
            )
        )
    ).reshape(num_layers - 1, num_strategies, num_strategies)
    start = draw(st.integers(min_value=1, max_value=num_layers - 1), label="start")
    stop = draw(st.integers(min_value=start, max_value=num_layers), label="stop")
    frontiers = np.zeros((num_layers, num_strategies))
    frontiers[start - 1] = draw(
        st.lists(entries, min_size=num_strategies, max_size=num_strategies)
    )
    return intra, inter, frontiers, start, stop


class TestFloatChainStep:
    @settings(max_examples=200, deadline=None)
    @given(rows=chain_rows())
    def test_matches_the_numpy_loop(self, rows):
        intra, inter, frontiers, start, stop = rows
        results = []
        for advance in (costs._advance_chain_floats, costs._advance_chain_numpy):
            parents = np.zeros((intra.shape[0] - 1, intra.shape[1]), dtype=np.int8)
            stepped = frontiers.copy()
            advance(intra, inter, parents, stepped, start, stop)
            results.append(
                ([value.hex() for value in stepped.ravel().tolist()], parents.tolist())
            )
        assert results[0] == results[1]
