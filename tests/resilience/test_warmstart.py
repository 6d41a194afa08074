"""Warm-start DP: bit-exactness with the cold solve across the model zoo."""

import dataclasses

import pytest

from repro.core.costs import DAG_JUMP_STATS, CostTable, WarmStartDP
from repro.core.hierarchical import HierarchicalPartitioner, HierarchicalWarmStart
from repro.nn.model_zoo import all_model_builders

BATCH = 64

ZOO = sorted(all_model_builders())


def _assert_same_result(warm_result, cold_result):
    assert warm_result.assignment == cold_result.assignment
    assert warm_result.communication_bytes == cold_result.communication_bytes


@pytest.mark.parametrize("name", ZOO)
def test_warm_solve_matches_cold_solve(name):
    """Property: warm.solve(table) is bit-exact with table.dp_partition()."""
    model = all_model_builders()[name]()
    table = CostTable.compile(model, BATCH)
    cold = table.dp_partition()
    warm = WarmStartDP()
    _assert_same_result(warm.solve(table), cold)
    # The second solve of the unchanged table short-circuits for chains
    # and stays bit-exact either way.
    _assert_same_result(warm.solve(table), cold)
    stats = warm.stats()
    if table.is_chain:
        assert stats["full_hits"] == 1
        assert stats["cold_solves"] == 0
        assert stats["solved_layers"] == table.num_layers
    else:
        assert stats["cold_solves"] == 2
        assert stats["full_hits"] == 0


def test_suffix_mutation_reuses_the_prefix(lenet_model):
    table = CostTable.compile(lenet_model, BATCH)
    warm = WarmStartDP()
    warm.solve(table)

    intra = table.intra.copy()
    intra[-1] *= 1.5
    mutated = dataclasses.replace(table, intra=intra)
    _assert_same_result(warm.solve(mutated), mutated.dp_partition())
    assert warm.reused_layers == table.num_layers - 1


def test_first_layer_mutation_resolves_from_scratch(lenet_model):
    table = CostTable.compile(lenet_model, BATCH)
    warm = WarmStartDP()
    warm.solve(table)
    solved_before = warm.solved_layers

    intra = table.intra.copy()
    intra[0] *= 1.5
    mutated = dataclasses.replace(table, intra=intra)
    _assert_same_result(warm.solve(mutated), mutated.dp_partition())
    assert warm.reused_layers == 0
    assert warm.solved_layers == solved_before + table.num_layers


def test_different_strategy_space_shares_no_prefix(lenet_model):
    table = CostTable.compile(lenet_model, BATCH)
    warm = WarmStartDP()
    warm.solve(table)
    other = CostTable.compile(lenet_model, BATCH, strategies="dp,mp,pp")
    _assert_same_result(warm.solve(other), other.dp_partition())
    assert warm.reused_layers == 0


def test_hierarchical_warm_start_across_depths(vgg_a_model):
    """H=4 then H=3: the shallower solve reuses every level it shares."""
    deep = HierarchicalPartitioner(num_levels=4)
    shallow = HierarchicalPartitioner(num_levels=3)
    warm = HierarchicalWarmStart()

    deep_result = deep.partition(vgg_a_model, BATCH, warm=warm)
    _assert_same_result_levels(deep_result, deep.partition(vgg_a_model, BATCH))
    assert warm.stats()["full_hits"] == 0

    shallow_result = shallow.partition(vgg_a_model, BATCH, warm=warm)
    _assert_same_result_levels(shallow_result, shallow.partition(vgg_a_model, BATCH))
    # Levels 0..2 of the H=3 solve replay the H=4 frontier state.
    assert warm.stats()["full_hits"] == 3

    # Re-solving the deep configuration hits every level solver in full.
    before = warm.stats()["full_hits"]
    deep.partition(vgg_a_model, BATCH, warm=warm)
    assert warm.stats()["full_hits"] == before + 4


def _assert_same_result_levels(warm_result, cold_result):
    assert warm_result.assignment == cold_result.assignment
    assert warm_result.level_bytes() == cold_result.level_bytes()


def test_level_solvers_are_cached_per_level():
    warm = HierarchicalWarmStart()
    assert warm.level_solver(2) is warm.level_solver(2)
    assert warm.level_solver(2) is not warm.level_solver(3)
    assert warm.stats() == {
        "full_hits": 0,
        "reused_layers": 0,
        "solved_layers": 0,
        "cold_solves": 0,
    }


def test_unmemoized_dag_solve_records_no_jump():
    """``memoize=False`` reaches the cut-vertex program of a DAG table."""
    table = CostTable.compile(all_model_builders()["gpt_r"](30), 256)
    before = dict(DAG_JUMP_STATS)
    result = WarmStartDP().solve(table, memoize=False)
    assert DAG_JUMP_STATS == before
    _assert_same_result(result, table.dp_partition(memoize=False))
