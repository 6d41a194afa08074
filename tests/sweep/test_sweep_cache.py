"""Tests for the shared compiled-table cache, its keys and the simulator factory."""

import numpy as np
import pytest

from repro.accelerator.array import ArrayConfig
from repro.core.communication import CommunicationModel
from repro.core.costs import TableCache, table_cache_key
from repro.core.hierarchical import HierarchicalPartitioner
from repro.core.tensors import ScalingMode
from repro.nn.model_zoo import lenet_c, vgg_a
from repro.sim.training import TrainingSimulator
from repro.sweep.cache import (
    cached_simulator,
    clear_caches,
    runtime_cached,
    shared_table_cache,
)


class TestTableCacheKey:
    def test_equal_models_share_a_key(self):
        # Two separately built zoo models are structurally equal, so sweep
        # workers that unpickle their own copies still share cache entries.
        assert table_cache_key(lenet_c(), 256, 4) == table_cache_key(lenet_c(), 256, 4)

    def test_key_separates_every_axis(self):
        base = table_cache_key(lenet_c(), 256, 4)
        assert table_cache_key(vgg_a(), 256, 4) != base
        assert table_cache_key(lenet_c(), 128, 4) != base
        assert table_cache_key(lenet_c(), 256, 3) != base
        assert table_cache_key(lenet_c(), 256, 4, scaling_mode="uniform") != base
        assert table_cache_key(lenet_c(), 256, 4, strategies="dp,mp,pp") != base
        assert (
            table_cache_key(
                lenet_c(), 256, 4, communication_model=CommunicationModel(bytes_per_element=2)
            )
            != base
        )

    def test_table_reports_its_own_key(self):
        partitioner = HierarchicalPartitioner(num_levels=2)
        table = partitioner.compile_table(lenet_c(), 64)
        assert table.cache_key == table_cache_key(lenet_c(), 64, 2)


class TestTableCache:
    def test_hit_and_miss_counters(self):
        cache = TableCache()
        first = cache.get_or_compile(lenet_c(), 64, 2)
        again = cache.get_or_compile(lenet_c(), 64, 2)
        assert first is again
        assert cache.stats() == {
            "hits": 1,
            "misses": 1,
            "size": 1,
            "evictions": 0,
            "hit_rate": 0.5,
        }

    def test_compilation_happens_once_per_configuration_not_per_point(self):
        cache = TableCache()
        for _ in range(5):
            cache.get_or_compile(lenet_c(), 64, 2)
        assert cache.misses == 1
        assert cache.hits == 4

    def test_distinct_configurations_compile_separately(self):
        cache = TableCache()
        cache.get_or_compile(lenet_c(), 64, 2)
        cache.get_or_compile(lenet_c(), 128, 2)
        assert cache.stats() == {
            "hits": 0,
            "misses": 2,
            "size": 2,
            "evictions": 0,
            "hit_rate": 0.0,
        }

    def test_limit_flushes(self):
        cache = TableCache(limit=1)
        cache.get_or_compile(lenet_c(), 64, 2)
        cache.get_or_compile(lenet_c(), 128, 2)
        assert len(cache) == 1
        assert cache.evictions == 1
        assert cache.stats()["evictions"] == 1

    def test_rejects_non_positive_limit(self):
        with pytest.raises(ValueError):
            TableCache(limit=0)

    def test_cached_tables_are_float_identical_to_fresh_compiles(self):
        cache = TableCache()
        cached = cache.get_or_compile(lenet_c(), 64, 2)
        fresh = HierarchicalPartitioner(num_levels=2).compile_table(lenet_c(), 64)
        codes = np.arange(1 << fresh.total_digits)
        np.testing.assert_array_equal(cached.score_codes(codes), fresh.score_codes(codes))


class TestSharedCacheWiring:
    def test_simulator_and_partitioner_share_one_compilation(self):
        cache = TableCache()
        model = lenet_c()
        simulator = TrainingSimulator(table_cache=cache)
        partitioner = HierarchicalPartitioner(num_levels=4)
        sim_table = simulator.cost_table(model, 256)
        search_table = partitioner.compile_table(model, 256, table_cache=cache)
        assert sim_table is search_table
        assert cache.stats() == {
            "hits": 1,
            "misses": 1,
            "size": 1,
            "evictions": 0,
            "hit_rate": 0.5,
        }

    def test_simulate_accepts_the_shared_table_for_an_equal_model(self):
        # The cache hands out tables keyed structurally; a caller holding a
        # *different but equal* model object (e.g. unpickled in a worker)
        # must be able to thread the table through simulate().
        cache = TableCache()
        simulator = TrainingSimulator(table_cache=cache)
        table = simulator.cost_table(lenet_c(), 64)
        other_copy = lenet_c()
        partitioner = HierarchicalPartitioner(num_levels=4)
        assignment = partitioner.partition(other_copy, 64, table=table).assignment
        report = simulator.simulate(other_copy, assignment, 64, cost_table=table)
        assert report.step_seconds > 0


class TestProcessGlobalCaches:
    def test_shared_table_cache_is_a_singleton(self):
        assert shared_table_cache() is shared_table_cache()

    def test_runtime_cached_memoizes_by_key(self):
        clear_caches()
        calls = []

        def factory():
            calls.append(1)
            return object()

        first = runtime_cached(("test-key", 1), factory)
        second = runtime_cached(("test-key", 1), factory)
        assert first is second
        assert len(calls) == 1
        assert runtime_cached(("test-key", 2), factory) is not first
        clear_caches()


class TestCachedSimulator:
    """One simulator per platform, however the platform is spelled."""

    ARRAY = ArrayConfig(num_accelerators=8)

    def test_equal_platforms_share_one_simulator(self):
        simulator = cached_simulator(self.ARRAY)
        assert cached_simulator(self.ARRAY, strategies="dp,mp") is simulator
        assert cached_simulator(self.ARRAY, scaling_mode="parallelism-aware") is simulator
        assert (
            cached_simulator(self.ARRAY, scaling_mode=ScalingMode.PARALLELISM_AWARE)
            is simulator
        )
        assert (
            cached_simulator(self.ARRAY, communication_model=CommunicationModel())
            is simulator
        )
        assert cached_simulator(ArrayConfig(num_accelerators=8)) is simulator

    def test_distinct_platforms_get_distinct_simulators(self):
        simulator = cached_simulator(self.ARRAY)
        others = [
            cached_simulator(ArrayConfig(num_accelerators=16)),
            cached_simulator(ArrayConfig(num_accelerators=8, link_bandwidth_bits=3.2e9)),
            cached_simulator(self.ARRAY, "torus"),
            cached_simulator(self.ARRAY, sim_engine="network"),
            cached_simulator(
                self.ARRAY, communication_model=CommunicationModel(bytes_per_element=2)
            ),
            cached_simulator(self.ARRAY, scaling_mode="uniform"),
            cached_simulator(self.ARRAY, strategies="dp,mp,pp"),
        ]
        assert len({id(other) for other in [simulator, *others]}) == len(others) + 1

    def test_builds_the_named_topology(self):
        assert cached_simulator(self.ARRAY).topology.name == "h-tree"
        assert cached_simulator(self.ARRAY, "torus").topology.name == "torus"

    def test_single_accelerator_gets_no_topology(self):
        single = ArrayConfig(num_accelerators=1)
        simulator = cached_simulator(single)
        assert simulator.topology is None
        assert cached_simulator(single, "torus") is simulator

    def test_simulators_compile_into_the_shared_table_cache(self):
        assert cached_simulator(self.ARRAY).table_cache is shared_table_cache()

    def test_clear_caches_drops_the_simulators(self):
        simulator = cached_simulator(self.ARRAY)
        clear_caches()
        assert cached_simulator(self.ARRAY) is not simulator
