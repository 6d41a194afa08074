"""Tests for the topology base machinery (hierarchical groups, cuts)."""

import pytest

from repro.interconnect.htree import HTreeTopology
from repro.interconnect.topology import hierarchical_groups
from repro.interconnect.torus import TorusTopology

LINK = 200e6  # bytes/s, the paper's 1600 Mb/s link


class TestHierarchicalGroups:
    def test_top_level_bisection(self):
        pairs = hierarchical_groups(16, 0)
        assert len(pairs) == 1
        left, right = pairs[0]
        assert left == list(range(0, 8))
        assert right == list(range(8, 16))

    def test_level_counts_double(self):
        for level in range(4):
            assert len(hierarchical_groups(16, level)) == 2**level

    def test_deepest_level_pairs_individual_accelerators(self):
        pairs = hierarchical_groups(16, 3)
        assert pairs[0] == ([0], [1])
        assert pairs[-1] == ([14], [15])

    def test_groups_partition_the_array(self):
        for level in range(4):
            members = []
            for left, right in hierarchical_groups(16, level):
                members.extend(left)
                members.extend(right)
            assert sorted(members) == list(range(16))

    def test_too_deep_level_rejected(self):
        with pytest.raises(ValueError):
            hierarchical_groups(8, 3)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            hierarchical_groups(12, 0)

    def test_single_accelerator_rejected(self):
        with pytest.raises(ValueError):
            hierarchical_groups(1, 0)


class TestTopologyCommonBehaviour:
    @pytest.mark.parametrize("topology_cls", [HTreeTopology, TorusTopology])
    def test_graph_contains_all_accelerators(self, topology_cls):
        topology = topology_cls(16, LINK)
        for index in range(16):
            assert index in topology.adjacency

    @pytest.mark.parametrize("topology_cls", [HTreeTopology, TorusTopology])
    def test_graph_is_connected(self, topology_cls):
        topology = topology_cls(16, LINK)
        assert set(topology._distances_from([0])) == set(topology.adjacency)

    @pytest.mark.parametrize("topology_cls", [HTreeTopology, TorusTopology])
    def test_effective_bandwidth_positive_at_every_level(self, topology_cls):
        topology = topology_cls(16, LINK)
        for level in range(topology.num_levels):
            assert topology.effective_pair_bandwidth(level) > 0

    @pytest.mark.parametrize("topology_cls", [HTreeTopology, TorusTopology])
    def test_average_hops_at_least_one(self, topology_cls):
        topology = topology_cls(16, LINK)
        for level in range(topology.num_levels):
            assert topology.average_hops(level) >= 1.0

    @pytest.mark.parametrize("topology_cls", [HTreeTopology, TorusTopology])
    def test_level_out_of_range_rejected(self, topology_cls):
        topology = topology_cls(16, LINK)
        with pytest.raises(ValueError):
            topology.effective_pair_bandwidth(4)
        with pytest.raises(ValueError):
            topology.average_hops(-1)

    @pytest.mark.parametrize("topology_cls", [HTreeTopology, TorusTopology])
    def test_invalid_construction_rejected(self, topology_cls):
        with pytest.raises(ValueError):
            topology_cls(12, LINK)
        with pytest.raises(ValueError):
            topology_cls(16, 0)
        with pytest.raises(ValueError):
            topology_cls(1, LINK)

    @pytest.mark.parametrize("topology_cls", [HTreeTopology, TorusTopology])
    def test_describe_mentions_name(self, topology_cls):
        topology = topology_cls(16, LINK)
        assert topology.name in topology.describe()


class TestBuildTopologyFactory:
    def test_factory_names(self):
        from repro.interconnect import build_topology

        assert isinstance(build_topology("h-tree", 16, LINK), HTreeTopology)
        assert isinstance(build_topology("htree", 16, LINK), HTreeTopology)
        assert isinstance(build_topology("Torus", 16, LINK), TorusTopology)

    def test_unknown_name_rejected(self):
        from repro.interconnect import build_topology

        with pytest.raises(KeyError):
            build_topology("hypercube", 16, LINK)
