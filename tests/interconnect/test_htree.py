"""Tests for the H-tree (fat-tree) topology."""

import pytest

from repro.interconnect.htree import HTreeTopology

LINK = 200e6


class TestStructure:
    def test_switch_count_for_sixteen_leaves(self):
        topology = HTreeTopology(16, LINK)
        switches = [node for node in topology.adjacency if node not in range(16)]
        # A binary tree over 16 leaves has 15 internal nodes.
        assert len(switches) == 15

    def test_every_accelerator_is_a_leaf(self):
        topology = HTreeTopology(16, LINK)
        for index in range(16):
            assert len(topology.adjacency[index]) == 1

    def test_link_bandwidth_doubles_towards_the_root(self):
        topology = HTreeTopology(8, LINK)
        bandwidths = sorted({bandwidth for _, _, bandwidth in topology.links()})
        assert bandwidths == [LINK, 2 * LINK, 4 * LINK]


class TestEffectiveBandwidth:
    def test_deepest_level_gets_base_link_bandwidth(self):
        topology = HTreeTopology(16, LINK)
        assert topology.effective_pair_bandwidth(3) == pytest.approx(LINK)

    def test_bandwidth_doubles_per_level_upward(self):
        """Section 6.5.1: bandwidth between groups in a higher hierarchy is doubled."""
        topology = HTreeTopology(16, LINK)
        for level in range(3):
            assert topology.effective_pair_bandwidth(level) == pytest.approx(
                2 * topology.effective_pair_bandwidth(level + 1)
            )

    def test_top_level_bandwidth(self):
        topology = HTreeTopology(16, LINK)
        assert topology.effective_pair_bandwidth(0) == pytest.approx(8 * LINK)

    def test_aggregate_bandwidth_equal_across_levels(self):
        """Doubled bandwidth but halved link count keeps per-level totals equal."""
        topology = HTreeTopology(16, LINK)
        totals = [
            topology.effective_pair_bandwidth(level) * (1 << level) for level in range(4)
        ]
        assert all(total == pytest.approx(totals[0]) for total in totals)


class TestHops:
    def test_deepest_level_hop_count(self):
        """Adjacent accelerators communicate through one switch: two hops."""
        topology = HTreeTopology(16, LINK)
        assert topology.average_hops(3) == pytest.approx(2.0)

    def test_hops_increase_towards_the_root(self):
        topology = HTreeTopology(16, LINK)
        hops = [topology.average_hops(level) for level in range(4)]
        assert hops == sorted(hops, reverse=True)

    def test_top_level_hops_bounded_by_tree_depth(self):
        topology = HTreeTopology(16, LINK)
        # The longest leaf-to-leaf path in a 4-level binary tree is 8 hops.
        assert topology.average_hops(0) <= 8.0
