"""Tests for the 2-D torus topology."""

import pytest

from repro.interconnect.htree import HTreeTopology
from repro.interconnect.topology import hierarchical_groups
from repro.interconnect.torus import TorusTopology, _grid_dimensions

LINK = 200e6


class TestGridDimensions:
    @pytest.mark.parametrize(
        "count,expected",
        [(4, (2, 2)), (8, (2, 4)), (16, (4, 4)), (64, (8, 8)), (32, (4, 8))],
    )
    def test_closest_to_square_factorisation(self, count, expected):
        assert _grid_dimensions(count) == expected


class TestStructure:
    def test_4x4_torus_degree(self):
        topology = TorusTopology(16, LINK)
        for index in range(16):
            assert len(topology.adjacency[index]) == 4

    def test_4x4_torus_edge_count(self):
        # 2 links per node in a 2-D torus (right + down), no duplicates.
        topology = TorusTopology(16, LINK)
        assert len(topology.links()) == 32

    def test_all_links_have_uniform_bandwidth(self):
        topology = TorusTopology(16, LINK)
        bandwidths = {bandwidth for _, _, bandwidth in topology.links()}
        assert bandwidths == {LINK}

    def test_wraparound_links_exist(self):
        topology = TorusTopology(16, LINK)
        # Node 0 (row 0, col 0) connects to node 3 (row 0, col 3) and node 12.
        assert 3 in topology.adjacency[0]
        assert 12 in topology.adjacency[0]

    def test_small_2x2_torus_has_no_duplicate_edges(self):
        topology = TorusTopology(4, LINK)
        assert len(topology.links()) == 4


class TestEffectiveBandwidth:
    def test_bandwidth_positive_at_every_level(self):
        topology = TorusTopology(16, LINK)
        for level in range(4):
            assert topology.effective_pair_bandwidth(level) > 0

    def test_torus_never_beats_htree_at_any_level(self):
        """The mismatch with the binary-tree traffic pattern (Section 6.5.1)."""
        torus = TorusTopology(16, LINK)
        htree = HTreeTopology(16, LINK)
        for level in range(4):
            assert torus.effective_pair_bandwidth(level) <= htree.effective_pair_bandwidth(
                level
            ) + 1e-9

    def test_torus_strictly_worse_at_the_top_level(self):
        torus = TorusTopology(16, LINK)
        htree = HTreeTopology(16, LINK)
        assert torus.effective_pair_bandwidth(0) < htree.effective_pair_bandwidth(0)

    def test_deepest_level_uses_the_direct_link(self):
        topology = TorusTopology(16, LINK)
        # Adjacent accelerators share exactly one physical link, one hop away.
        assert topology.effective_pair_bandwidth(3) == pytest.approx(LINK)
        assert topology.average_hops(3) == pytest.approx(1.0)


class TestHops:
    def test_hops_grow_with_group_distance(self):
        topology = TorusTopology(16, LINK)
        assert topology.average_hops(0) > topology.average_hops(3)

    def test_hops_bounded_by_torus_diameter(self):
        topology = TorusTopology(16, LINK)
        # A 4x4 torus has diameter 4.
        for level in range(4):
            assert topology.average_hops(level) <= 4.0


def _mean_pair_distance(topology: TorusTopology, left, right) -> float:
    """Mean hop count between the two groups, pair by pair."""
    total = sum(int(topology.hops(a, b)) for a in left for b in right)
    return total / (len(left) * len(right))


def _direct_cut_bandwidth(topology: TorusTopology, left, right) -> float:
    """Bandwidth of the links with one end in each group."""
    return sum(
        bandwidth
        for u, v, bandwidth in topology.links()
        if (u in left and v in right) or (u in right and v in left)
    )


def _boundary_mean_metrics(topology: TorusTopology, level: int) -> tuple[float, float]:
    """Independent recomputation: metrics averaged over every pair boundary."""
    pairs = hierarchical_groups(topology.num_accelerators, level)
    bandwidths = []
    hop_counts = []
    for left, right in pairs:
        cut = _direct_cut_bandwidth(topology, left, right)
        if cut <= 0:
            cut = topology._cut_bandwidth(left, right)
        hops = _mean_pair_distance(topology, left, right)
        bandwidths.append(cut / max(1.0, hops))
        hop_counts.append(hops)
    return sum(bandwidths) / len(bandwidths), sum(hop_counts) / len(hop_counts)


class TestBoundaryAveraging:
    """Level metrics must average over *all* boundaries, not just ``pairs[0]``.

    The historical implementation derived both metrics from the first pair
    boundary alone, implicitly assuming every boundary at a level is
    isomorphic.  That holds for the contiguous row-major placement (every
    boundary is a torus translate of the first) but breaks on rectangular
    tori with a non-contiguous placement, where different boundaries see
    different cut capacities and hop counts.
    """

    #: A fixed scrambled placement of 16 accelerators on the grid:
    #: hierarchical neighbours land in scattered cells, so the boundaries
    #: of levels 1-3 differ in both cut capacity and hop count.
    SCRAMBLED_16 = (3, 14, 7, 9, 13, 11, 4, 5, 12, 8, 1, 0, 15, 6, 2, 10)

    @pytest.mark.parametrize("num_accelerators", [8, 32])
    def test_rectangular_torus_metrics_average_all_boundaries(self, num_accelerators):
        """Regression: rectangular (non-square) grids report the boundary mean."""
        topology = TorusTopology(num_accelerators, LINK)
        assert topology.rows != topology.cols
        for level in range(topology.num_levels):
            expected_bandwidth, expected_hops = _boundary_mean_metrics(topology, level)
            assert topology.effective_pair_bandwidth(level) == pytest.approx(
                expected_bandwidth
            )
            assert topology.average_hops(level) == pytest.approx(expected_hops)

    def test_scrambled_placement_metrics_average_all_boundaries(self):
        """With non-isomorphic boundaries the first pair is not representative."""
        topology = TorusTopology(16, LINK, placement=self.SCRAMBLED_16)
        saw_asymmetry = False
        for level in range(topology.num_levels):
            expected_bandwidth, expected_hops = _boundary_mean_metrics(topology, level)
            assert topology.effective_pair_bandwidth(level) == pytest.approx(
                expected_bandwidth
            )
            assert topology.average_hops(level) == pytest.approx(expected_hops)

            # The old pairs[0]-only computation must disagree somewhere,
            # otherwise this test could not catch a regression to it.
            left, right = hierarchical_groups(16, level)[0]
            first_pair_hops = _mean_pair_distance(topology, left, right)
            if first_pair_hops != pytest.approx(expected_hops):
                saw_asymmetry = True
        assert saw_asymmetry

    def test_default_square_torus_unchanged_by_averaging(self):
        """Row-major boundaries are translates: the mean equals every pair's value."""
        topology = TorusTopology(16, LINK)
        for level in range(topology.num_levels):
            pairs = hierarchical_groups(16, level)
            per_pair = [_mean_pair_distance(topology, left, right) for left, right in pairs]
            assert all(hops == per_pair[0] for hops in per_pair)
            assert topology.average_hops(level) == per_pair[0]

    def test_placement_must_be_a_permutation(self):
        with pytest.raises(ValueError):
            TorusTopology(4, LINK, placement=(0, 0, 1, 2))

    def test_identity_placement_builds_the_same_graph(self):
        default = TorusTopology(16, LINK)
        explicit = TorusTopology(16, LINK, placement=tuple(range(16)))
        assert default.links() == explicit.links()
