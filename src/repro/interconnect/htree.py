"""H-tree (fat-tree) interconnect.

Figure 4(c) of the paper connects the sixteen accelerators with an H tree.
Physically it is a fat tree: switches sit at the parent nodes, and the
bandwidth between groups at a higher hierarchy level is doubled compared to
the level below (while the number of links is halved), so every level of
the tree has the same aggregate bisection bandwidth.  This matches the
communication pattern produced by the hierarchical partition exactly, which
is why the paper prefers it over the torus.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.interconnect.topology import Link, Topology


class HTreeTopology(Topology):
    """Fat-tree / H-tree interconnect matched to the hierarchical partition.

    Level ``num_levels - 1`` (the deepest level, pairs of individual
    accelerators) uses single links of the base bandwidth; each level above
    doubles the per-boundary bandwidth.
    """

    name = "h-tree"

    def _lay_links(self) -> Iterator[Link]:
        # The binary tree bottom-up: leaf links carry the base bandwidth,
        # and every level up doubles the link bandwidth.
        current_level_nodes: list = list(range(self.num_accelerators))
        bandwidth = self.link_bandwidth_bytes
        depth = 0
        while len(current_level_nodes) > 1:
            next_level_nodes = []
            for pair_index in range(0, len(current_level_nodes), 2):
                switch = f"switch_d{depth}_{pair_index // 2}"
                yield current_level_nodes[pair_index], switch, bandwidth
                yield current_level_nodes[pair_index + 1], switch, bandwidth
                next_level_nodes.append(switch)
            current_level_nodes = next_level_nodes
            bandwidth *= 2
            depth += 1

    def hops(self, a, b) -> np.ndarray:
        """Up to the lowest common switch and back down: ``2 * bit_length(a ^ b)``.

        Leaves ``a`` and ``b`` first share a switch at the depth of the
        highest bit in which their indices differ.
        """
        # frexp's exponent of a positive integer is its bit length (0 for 0).
        return 2 * np.frexp(np.bitwise_xor(a, b))[1]

    def _compute_effective_pair_bandwidth(self, level: int) -> float:
        """Per-boundary bandwidth: doubles for every level above the deepest.

        With ``H`` levels, the deepest level (``H-1``) gets the base link
        bandwidth and level ``h`` gets ``2**(H-1-h)`` times that, exactly the
        "doubled bandwidth, halved link count" fat-tree rule of Section
        6.5.1.  Because the tree dedicates those links to that boundary,
        no contention discount is applied.
        """
        return self.link_bandwidth_bytes * (2 ** (self.num_levels - 1 - level))
