"""2-D torus interconnect.

Figure 4(d) of the paper connects the sixteen accelerators with a 4x4
torus.  Every physical link has the same bandwidth, and the hierarchical
traffic pattern produced by the partition must be mapped onto the mesh:
words exchanged between two groups traverse multiple hops and compete for
intermediate links, so the torus delivers less effective bandwidth to a
pair boundary than the H tree even when the raw cut capacity is the same.
The paper observes exactly this (gmean speedup 2.23x on the torus versus
3.39x on the H tree).
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from repro.interconnect.topology import Link, Topology, hierarchical_groups


def _grid_dimensions(num_accelerators: int) -> tuple[int, int]:
    """Closest-to-square ``rows x cols`` factorisation of the array size."""
    rows = int(math.isqrt(num_accelerators))
    while rows > 1 and num_accelerators % rows:
        rows -= 1
    return rows, num_accelerators // rows


class TorusTopology(Topology):
    """2-D torus with row-major placement of accelerators.

    By default accelerator ``i`` sits at grid position
    ``(i // cols, i % cols)``; the hierarchical groups of the partition
    therefore correspond to contiguous blocks of rows/columns, the natural
    placement a system integrator would choose.  ``placement`` overrides
    this: ``placement[i]`` is the row-major grid cell accelerator ``i``
    occupies, so scrambled or legacy floorplans -- where the pair
    boundaries of one hierarchy level are *not* isomorphic -- can be
    modelled too.
    """

    name = "torus"

    def __init__(
        self,
        num_accelerators: int,
        link_bandwidth_bytes: float,
        placement: Sequence[int] | None = None,
    ) -> None:
        super().__init__(num_accelerators, link_bandwidth_bytes)
        self.rows, self.cols = _grid_dimensions(num_accelerators)
        if placement is None:
            self.placement: tuple[int, ...] = tuple(range(num_accelerators))
        else:
            self.placement = tuple(int(cell) for cell in placement)
            if sorted(self.placement) != list(range(num_accelerators)):
                raise ValueError(
                    "placement must be a permutation of the grid cells "
                    f"0..{num_accelerators - 1}, got {placement!r}"
                )
        cells = np.array(self.placement)
        self._grid_rows = cells // self.cols
        self._grid_cols = cells % self.cols

    def _lay_links(self) -> Iterator[Link]:
        occupant = {cell: index for index, cell in enumerate(self.placement)}
        for index, cell in enumerate(self.placement):
            row, col = divmod(cell, self.cols)
            right = occupant[row * self.cols + (col + 1) % self.cols]
            down = occupant[((row + 1) % self.rows) * self.cols + col]
            # A ring of two nodes lays its one link from both ends; only the
            # first counts, which is the correct physical model (a single
            # link, not two).  A ring of one node has no link at all.
            if right != index:
                yield index, right, self.link_bandwidth_bytes
            if down != index:
                yield index, down, self.link_bandwidth_bytes

    def hops(self, a, b) -> np.ndarray:
        """Wrap-around Manhattan distance between the two grid cells."""
        rows = np.abs(self._grid_rows[a] - self._grid_rows[b])
        cols = np.abs(self._grid_cols[a] - self._grid_cols[b])
        return np.minimum(rows, self.rows - rows) + np.minimum(cols, self.cols - cols)

    def _direct_cuts(self, level: int) -> list[float]:
        """Bandwidth of the links joining the two groups of every boundary.

        Only links whose endpoints lie in the two groups count: the rest of
        the mesh is busy carrying the other boundaries' traffic at the same
        level.  One pass over the links serves every boundary of the level;
        each boundary adds its links in link order.
        """
        # Two accelerators sit on opposite sides of one boundary exactly
        # when the highest bit in which their indices differ is the
        # level's half-group bit.
        half_bit = self.num_levels - level - 1
        cuts = [0.0] * (1 << level)
        for u, v, bandwidth in self.links():
            if (u ^ v) >> half_bit == 1:
                cuts[u >> (half_bit + 1)] += bandwidth
        return cuts

    def _compute_effective_pair_bandwidth(self, level: int) -> float:
        """Bandwidth joining the two groups of a boundary, discounted by path length.

        For each boundary only the links whose both endpoints belong to the
        pair are counted (the rest of the mesh is busy carrying the other
        boundaries' traffic at the same level), and every word exchanged
        occupies on average that boundary's mean hop count of physical
        links, so the usable throughput of the boundary is its direct cut
        capacity divided by the hop count.  The level's figure is the mean
        over *all* boundaries of the level -- a level's pairs need not be
        isomorphic (a scrambled placement on a rectangular grid breaks the
        translate symmetry), so deriving the level metric from the first
        pair alone would mis-price every other boundary.  This is what
        makes the torus lose to the H tree: the binary-tree traffic pattern
        of the hierarchical partition is served by dedicated fat-tree
        links, while on the mesh it zig-zags across shared ones.
        """
        pairs = hierarchical_groups(self.num_accelerators, level)
        values = []
        for (left, right), cut, hops in zip(
            pairs, self._direct_cuts(level), self._boundary_mean_hops(level)
        ):
            if cut <= 0:
                # Degenerate placement with no direct link between the
                # groups: fall back to the whole-array cut, still discounted
                # by distance.
                cut = self._cut_bandwidth(left, right)
            values.append(cut / max(1.0, hops))
        return self._mean_over_boundaries(values)
