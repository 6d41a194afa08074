"""Interconnect topology abstraction.

The hierarchical partition produces, per hierarchy level, a set of *pair
boundaries*: at level ``h`` the array is divided into ``2**h`` sub-arrays,
and each sub-array is split into two halves that exchange the tensors
dictated by the communication model.  A topology's job is to say

* how much bandwidth one such pair boundary can use
  (:meth:`Topology.effective_pair_bandwidth`), and
* how many physical link hops an average word of that traffic traverses
  (:meth:`Topology.average_hops`), which feeds the energy model.

Concrete topologies (:class:`~repro.interconnect.htree.HTreeTopology` and
:class:`~repro.interconnect.torus.TorusTopology`) lay out their physical
links once, as a plain adjacency of accelerators, switches and links, and
give the hop count between two accelerators in closed form
(:meth:`Topology.hops`, vectorized over NumPy index arrays).
:meth:`Topology.route` walks the adjacency for the explicit paths the
network simulator and the link-load studies need.
"""

from __future__ import annotations

import abc
from typing import Hashable, Iterable, Sequence

import numpy as np

#: A node of the physical graph: an accelerator index ``0..N-1`` or a
#: topology-specific switch label.
Node = Hashable
#: One physical link: both endpoints and its bandwidth in bytes per second.
Link = tuple[Node, Node, float]


def hierarchical_groups(num_accelerators: int, level: int) -> list[tuple[list[int], list[int]]]:
    """The pair boundaries of hierarchy ``level`` for an array of ``num_accelerators``.

    The array is indexed 0..N-1 and recursively halved by index ranges (the
    binary-tree pattern of Figure 3): at level 0 the single pair is
    ``([0..N/2-1], [N/2..N-1])``; at level 1 there are two pairs, one inside
    each half; and so on.

    Returns a list of ``(left_group, right_group)`` tuples, one per pair
    boundary at that level.
    """
    if num_accelerators <= 1 or num_accelerators & (num_accelerators - 1):
        raise ValueError(
            f"num_accelerators must be a power of two >= 2, got {num_accelerators}"
        )
    num_groups = 1 << level
    group_size = num_accelerators // num_groups
    if group_size < 2:
        raise ValueError(
            f"level {level} is too deep for {num_accelerators} accelerators"
        )
    pairs = []
    for group in range(num_groups):
        start = group * group_size
        half = group_size // 2
        left = list(range(start, start + half))
        right = list(range(start + half, start + group_size))
        pairs.append((left, right))
    return pairs


def _bidirectional_search(
    adjacency: dict, source: Node, target: Node
) -> tuple[dict, dict, Node]:
    """Breadth-first search from both ends until the two frontiers meet.

    A line-for-line port of networkx's ``_bidirectional_pred_succ`` (the
    search behind ``nx.shortest_path`` on an unweighted graph): the smaller
    frontier expands first and neighbours are visited in adjacency order,
    so on a topology with tied shortest paths the same path wins.  Returns
    the forward predecessors, the reverse successors and the meeting node.
    """
    if source == target:
        return {target: None}, {source: None}, source
    pred = {source: None}
    succ = {target: None}
    forward_fringe = [source]
    reverse_fringe = [target]
    while forward_fringe and reverse_fringe:
        if len(forward_fringe) <= len(reverse_fringe):
            this_level = forward_fringe
            forward_fringe = []
            for v in this_level:
                for w in adjacency[v]:
                    if w not in pred:
                        forward_fringe.append(w)
                        pred[w] = v
                    if w in succ:
                        return pred, succ, w
        else:
            this_level = reverse_fringe
            reverse_fringe = []
            for v in this_level:
                for w in adjacency[v]:
                    if w not in succ:
                        succ[w] = v
                        reverse_fringe.append(w)
                    if w in pred:
                        return pred, succ, w
    raise ValueError(f"no path between {source!r} and {target!r}")


class Topology(abc.ABC):
    """Base class for accelerator-array interconnect topologies.

    Parameters
    ----------
    num_accelerators:
        Number of accelerators (a power of two).
    link_bandwidth_bytes:
        Bandwidth of one physical link in bytes per second.
    """

    #: Human-readable topology name used in reports.
    name: str = "abstract"

    def __init__(self, num_accelerators: int, link_bandwidth_bytes: float) -> None:
        if num_accelerators <= 1 or num_accelerators & (num_accelerators - 1):
            raise ValueError(
                f"num_accelerators must be a power of two >= 2, got {num_accelerators}"
            )
        if link_bandwidth_bytes <= 0:
            raise ValueError("link_bandwidth_bytes must be positive")
        self.num_accelerators = num_accelerators
        self.link_bandwidth_bytes = link_bandwidth_bytes
        self._adjacency: dict | None = None
        self._links: tuple[Link, ...] | None = None
        # The links are immutable once laid out, and the simulator asks for
        # the same per-level quantities for every communication task of
        # every simulated step, so each level is computed once.
        self._hops_cache: dict[int, float] = {}
        self._bandwidth_cache: dict[int, float] = {}

    # ------------------------------------------------------------------
    # Structure.
    # ------------------------------------------------------------------

    @property
    def num_levels(self) -> int:
        """Number of hierarchy levels supported by this array size."""
        return self.num_accelerators.bit_length() - 1

    @abc.abstractmethod
    def _lay_links(self) -> Iterable[Link]:
        """Yield the physical links in the order the topology lays them.

        A link may be yielded twice (a ring of two nodes closes on the link
        it started from); only its first occurrence counts.
        """

    def _build(self) -> None:
        # Accelerators first, then switches in order of first appearance;
        # each node's neighbours in the order its links were laid.
        adjacency: dict = {index: {} for index in range(self.num_accelerators)}
        links = []
        for u, v, bandwidth in self._lay_links():
            if v in adjacency.setdefault(u, {}):
                continue
            adjacency[u][v] = bandwidth
            adjacency.setdefault(v, {})[u] = bandwidth
            links.append((u, v, bandwidth))
        self._adjacency = adjacency
        self._links = tuple(links)

    @property
    def adjacency(self) -> dict:
        """``node -> {neighbour: link bandwidth}`` of the physical graph.

        Accelerator nodes are the integers ``0..N-1``; topology-specific
        switch nodes carry other labels.  Neighbours are listed in the
        order their links were laid, which fixes how :meth:`route` breaks
        ties between equally short paths.
        """
        if self._adjacency is None:
            self._build()
        return self._adjacency

    def links(self) -> tuple[Link, ...]:
        """Every physical link once, as ``(u, v, bandwidth)`` in laying order."""
        if self._links is None:
            self._build()
        return self._links

    @abc.abstractmethod
    def hops(self, a, b) -> np.ndarray:
        """Shortest-path link count between accelerators ``a`` and ``b``.

        Closed form, vectorized: ``a`` and ``b`` are accelerator indices or
        integer arrays of them, broadcast against each other.
        """

    def route(self, source: Node, target: Node) -> list:
        """A shortest path from ``source`` to ``target``, both ends included.

        The path is the one ``networkx.shortest_path`` returns on a graph
        built from :meth:`links` in order; the network simulator's pinned
        outputs depend on which of several tied paths that is.
        """
        adjacency = self.adjacency
        for node in (source, target):
            if node not in adjacency:
                raise KeyError(f"{node!r} is not a node of the {self.name} topology")
        pred, succ, node = _bidirectional_search(adjacency, source, target)
        path = []
        while node is not None:
            path.append(node)
            node = pred[node]
        path.reverse()
        node = succ[path[-1]]
        while node is not None:
            path.append(node)
            node = succ[node]
        return path

    # ------------------------------------------------------------------
    # Quantities consumed by the simulator.
    # ------------------------------------------------------------------

    def effective_pair_bandwidth(self, level: int) -> float:
        """Bandwidth (bytes/s) usable by one pair boundary at ``level``.

        Memoized per level: the value only depends on the (immutable) links.
        """
        self._check_level(level)
        if level not in self._bandwidth_cache:
            self._bandwidth_cache[level] = self._compute_effective_pair_bandwidth(level)
        return self._bandwidth_cache[level]

    def average_hops(self, level: int) -> float:
        """Average physical link hops for one word exchanged at ``level``.

        The mean shortest-path hop count between the two groups of a
        boundary, averaged over every boundary of the level.  Every
        boundary pairs the same number of accelerators, so the unweighted
        mean over boundaries equals the mean over all exchanged words.
        Memoized per level.
        """
        self._check_level(level)
        if level not in self._hops_cache:
            self._hops_cache[level] = self._mean_over_boundaries(
                self._boundary_mean_hops(level)
            )
        return self._hops_cache[level]

    @abc.abstractmethod
    def _compute_effective_pair_bandwidth(self, level: int) -> float:
        """Uncached per-boundary bandwidth (bytes/s) at ``level``."""

    # ------------------------------------------------------------------
    # Shared helpers for the derived metrics.
    # ------------------------------------------------------------------

    def _check_level(self, level: int) -> None:
        if not 0 <= level < self.num_levels:
            raise ValueError(
                f"level {level} out of range for {self.num_accelerators} accelerators"
            )

    def _boundary_mean_hops(self, level: int) -> list[float]:
        """Mean hop count between the two groups of every boundary at ``level``.

        The per-boundary hop total is an exact integer, so each mean is the
        same float the pair-by-pair sum gives.
        """
        half = self.num_accelerators >> (level + 1)
        groups = np.arange(self.num_accelerators).reshape(-1, 2, half)
        totals = self.hops(groups[:, 0, :, None], groups[:, 1, None, :]).sum(axis=(1, 2))
        return (totals / (half * half)).tolist()

    @staticmethod
    def _mean_over_boundaries(values: Sequence[float]) -> float:
        # Where every boundary of a level is a translate of the first, the
        # values coincide; returning the common value directly keeps those
        # metrics bit-identical to the single-boundary computation (no
        # sum/divide rounding).
        if all(value == values[0] for value in values):
            return values[0]
        return sum(values) / len(values)

    def _distances_from(self, sources: Iterable[Node]) -> dict:
        """Hop count from the nearest of ``sources`` to every node."""
        adjacency = self.adjacency
        distance = dict.fromkeys(sources, 0)
        fringe = list(distance)
        while fringe:
            next_fringe = []
            for node in fringe:
                for neighbour in adjacency[node]:
                    if neighbour not in distance:
                        distance[neighbour] = distance[node] + 1
                        next_fringe.append(neighbour)
            fringe = next_fringe
        return distance

    def _cut_bandwidth(self, left: Sequence[int], right: Sequence[int]) -> float:
        """Aggregate bandwidth of the links crossing a node bipartition.

        Nodes outside the two groups (switches, other accelerators) are
        assigned to the side whose accelerators they are closer to, ties
        to the left; links between two such nodes on different sides also
        count.
        """
        to_left = self._distances_from(left)
        to_right = self._distances_from(right)
        left_side = {node for node in self.adjacency if to_left[node] <= to_right[node]}
        capacity = 0.0
        for u, v, bandwidth in self.links():
            if (u in left_side) != (v in left_side):
                capacity += bandwidth
        return capacity

    def describe(self) -> str:
        """One-line description used in reports."""
        return (
            f"{self.name}: {self.num_accelerators} accelerators, "
            f"{self.link_bandwidth_bytes * 8 / 1e6:.0f} Mb/s links"
        )
