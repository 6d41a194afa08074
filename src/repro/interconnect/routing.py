"""Routing helpers shared by the topology models.

These utilities answer structural questions about a topology that the
simulator and the topology studies need: shortest paths between
accelerators, bisection bandwidth, and link-load estimates when a
hierarchical traffic pattern is mapped onto the physical links.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.interconnect.topology import Topology, hierarchical_groups


def shortest_path_hops(topology: Topology, source: int, destination: int) -> int:
    """Number of link hops on the shortest path between two accelerators."""
    return int(topology.hops(source, destination))


def bisection_bandwidth(topology: Topology) -> float:
    """Bandwidth crossing the top-level bisection of the array (bytes/s)."""
    pairs = hierarchical_groups(topology.num_accelerators, 0)
    left, right = pairs[0]
    return topology._cut_bandwidth(left, right)


def pairwise_hop_matrix(topology: Topology) -> Dict[Tuple[int, int], int]:
    """Hop counts between every ordered pair of accelerators."""
    accelerators = np.arange(topology.num_accelerators)
    matrix = topology.hops(accelerators[:, None], accelerators[None, :]).tolist()
    return {
        (a, b): matrix[a][b]
        for a in range(topology.num_accelerators)
        for b in range(topology.num_accelerators)
        if a != b
    }


def link_loads(
    topology: Topology,
    traffic_bytes_per_level: Sequence[float],
) -> Dict[Tuple, float]:
    """Bytes carried by each physical link for a hierarchical traffic pattern.

    ``traffic_bytes_per_level[h]`` is the traffic crossing *one* pair
    boundary at hierarchy level ``h``.  The traffic of every boundary at
    every level is routed over shortest paths (split evenly across the
    members of the two groups) and accumulated per link.  The result lets a
    study check how evenly a topology spreads HyPar's traffic.
    """
    loads: Dict[Tuple, float] = {
        tuple(sorted((u, v), key=str)): 0.0 for u, v, _ in topology.links()
    }
    for level, traffic in enumerate(traffic_bytes_per_level):
        if traffic < 0:
            raise ValueError("traffic volumes must be non-negative")
        if traffic == 0:
            continue
        for left, right in hierarchical_groups(topology.num_accelerators, level):
            num_flows = len(left) * len(right)
            per_flow = traffic / num_flows
            for a in left:
                for b in right:
                    path = topology.route(a, b)
                    for u, v in zip(path, path[1:]):
                        key = tuple(sorted((u, v), key=str))
                        loads[key] += per_flow
    return loads


def max_link_load(
    topology: Topology,
    traffic_bytes_per_level: Sequence[float],
) -> float:
    """The most-loaded link's traffic for a hierarchical pattern (bytes)."""
    loads = link_loads(topology, traffic_bytes_per_level)
    return max(loads.values()) if loads else 0.0
