"""Closed-form topology metrics and routes against networkx.

The topologies used to be networkx graphs whose metrics came from
all-pairs BFS.  They now keep a plain adjacency, give hop counts in closed
form and route with a port of networkx's bidirectional BFS.  This module
keeps the graph library as the oracle: the graphs the topologies used to
build, and the all-pairs formulas over them, are reproduced here, and
every quantity must match them exactly -- routes included, since the
network simulator's pinned outputs depend on which of several tied
shortest paths wins.
"""

from __future__ import annotations

import random

import networkx as nx
import numpy as np
import pytest

from repro.interconnect.htree import HTreeTopology
from repro.interconnect.routing import bisection_bandwidth
from repro.interconnect.topology import hierarchical_groups
from repro.interconnect.torus import TorusTopology

LINK = 200e6
SIZES = [2**exponent for exponent in range(1, 9)]  # 2 .. 256
#: Above this size, routes are checked on a fixed random sample of pairs.
EXHAUSTIVE_ROUTES = 64
ROUTE_SAMPLE = 400
SCRAMBLE_SEEDS = (1, 2)


def _scrambled_placement(num_accelerators: int, seed: int) -> list[int]:
    cells = list(range(num_accelerators))
    random.Random(seed).shuffle(cells)
    return cells


def _build(kind: str, num_accelerators: int):
    if kind == "htree":
        return HTreeTopology(num_accelerators, LINK)
    if kind == "torus":
        return TorusTopology(num_accelerators, LINK)
    seed = int(kind.rsplit("-", 1)[1])
    return TorusTopology(
        num_accelerators, LINK, placement=_scrambled_placement(num_accelerators, seed)
    )


CASES = [
    (kind, size)
    for size in SIZES
    for kind in ("htree", "torus", *(f"torus-scrambled-{seed}" for seed in SCRAMBLE_SEEDS))
]


# ----------------------------------------------------------------------
# The oracle: the graphs the topologies used to build, and the formulas
# the metrics used to be computed with over them.
# ----------------------------------------------------------------------


def reference_graph(topology) -> nx.Graph:
    """The networkx graph the topology built before it kept its own links."""
    graph = nx.Graph()
    graph.add_nodes_from(range(topology.num_accelerators), kind="accelerator")
    if isinstance(topology, HTreeTopology):
        current_level_nodes: list = list(range(topology.num_accelerators))
        bandwidth = topology.link_bandwidth_bytes
        depth = 0
        while len(current_level_nodes) > 1:
            next_level_nodes = []
            for pair_index in range(0, len(current_level_nodes), 2):
                switch = f"switch_d{depth}_{pair_index // 2}"
                graph.add_node(switch, kind="switch")
                graph.add_edge(current_level_nodes[pair_index], switch, bandwidth=bandwidth)
                graph.add_edge(
                    current_level_nodes[pair_index + 1], switch, bandwidth=bandwidth
                )
                next_level_nodes.append(switch)
            current_level_nodes = next_level_nodes
            bandwidth *= 2
            depth += 1
        return graph
    occupant = {cell: index for index, cell in enumerate(topology.placement)}
    for index in range(topology.num_accelerators):
        cell = topology.placement[index]
        row, col = cell // topology.cols, cell % topology.cols
        right = occupant[row * topology.cols + (col + 1) % topology.cols]
        down = occupant[((row + 1) % topology.rows) * topology.cols + col]
        if right != index:
            graph.add_edge(index, right, bandwidth=topology.link_bandwidth_bytes)
        if down != index:
            graph.add_edge(index, down, bandwidth=topology.link_bandwidth_bytes)
    return graph


def _mean_pair_distance(lengths, left, right) -> float:
    total = 0.0
    count = 0
    for a in left:
        for b in right:
            total += lengths[a][b]
            count += 1
    return total / count if count else 0.0


def _cut_bandwidth(graph, lengths, left, right) -> float:
    side: dict = {}
    left_set, right_set = set(left), set(right)
    for node in graph.nodes:
        if node in left_set:
            side[node] = "left"
        elif node in right_set:
            side[node] = "right"
    for node in graph.nodes:
        if node in side:
            continue
        to_left = min(lengths[node][acc] for acc in left_set)
        to_right = min(lengths[node][acc] for acc in right_set)
        side[node] = "left" if to_left <= to_right else "right"
    capacity = 0.0
    for u, v, data in graph.edges(data=True):
        if side[u] != side[v]:
            capacity += data["bandwidth"]
    return capacity


def _direct_cut_bandwidth(graph, left, right) -> float:
    left_set, right_set = set(left), set(right)
    capacity = 0.0
    for u, v, data in graph.edges(data=True):
        if (u in left_set and v in right_set) or (u in right_set and v in left_set):
            capacity += data["bandwidth"]
    return capacity


def _mean_over_boundaries(values) -> float:
    if all(value == values[0] for value in values):
        return values[0]
    return sum(values) / len(values)


def reference_average_hops(topology, lengths, level: int) -> float:
    pairs = hierarchical_groups(topology.num_accelerators, level)
    if isinstance(topology, HTreeTopology):
        left, right = pairs[0]
        return _mean_pair_distance(lengths, left, right)
    return _mean_over_boundaries(
        [_mean_pair_distance(lengths, left, right) for left, right in pairs]
    )


def reference_effective_pair_bandwidth(topology, graph, lengths, level: int) -> float:
    if isinstance(topology, HTreeTopology):
        return topology.link_bandwidth_bytes * (2 ** (topology.num_levels - 1 - level))
    values = []
    for left, right in hierarchical_groups(topology.num_accelerators, level):
        cut = _direct_cut_bandwidth(graph, left, right)
        if cut <= 0:
            cut = _cut_bandwidth(graph, lengths, left, right)
        hops = max(1.0, _mean_pair_distance(lengths, left, right))
        values.append(cut / hops)
    return _mean_over_boundaries(values)


def graph_from_links(topology) -> nx.Graph:
    """An ``nx.Graph`` built by inserting ``topology.links()`` in order."""
    graph = nx.Graph()
    graph.add_nodes_from(topology.adjacency)
    graph.add_weighted_edges_from(topology.links(), weight="bandwidth")
    return graph


def _ordered_adjacency(graph: nx.Graph) -> list:
    return [
        (node, [(neighbour, data["bandwidth"]) for neighbour, data in graph.adj[node].items()])
        for node in graph
    ]


class _Case:
    def __init__(self, kind: str, num_accelerators: int) -> None:
        self.topology = _build(kind, num_accelerators)
        self.graph = graph_from_links(self.topology)
        self.reference = reference_graph(self.topology)
        self.lengths = dict(nx.all_pairs_shortest_path_length(self.graph))


@pytest.fixture(scope="module", params=CASES, ids=[f"{kind}-{size}" for kind, size in CASES])
def case(request) -> _Case:
    return _Case(*request.param)


# ----------------------------------------------------------------------
# Structure.
# ----------------------------------------------------------------------


def test_links_rebuild_the_reference_graph_in_order(case):
    """Inserting ``links()`` in order gives the old graph: nodes, neighbour order, edges.

    On the H tree the laying order is networkx's edge order too.  On the
    torus a wrap-around link is laid from its far end, so the two orders
    differ there; the neighbour order, which fixes routes, matches
    everywhere.
    """
    assert _ordered_adjacency(case.graph) == _ordered_adjacency(case.reference)
    assert list(case.graph.edges(data="bandwidth")) == list(
        case.reference.edges(data="bandwidth")
    )
    assert [
        (node, list(neighbours.items()))
        for node, neighbours in case.topology.adjacency.items()
    ] == _ordered_adjacency(case.graph)
    links = case.topology.links()
    assert len({frozenset((u, v)) for u, v, _ in links}) == len(links)
    assert len(links) == case.graph.number_of_edges()
    if isinstance(case.topology, HTreeTopology):
        assert list(links) == list(case.graph.edges(data="bandwidth"))


# ----------------------------------------------------------------------
# Hop counts and routes.
# ----------------------------------------------------------------------


def test_hop_matrix_equals_all_pairs_bfs(case):
    size = case.topology.num_accelerators
    accelerators = np.arange(size)
    matrix = case.topology.hops(accelerators[:, None], accelerators[None, :])
    expected = [[case.lengths[a][b] for b in range(size)] for a in range(size)]
    assert np.array_equal(matrix, expected)


def _route_pairs(nodes: list, size: int) -> list:
    pairs = [(a, b) for a in nodes for b in nodes]
    if size <= EXHAUSTIVE_ROUTES:
        return pairs
    return random.Random(size).sample(pairs, ROUTE_SAMPLE)


def test_routes_equal_networkx_shortest_path(case):
    """Ties between equally short paths break exactly as networkx breaks them."""
    nodes = list(case.graph)
    for a, b in _route_pairs(nodes, case.topology.num_accelerators):
        assert case.topology.route(a, b) == nx.shortest_path(case.graph, a, b), (a, b)


def test_route_rejects_unknown_nodes():
    topology = TorusTopology(16, LINK)
    with pytest.raises(KeyError):
        topology.route(0, 16)
    with pytest.raises(KeyError):
        topology.route("switch_d0_0", 3)


# ----------------------------------------------------------------------
# Per-level metrics: exactly the old all-pairs formulas.
# ----------------------------------------------------------------------


def test_level_metrics_equal_the_all_pairs_formulas(case):
    topology = case.topology
    for level in range(topology.num_levels):
        assert topology.average_hops(level) == reference_average_hops(
            topology, case.lengths, level
        )
        assert topology.effective_pair_bandwidth(level) == reference_effective_pair_bandwidth(
            topology, case.reference, case.lengths, level
        )


def test_cut_bandwidth_equals_the_all_pairs_formula(case):
    topology = case.topology
    left, right = hierarchical_groups(topology.num_accelerators, 0)[0]
    assert bisection_bandwidth(topology) == _cut_bandwidth(
        case.reference, case.lengths, left, right
    )
    if topology.num_accelerators > EXHAUSTIVE_ROUTES:
        return
    for level in range(topology.num_levels):
        for left, right in hierarchical_groups(topology.num_accelerators, level):
            assert topology._cut_bandwidth(left, right) == _cut_bandwidth(
                case.reference, case.lengths, left, right
            )
