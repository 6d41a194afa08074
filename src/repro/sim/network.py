"""Routed flow plans of the contention-aware ``"network"`` engine.

Where the analytic engine models each hierarchy level as one aggregate
link, the network fabric of :class:`~repro.sim.training.TrainingSimulator`
routes every exchange over the *physical* links of the
:class:`~repro.interconnect.Topology`.  Both engines run compute on one
``array-pu`` resource: a layer pass runs in lock-step across the array, so
every PU would always be free at the same time -- and communication tasks
occupy links only, which lets the array compute while exchanges are in
flight.

A pair boundary's exchange at hierarchy level ``h`` is routed as the
shortest-path flows between the paired devices (``left[i] <-> right[i]``,
the pairing of :class:`~repro.sim.trace.TraceBuilder`): one task per
boundary (tagged ``pair``) that occupies every link on the union of its
flow paths for the *bottleneck* duration -- the maximum over links of
(bytes crossing that link) / (link bandwidth); :func:`flow_plans` pre-routes
these per topology.  Two boundaries whose routes share a physical link
therefore queue on it, which is exactly the contention the analytic
model's per-level aggregate cannot express: on the H tree the binary-tree
traffic pattern gets dedicated links and the two engines agree bit-tight,
while on the torus same-level boundaries zig-zag across shared mesh links
and the network engine charges the resulting serialization.

The simulator holds one resource per *link class*, not per link: a class
is the set of links that exactly the same boundaries claim (see
:func:`link_classes`).  Every task that claims one link of a class claims
all of them, so they are always free at the same time and one resource
stands for them exactly.  On both topologies the boundaries claim
``N - 1`` classes, one per boundary; on the H tree that halves the links
a boundary holds.

Both engines build the same task graph with one builder
(``TrainingSimulator._run_step``).  Besides its resources, the network
fabric differs only in two scheduling *relaxations*, never added cost, so
uncongested no-overlap cases stay equal:

* hierarchy levels of one logical exchange still chain deepest-first, but
  per boundary -- the level-``h`` task of group ``p`` waits only on its two
  child boundaries at level ``h+1``, and disjoint boundaries run in
  parallel on their own links;
* the gradient computation and its all-reduce (``gradient-intra``, dp's
  weight-update exchange) no longer gate the predecessor layer's backward
  compute: the error is already propagated once the ``backward-inter``
  re-layout is done, so the all-reduce drains on the links while the PUs
  continue down the backward chain (it still extends the step when it
  finishes last).

Micro-batched pipeline transfers keep the analytic gating: downstream
compute resumes after the first chunks of the shallowest level.

Energy and byte accounting are computed from the same per-level amounts
with the same formulas as the analytic engine, so reports differ only in
the scheduled times.  ``PhaseBreakdown.communication_seconds`` aggregates
per-link task occupancy (a level with ``2**h`` busy boundaries contributes
each boundary's duration), which is the physically meaningful total here;
step time, energy and bytes are the cross-engine comparable quantities.
"""

from __future__ import annotations

from repro.interconnect.topology import Topology, hierarchical_groups


def link_name(u, v) -> str:
    """Canonical resource name of the physical link ``{u, v}``."""
    a, b = sorted((str(u), str(v)))
    return f"link:{a}<->{b}"


class _PairPlan:
    """Pre-routed flow plan of one pair boundary at one hierarchy level.

    ``link_loads`` lists ``(link name, bandwidth bytes/s, flow count)`` for
    every physical link on the union of the boundary's flow paths;
    ``num_flows`` is the number of device pairs exchanging (half the group
    size).  The per-link byte load of a ``per_pair``-byte exchange is
    ``count * per_pair / num_flows`` (each flow carries an equal share,
    both directions traverse the same undirected links).  ``shape`` is
    ``(num_flows, distinct (bandwidth, count) loads)``, all the duration
    depends on, and ``link_classes`` the indices into
    :func:`link_classes` of the classes covering the boundary's links.
    """

    __slots__ = ("link_loads", "num_flows", "shape", "link_classes")

    def __init__(
        self, link_loads: tuple[tuple[str, float, int], ...], num_flows: int
    ) -> None:
        self.link_loads = link_loads
        self.num_flows = num_flows
        self.shape = (
            num_flows,
            tuple(sorted({(bandwidth, count) for _, bandwidth, count in link_loads})),
        )
        self.link_classes: tuple[int, ...] = ()

    def duration(self, per_pair_bytes: float) -> float:
        """Bottleneck transfer time of a ``per_pair_bytes`` exchange."""
        per_flow = per_pair_bytes / self.num_flows
        return max(count * per_flow / bandwidth for bandwidth, count in self.shape[1])


def flow_plans(topology: Topology) -> list[list[_PairPlan]]:
    """Routed plans for every boundary, indexed ``[level][pair]`` (cached).

    Cached on the topology instance next to its other derived-quantity
    caches: the links are immutable, and every simulated step of a sweep
    reuses the same routes.  The link classes are computed in the same
    pass and cached with the plans.
    """
    plans = getattr(topology, "_network_flow_plans", None)
    if plans is not None:
        return plans
    adjacency = topology.adjacency
    plans = []
    #: Per link, the (level, pair) boundaries whose routes cross it.
    claimants: dict[str, list[tuple[int, int]]] = {}
    for level in range(topology.num_levels):
        level_plans = []
        for pair, (left, right) in enumerate(
            hierarchical_groups(topology.num_accelerators, level)
        ):
            loads: dict[str, list] = {}
            for a, b in zip(left, right):
                path = topology.route(a, b)
                for u, v in zip(path, path[1:]):
                    key = link_name(u, v)
                    entry = loads.get(key)
                    if entry is None:
                        loads[key] = [adjacency[u][v], 1]
                        claimants.setdefault(key, []).append((level, pair))
                    else:
                        entry[1] += 1
            level_plans.append(
                _PairPlan(
                    link_loads=tuple(
                        (key, bandwidth, count)
                        for key, (bandwidth, count) in loads.items()
                    ),
                    num_flows=len(left),
                )
            )
        plans.append(level_plans)

    class_of: dict[str, int] = {}
    signatures: dict[tuple, int] = {}
    classes: list[list[str]] = []
    for u, v, _ in topology.links():
        key = link_name(u, v)
        index = signatures.setdefault(tuple(claimants.get(key, ())), len(classes))
        if index == len(classes):
            classes.append([])
        classes[index].append(key)
        class_of[key] = index
    for level_plans in plans:
        for plan in level_plans:
            plan.link_classes = tuple(
                dict.fromkeys(class_of[key] for key, _, _ in plan.link_loads)
            )
    topology._network_link_classes = [tuple(links) for links in classes]
    topology._network_flow_plans = plans
    return plans


def link_classes(topology: Topology) -> list[tuple[str, ...]]:
    """The link classes of ``topology``: its links grouped by claimants.

    Two links are in one class when exactly the same pair boundaries of
    :func:`flow_plans` route over them.  The classes partition
    ``topology.links()`` (in laying order of each class's first link), and
    each plan's ``link_classes`` covers exactly its ``link_loads`` links.
    """
    flow_plans(topology)
    return topology._network_link_classes
