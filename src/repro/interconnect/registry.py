"""Topologies addressable by name from the CLI and experiment drivers."""

from __future__ import annotations

from repro.interconnect.htree import HTreeTopology
from repro.interconnect.topology import Topology
from repro.interconnect.torus import TorusTopology

#: Topologies addressable by name from the CLI / experiment drivers.
TOPOLOGIES = {
    "h-tree": HTreeTopology,
    "htree": HTreeTopology,
    "torus": TorusTopology,
}


def build_topology(name: str, num_accelerators: int, link_bandwidth_bytes: float) -> Topology:
    """Instantiate a topology by name (``"h-tree"`` or ``"torus"``)."""
    normalized = name.strip().lower().replace("_", "-")
    if normalized not in TOPOLOGIES:
        known = ", ".join(sorted(set(TOPOLOGIES)))
        raise KeyError(f"unknown topology {name!r}; known topologies: {known}")
    return TOPOLOGIES[normalized](num_accelerators, link_bandwidth_bytes)
