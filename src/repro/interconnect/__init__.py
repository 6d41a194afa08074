"""Interconnect topologies for the accelerator array.

The paper connects its sixteen accelerators either with an H tree (a fat
tree whose per-level bandwidth matches the hierarchical partition's traffic
pattern) or with a 2-D torus; Section 6.5.1 compares the two.  This package
provides both, plus routing utilities.  A topology lays out its physical
links once as a plain adjacency (:meth:`Topology.links`), gives hop counts
between accelerators in closed form (:meth:`Topology.hops`) and routes
explicit paths over the adjacency (:meth:`Topology.route`); no graph
library is involved.
"""

from repro._exports import lazy_exports

#: Public name -> defining submodule, imported on first access.
_EXPORTS = {
    "Topology": "topology",
    "HTreeTopology": "htree",
    "TorusTopology": "torus",
    "TOPOLOGIES": "registry",
    "build_topology": "registry",
    "hierarchical_groups": "topology",
    "bisection_bandwidth": "routing",
    "pairwise_hop_matrix": "routing",
    "shortest_path_hops": "routing",
    "link_loads": "routing",
    "max_link_load": "routing",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
