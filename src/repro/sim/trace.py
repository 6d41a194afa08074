"""Communication-trace extraction.

The analytical model answers "how many bytes cross each pair boundary?";
this module turns that answer into an explicit list of point-to-point
transfers -- which accelerator sends how many bytes to which accelerator,
for which layer, in which phase of the training step, at which hierarchy
level.  Traces are useful for

* validating that the per-transfer accounting sums back to the analytical
  totals (done in the test suite),
* mapping the traffic onto a physical topology to study link utilisation
  (via :func:`repro.interconnect.routing.link_loads`), and
* exporting workloads for external network simulators.
"""

from __future__ import annotations

import dataclasses

from repro.core.communication import CommunicationModel
from repro.core.parallelism import HierarchicalAssignment
from repro.core.strategies import strategy_spec
from repro.core.tensors import ScalingMode, descend_scales, initial_scales, model_tensors
from repro.interconnect.topology import Topology, hierarchical_groups
from repro.nn.model import DNNModel

#: Phases a transfer can belong to.
TRANSFER_PHASES = ("forward", "backward", "gradient")


@dataclasses.dataclass(frozen=True)
class Transfer:
    """One point-to-point transfer of a training step."""

    source: int
    destination: int
    num_bytes: float
    layer_name: str
    phase: str
    level: int
    kind: str  # "intra" (partial-sum exchange) or "inter" (boundary re-layout)

    def __post_init__(self) -> None:
        if self.num_bytes < 0:
            raise ValueError("transfer size must be non-negative")
        if self.phase not in TRANSFER_PHASES:
            raise ValueError(f"unknown phase {self.phase!r}")
        if self.kind not in ("intra", "inter"):
            raise ValueError(f"unknown transfer kind {self.kind!r}")
        if self.source == self.destination:
            raise ValueError("a transfer needs two distinct accelerators")


@dataclasses.dataclass(frozen=True)
class CommunicationTrace:
    """All transfers of one training step of one partitioned network."""

    model_name: str
    num_accelerators: int
    batch_size: int
    transfers: tuple[Transfer, ...]

    @property
    def total_bytes(self) -> float:
        return sum(transfer.num_bytes for transfer in self.transfers)

    def bytes_by_level(self) -> dict[int, float]:
        totals: dict[int, float] = {}
        for transfer in self.transfers:
            totals[transfer.level] = totals.get(transfer.level, 0.0) + transfer.num_bytes
        return totals

    def bytes_by_phase(self) -> dict[str, float]:
        totals = {phase: 0.0 for phase in TRANSFER_PHASES}
        for transfer in self.transfers:
            totals[transfer.phase] += transfer.num_bytes
        return totals

    def bytes_by_layer(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for transfer in self.transfers:
            totals[transfer.layer_name] = (
                totals.get(transfer.layer_name, 0.0) + transfer.num_bytes
            )
        return totals

    def bytes_by_accelerator_pair(self) -> dict[tuple[int, int], float]:
        """Traffic per unordered accelerator pair."""
        totals: dict[tuple[int, int], float] = {}
        for transfer in self.transfers:
            key = tuple(sorted((transfer.source, transfer.destination)))
            totals[key] = totals.get(key, 0.0) + transfer.num_bytes
        return totals

    def filter(
        self,
        phase: str | None = None,
        level: int | None = None,
        layer_name: str | None = None,
    ) -> list[Transfer]:
        """Transfers matching the given criteria (all optional)."""
        selected = []
        for transfer in self.transfers:
            if phase is not None and transfer.phase != phase:
                continue
            if level is not None and transfer.level != level:
                continue
            if layer_name is not None and transfer.layer_name != layer_name:
                continue
            selected.append(transfer)
        return selected

    def link_traffic(self, topology: Topology) -> dict[tuple, float]:
        """Map the trace onto a physical topology: bytes carried per link."""
        loads: dict[tuple, float] = {
            tuple(sorted((u, v), key=str)): 0.0 for u, v, _ in topology.links()
        }
        for transfer in self.transfers:
            path = topology.route(transfer.source, transfer.destination)
            for u, v in zip(path, path[1:]):
                key = tuple(sorted((u, v), key=str))
                loads[key] += transfer.num_bytes
        return loads


class TraceBuilder:
    """Builds :class:`CommunicationTrace` objects from a partitioned network.

    The per-pair-boundary byte counts come from the same communication model
    and scaling rules used by the partitioner and the simulator, so the
    trace's total always equals the analytical objective.  Within one pair
    boundary the traffic is split evenly across the partner accelerators:
    accelerator ``i`` of the left group exchanges with accelerator ``i`` of
    the right group (the natural pairing of the recursive halving).
    """

    def __init__(
        self,
        communication_model: CommunicationModel | None = None,
        scaling_mode: ScalingMode | str = ScalingMode.PARALLELISM_AWARE,
    ) -> None:
        self.communication_model = communication_model or CommunicationModel()
        self.scaling_mode = ScalingMode.parse(scaling_mode)

    def build(
        self,
        model: DNNModel,
        assignment: HierarchicalAssignment,
        batch_size: int,
    ) -> CommunicationTrace:
        """Extract the full transfer list for one training step."""
        if assignment.num_layers != len(model):
            raise ValueError(
                f"assignment covers {assignment.num_layers} layers, "
                f"model has {len(model)}"
            )
        num_levels = assignment.num_levels
        num_accelerators = assignment.num_accelerators
        comm = self.communication_model

        transfers: list[Transfer] = []
        scales = initial_scales(len(model))
        for level in range(num_levels):
            tensors = model_tensors(model, batch_size, scales)
            level_assignment = assignment[level]
            pairs = hierarchical_groups(num_accelerators, level)
            for index, (layer, choice) in enumerate(zip(model, level_assignment)):
                layer_tensor = tensors[index]
                intra = comm.intra_layer_bytes(layer_tensor, choice)
                intra_phase = strategy_spec(choice).intra_phase
                # One (forward, backward) re-layout per incoming DAG edge;
                # a chain layer has the single boundary from its
                # predecessor, a merge layer one per branch.
                amounts = [(intra, intra_phase, "intra")]
                for source in layer.inputs:
                    previous = level_assignment[source]
                    boundary = tensors[source]
                    amounts.append(
                        (
                            comm.inter_layer_forward_bytes(previous, choice, boundary),
                            "forward",
                            "inter",
                        )
                    )
                    amounts.append(
                        (
                            comm.inter_layer_backward_bytes(previous, choice, boundary),
                            "backward",
                            "inter",
                        )
                    )

                for left, right, in pairs:
                    flows = list(zip(left, right))
                    for amount, phase, kind in amounts:
                        if amount <= 0:
                            continue
                        # The pair-boundary amount already counts both
                        # directions (the model's pair factor), so half flows
                        # left->right and half right->left.
                        per_flow = amount / (2 * len(flows))
                        for a, b in flows:
                            transfers.append(
                                Transfer(a, b, per_flow, layer.name, phase, level, kind)
                            )
                            transfers.append(
                                Transfer(b, a, per_flow, layer.name, phase, level, kind)
                            )
            scales = descend_scales(scales, level_assignment, self.scaling_mode)

        return CommunicationTrace(
            model_name=model.name,
            num_accelerators=num_accelerators,
            batch_size=batch_size,
            transfers=tuple(transfers),
        )
