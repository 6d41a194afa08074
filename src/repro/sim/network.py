"""Contention-aware discrete-event network simulation of one training step.

The ``"network"`` backend of :func:`repro.sim.api.simulate`.  Where the
analytic engine (:mod:`repro.sim.training`) serializes all compute on one
aggregate ``array-pu`` resource and models each hierarchy level as one
aggregate link, this engine instantiates the *physical* platform from the
:class:`~repro.interconnect.Topology`:

* one PU resource per device (``pu-0`` .. ``pu-N-1``); a layer pass runs in
  lock-step across the array, so a compute task occupies every PU for the
  per-accelerator duration -- but communication tasks occupy *links only*,
  which lets the PUs compute while exchanges are in flight;
* one resource per physical link of ``topology.links()``
  (accelerator-switch and accelerator-accelerator links alike), carrying
  that link's bandwidth.

A pair boundary's exchange at hierarchy level ``h`` is routed as the
shortest-path flows between the paired devices (``left[i] <-> right[i]``,
the pairing of :class:`~repro.sim.trace.TraceBuilder`): one task per
boundary that occupies every link on the union of its flow paths for the
*bottleneck* duration -- the maximum over links of (bytes crossing that
link) / (link bandwidth).  Two boundaries whose routes share a physical
link therefore queue on it, which is exactly the contention the analytic
model's per-level aggregate cannot express: on the H tree the binary-tree
traffic pattern gets dedicated links and the two engines agree bit-tight,
while on the torus same-level boundaries zig-zag across shared mesh links
and the network engine charges the resulting serialization.

Scheduling differences from the analytic chain (both are *relaxations*,
never added cost, so uncongested no-overlap cases stay equal):

* hierarchy levels of one logical exchange still chain deepest-first, but
  per boundary -- the level-``h`` task of group ``p`` waits only on its two
  child boundaries at level ``h+1``, and disjoint boundaries run in
  parallel on their own links;
* the gradient all-reduce (``gradient-intra``, dp's weight-update
  exchange) no longer gates the predecessor layer's backward compute: the
  error is already propagated once the ``backward-inter`` re-layout is
  done, so the all-reduce drains on the links while the PUs continue down
  the backward chain (it still extends the step when it finishes last);
* micro-batched pipeline transfers keep the analytic gating (downstream
  compute resumes after the first chunk of the shallowest level).

Energy and byte accounting are computed from the same per-level amounts
with the same formulas as the analytic engine, so reports differ only in
the scheduled times.  ``PhaseBreakdown.communication_seconds`` aggregates
per-link task occupancy (a level with ``2**h`` busy boundaries contributes
each boundary's duration), which is the physically meaningful total here;
step time, energy and bytes are the cross-engine comparable quantities.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.parallelism import Parallelism
from repro.core.strategies import strategy_spec
from repro.interconnect.topology import Topology, hierarchical_groups
from repro.nn.model import DNNModel
from repro.sim.engine import EventDrivenEngine, Schedule, Task
from repro.sim.metrics import EnergyBreakdown, PhaseBreakdown, TrainingStepReport
from repro.sim.training import PHASES, TrainingSimulator


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
    both directions traverse the same undirected links).
    """

    __slots__ = ("link_loads", "num_flows")

    def __init__(
        self, link_loads: tuple[tuple[str, float, int], ...], num_flows: int
    ) -> None:
        self.link_loads = link_loads
        self.num_flows = num_flows

    def duration(self, per_pair_bytes: float) -> float:
        """Bottleneck transfer time of a ``per_pair_bytes`` exchange."""
        per_flow = per_pair_bytes / self.num_flows
        return max(
            count * per_flow / bandwidth
            for _, bandwidth, count in self.link_loads
        )


def flow_plans(topology: Topology) -> list[list[_PairPlan]]:
    """Routed plans for every boundary, indexed ``[level][pair]`` (cached).

    Cached on the topology instance next to its other derived-quantity
    caches: the links are immutable, and every simulated step of a sweep
    reuses the same routes.
    """
    plans = getattr(topology, "_network_flow_plans", None)
    if plans is not None:
        return plans
    adjacency = topology.adjacency
    plans = []
    for level in range(topology.num_levels):
        level_plans = []
        for left, right in hierarchical_groups(topology.num_accelerators, level):
            loads: dict[str, list] = {}
            for a, b in zip(left, right):
                path = topology.route(a, b)
                for u, v in zip(path, path[1:]):
                    key = link_name(u, v)
                    entry = loads.get(key)
                    if entry is None:
                        loads[key] = [adjacency[u][v], 1]
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
    topology._network_flow_plans = plans
    return plans


class NetworkBackend:
    """:class:`~repro.sim.backend.SimulatorBackend` for the network engine."""

    name = "network"

    def run_step(
        self,
        simulator: TrainingSimulator,
        model: DNNModel,
        batch_size: int,
        strategy_name: str,
        level_comm: list,
    ) -> tuple[TrainingStepReport, Schedule]:
        return _run_network_step(
            simulator, model, batch_size, strategy_name, level_comm
        )


def _run_network_step(
    sim: TrainingSimulator,
    model: DNNModel,
    batch_size: int,
    strategy_name: str,
    level_comm: list,
) -> tuple[TrainingStepReport, Schedule]:
    array = sim.array
    topology = sim.topology
    num_levels = array.num_levels
    num_accelerators = array.num_accelerators
    accelerators = array.accelerators()
    reference_accelerator = accelerators[0]

    engine = EventDrivenEngine()
    pus = tuple(engine.resource(f"pu-{i}") for i in range(num_accelerators))
    if num_levels:
        plans = flow_plans(topology)
        level_hops = [topology.average_hops(level) for level in range(num_levels)]

    compute_energy = 0.0
    sram_energy = 0.0
    dram_energy = 0.0
    comm_energy = 0.0
    level_comm_bytes = [0.0] * num_levels

    pass_cache = sim._pass_cache

    def add_compute(
        name: str, layer, macs_total: float, dram_words_total: float, phase: str, deps
    ) -> Task:
        nonlocal compute_energy, sram_energy, dram_energy
        cache_key = (layer, macs_total, dram_words_total, num_accelerators)
        execution = pass_cache.get(cache_key)
        if execution is None:
            if len(pass_cache) >= 4096:
                pass_cache.clear()
            execution = reference_accelerator.execute_layer_pass(
                layer,
                macs_total / num_accelerators,
                dram_words_total / num_accelerators,
            )
            pass_cache[cache_key] = execution
        compute_energy += execution.compute_energy * num_accelerators
        sram_energy += execution.sram_energy * num_accelerators
        dram_energy += execution.dram_energy * num_accelerators
        return engine.add_task(
            name,
            execution.seconds,
            resources=pus,
            deps=deps,
            tags={"phase": phase, "kind": "compute", "layer": layer.name},
        )

    def add_communication(
        name: str,
        bytes_per_level: Sequence[float],
        phase: str,
        layer_name: str,
        deps,
        chunks: int = 1,
    ) -> tuple[Task, ...]:
        """One logical exchange as per-boundary link tasks, chained per group.

        Returns the gate tasks the downstream consumer must wait on: the
        shallowest scheduled level's boundary tasks (first micro-batch
        chunks when ``chunks > 1``, matching the analytic gating), or a
        zero-duration communication marker for an all-zero exchange.
        """
        nonlocal comm_energy
        chain_deps = tuple(deps)
        prev_level: int | None = None
        prev_last: list[Task] = []
        gates: tuple[Task, ...] = ()
        for level in reversed(range(num_levels)):
            per_pair = bytes_per_level[level]
            if per_pair <= 0:
                continue
            num_pairs = 1 << level
            level_comm_bytes[level] += per_pair * num_pairs
            comm_energy += array.energy_model.communication_energy_bytes(
                per_pair * num_pairs, level_hops[level]
            )
            firsts: list[Task] = []
            lasts: list[Task] = []
            for pair_index in range(num_pairs):
                plan = plans[level][pair_index]
                if prev_level is None:
                    task_deps = chain_deps
                else:
                    # This boundary's group covers a contiguous span of the
                    # deeper level's groups; wait on exactly those.
                    span = 1 << (prev_level - level)
                    task_deps = tuple(
                        prev_last[pair_index * span : (pair_index + 1) * span]
                    )
                first, last = engine.add_microbatched_task(
                    f"{name}/L{level}/p{pair_index}",
                    plan.duration(per_pair),
                    chunks,
                    resources=tuple(
                        engine.resource(key) for key, _, _ in plan.link_loads
                    ),
                    deps=task_deps,
                    tags={
                        "phase": phase,
                        "kind": "communication",
                        "layer": layer_name,
                        "level": level,
                        "pair": pair_index,
                    },
                )
                firsts.append(first)
                lasts.append(last)
            prev_level = level
            prev_last = lasts
            gates = tuple(firsts) if chunks > 1 else tuple(lasts)
        if not gates:
            marker = engine.add_task(
                f"{name}/none",
                0.0,
                deps=chain_deps,
                tags={"phase": phase, "kind": "communication", "layer": layer_name},
            )
            return (marker,)
        return gates

    # ------------------------------------------------------------------
    # Forward pass (mirrors the analytic task graph, with tuple gates).
    # ------------------------------------------------------------------

    layers = list(model)
    is_chain = model.is_chain
    layer_consumers = [model.consumers(layer.index) for layer in layers]
    if num_levels:
        layer_pipelined = [
            any(
                level_comm[level][index].parallelism is Parallelism.PIPELINE
                for level in range(num_levels)
            )
            for index in range(len(layers))
        ]
    else:
        layer_pipelined = [False] * len(layers)

    def edge_chunks(source: int, destination: int) -> int:
        if layer_pipelined[source] or layer_pipelined[destination]:
            return sim.num_microbatches
        return 1

    def edge_task_name(prefix: str, source_layer, destination: int) -> str:
        if is_chain:
            return f"{prefix}/{source_layer.name}"
        return f"{prefix}/{source_layer.name}->{layers[destination].name}"

    def input_position(destination: int, source: int) -> int:
        return layers[destination].inputs.index(source)

    forward_edge_gate: dict[tuple[int, int], tuple[Task, ...]] = {}
    tail_deps: tuple[Task, ...] = ()
    for layer in layers:
        deps = tuple(
            task
            for source in layer.inputs
            for task in forward_edge_gate[(source, layer.index)]
        )
        macs = batch_size * layer.macs_per_sample
        words = batch_size * (
            layer.input_shape.elements + layer.output_shape.elements
        ) + layer.weight_count
        compute = add_compute(
            f"forward/{layer.name}", layer, macs, words, "forward", deps
        )
        tail_deps = (compute,)
        if num_levels:
            intra = [
                record.intra_bytes
                if strategy_spec(record.parallelism).intra_phase == "forward"
                else 0.0
                for record in (level_comm[level][layer.index] for level in range(num_levels))
            ]
            tail_deps = add_communication(
                f"forward-intra/{layer.name}", intra, "forward", layer.name, (compute,)
            )
            for destination in layer_consumers[layer.index]:
                position = input_position(destination, layer.index)
                inter = [
                    level_comm[level][destination].incoming[position][1]
                    for level in range(num_levels)
                ]
                gate = add_communication(
                    edge_task_name("forward-inter", layer, destination),
                    inter,
                    "forward",
                    layer.name,
                    tail_deps,
                    chunks=edge_chunks(layer.index, destination),
                )
                forward_edge_gate[(layer.index, destination)] = gate
                if is_chain:
                    tail_deps = gate
        else:
            for destination in layer_consumers[layer.index]:
                forward_edge_gate[(layer.index, destination)] = tail_deps

    # ------------------------------------------------------------------
    # Backward pass.  The error chain gates the predecessor (backward
    # compute + backward-inter re-layouts); the gradient computation and
    # its dp all-reduce hang off the chain and overlap with it.
    # ------------------------------------------------------------------

    forward_final_deps: tuple[Task, ...] = tail_deps
    error_ready: dict[int, tuple[Task, ...]] = {}
    for layer in reversed(layers):
        consumers = layer_consumers[layer.index]
        if consumers:
            deps = tuple(
                task for destination in consumers for task in error_ready[destination]
            )
        else:
            deps = forward_final_deps
        macs = batch_size * layer.macs_per_sample
        backward_words = batch_size * (
            layer.input_shape.elements + layer.output_shape.elements
        ) + layer.weight_count
        backward = add_compute(
            f"backward/{layer.name}", layer, macs, backward_words, "backward", deps
        )
        tail_deps = (backward,)
        if num_levels:
            for destination in consumers:
                position = input_position(destination, layer.index)
                inter = [
                    level_comm[level][destination].incoming[position][2]
                    for level in range(num_levels)
                ]
                tail_deps = add_communication(
                    edge_task_name("backward-inter", layer, destination),
                    inter,
                    "backward",
                    layer.name,
                    tail_deps,
                    chunks=edge_chunks(layer.index, destination),
                )
        # The predecessor's backward needs only the propagated error, not
        # this layer's weight-gradient work: the overlap relaxation.
        error_ready[layer.index] = tail_deps

        gradient_words = batch_size * (
            layer.input_shape.elements + layer.output_shape.elements
        ) + 3 * layer.weight_count
        gradient = add_compute(
            f"gradient/{layer.name}",
            layer,
            macs,
            gradient_words,
            "gradient",
            tail_deps,
        )
        if num_levels:
            intra = [
                record.intra_bytes
                if strategy_spec(record.parallelism).intra_phase == "gradient"
                else 0.0
                for record in (level_comm[level][layer.index] for level in range(num_levels))
            ]
            # Nothing downstream waits on the all-reduce; it drains on the
            # links and extends the step only if it finishes last.
            add_communication(
                f"gradient-intra/{layer.name}", intra, "gradient", layer.name, (gradient,)
            )

    schedule = engine.run()

    phase_durations = {phase: {"compute": 0.0, "communication": 0.0} for phase in PHASES}
    for task in schedule.tasks:
        phase = task.tags.get("phase")
        kind = task.tags.get("kind")
        bucket = phase_durations.get(phase)
        if bucket is not None and kind in bucket:
            bucket[kind] += task.duration
    phase_seconds = {
        phase: PhaseBreakdown(
            compute_seconds=durations["compute"],
            communication_seconds=durations["communication"],
        )
        for phase, durations in phase_durations.items()
    }

    report = TrainingStepReport(
        model_name=model.name,
        strategy_name=strategy_name,
        topology_name=topology.name if topology is not None else "none",
        num_accelerators=num_accelerators,
        batch_size=batch_size,
        step_seconds=schedule.makespan,
        energy=EnergyBreakdown(
            compute_joules=compute_energy,
            sram_joules=sram_energy,
            dram_joules=dram_energy,
            communication_joules=comm_energy,
        ),
        communication_bytes=sum(level_comm_bytes),
        phase_seconds=phase_seconds,
        level_communication_bytes=tuple(level_comm_bytes),
    )
    return report, schedule
