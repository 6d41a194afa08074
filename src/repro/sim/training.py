"""Event-driven simulation of one DNN training step on the accelerator array.

The simulator builds a task graph for one mini-batch step -- forward pass,
error backward pass, gradient computation and weight update for every
weighted layer -- and schedules it with the discrete-event engine:

* every layer pass runs as a *compute* task on the array's processing units
  (all accelerators execute their share in lock-step, so the pass lasts the
  per-accelerator duration, bounded below by local HMC streaming);
* the tensor exchanges dictated by the HyPar communication model run as
  *communication* tasks on the interconnect: model-parallel layers exchange
  output-feature partial sums during forward, data-parallel layers exchange
  gradients during the weight update, and inter-layer re-layouts are
  charged per layer-DAG edge (feature-map share in forward, error share in
  backward) -- the task graph carries the model's fan-out and fan-in, so a
  merge layer's forward waits on every branch and a branching layer's
  backward waits on every consumer's chain;
* the hierarchy levels of one logical exchange chain deepest first (a
  hierarchical reduction proceeds level by level).

One builder (:meth:`TrainingSimulator._run_step`) serves both engines.  It
takes a *fabric*, the engine's mapping of tasks onto resources:

* ``"analytic"`` -- each hierarchy level is one aggregate link running at
  the effective bandwidth its topology gives a pair boundary; the gradient
  all-reduce gates the predecessor layer's backward;
* ``"network"`` -- routed per-boundary flows on the physical links, held
  as link classes (see :mod:`repro.sim.network`); a level's boundary waits
  only on the deeper boundaries its group covers, and the gradient
  all-reduce drains off the backward chain.

On both, all compute serializes on one ``array-pu`` resource: every
accelerator runs its share of a layer pass in lock-step.

Energy is accumulated analytically from the same quantities: arithmetic,
on-chip buffer and local DRAM energy are identical under every strategy
(the work is merely partitioned differently), while communication energy
scales with the bytes and hop counts of the exchanges.

The per-level communication amounts are gathered from a compiled
:class:`~repro.core.costs.HierarchicalCostTable` (cached in a
:class:`~repro.core.costs.TableCache`, or passed in via
``simulate(..., cost_table=...)`` by sweeps that pre-compile one), so
repeated simulations of the same model -- the Figures 9/10 sweeps, the
strategy comparisons -- derive the scale-descent tensor amounts once
instead of once per level per point.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

from repro.accelerator.array import ArrayConfig
from repro.core.communication import CommunicationModel
from repro.core.costs import HierarchicalCostTable, TableCache
from repro.core.parallelism import (
    HierarchicalAssignment,
    Parallelism,
    StrategySpace,
)
from repro.core.strategies import strategy_spec
from repro.core.tensors import ScalingMode
from repro.interconnect import HTreeTopology, Topology
from repro.nn.model import DNNModel
from repro.sim.backend import validate_sim_engine
from repro.sim.engine import EventDrivenEngine, Resource, Schedule, Task
from repro.sim.metrics import EnergyBreakdown, PhaseBreakdown, TrainingStepReport
from repro.sim.network import flow_plans, link_classes

#: The three layer passes of training (Equations 1-3 of the paper).
PHASES = ("forward", "backward", "gradient")

#: Micro-batches streamed across pipeline stage boundaries per step.  Only
#: transfers adjacent to a pipeline (pp) layer are micro-batched; dp/mp-only
#: assignments build exactly the same task graph as before.
DEFAULT_NUM_MICROBATCHES = 4

# Compiled tables a simulator keeps when no shared cache is handed in.
_TABLE_CACHE_LIMIT = 16


class _Fabric(NamedTuple):
    """One engine's mapping of a training step's exchanges onto resources.

    ``levels[level]`` is ``(durations, boundaries)``: ``boundaries`` lists
    the tasks one exchange at that level splits into, as ``(name suffix,
    resources, index into durations, extra tags)``, and each duration
    function maps a per-pair byte count to seconds -- one per distinct
    plan shape, so an exchange prices each shape once.  A boundary waits
    on the deeper level's boundaries its group covers.
    ``overlap_gradient`` keeps the gradient computation and its
    all-reduce off the backward chain instead of gating the predecessor
    layer's backward on them.
    """

    levels: list[
        tuple[
            list[Callable[[float], float]],
            list[tuple[str, tuple[Resource, ...], int, dict]],
        ]
    ]
    overlap_gradient: bool


def _transfer_time(bandwidth: float) -> Callable[[float], float]:
    return lambda per_pair: per_pair / bandwidth


class TrainingSimulator:
    """Simulates one training step of a partitioned DNN on an accelerator array.

    Parameters
    ----------
    array:
        The accelerator-array configuration (size, per-accelerator models).
    topology:
        Interconnect topology; defaults to the H tree the paper prefers.
    communication_model:
        Byte-level communication cost model shared with the partitioner.
    scaling_mode:
        How tensor amounts shrink at deeper hierarchy levels; must match the
        mode used when the assignment was searched for the costs to be
        consistent.
    strategies:
        The strategy space cost tables are compiled over (dp/mp by
        default); must cover every choice of the simulated assignments.
    num_microbatches:
        How many micro-batches stream across pipeline stage boundaries.
        Transfers adjacent to a pipeline layer are split into this many
        chained chunks, and downstream compute resumes after the first
        chunk (overlapping the rest).  Irrelevant for assignments without
        pipeline layers, whose task graphs are unchanged.
    table_cache:
        Optional shared :class:`~repro.core.costs.TableCache` that
        :meth:`cost_table` compiles into and gathers from -- sweep runners
        hand every simulator of a worker process the same cache so one
        compilation serves every study touching the configuration.
        Without one the simulator keeps a private cache of 16 tables.
    sim_engine:
        Default simulation engine (``"analytic"`` or ``"network"``, see
        :mod:`repro.sim.backend`); individual :meth:`simulate` calls may
        override it with their keyword-only ``sim_engine``.
    """

    def __init__(
        self,
        array: ArrayConfig | None = None,
        topology: Topology | None = None,
        communication_model: CommunicationModel | None = None,
        scaling_mode: ScalingMode | str = ScalingMode.PARALLELISM_AWARE,
        strategies: StrategySpace | str | None = None,
        num_microbatches: int = DEFAULT_NUM_MICROBATCHES,
        table_cache: TableCache | None = None,
        sim_engine: str | None = None,
    ) -> None:
        if num_microbatches <= 0:
            raise ValueError(
                f"num_microbatches must be positive, got {num_microbatches}"
            )
        self.array = array or ArrayConfig()
        if self.array.num_accelerators == 1:
            # A single accelerator has no interconnect at all.
            if topology is not None:
                raise ValueError("a single-accelerator array takes no topology")
            self.topology = None
        else:
            self.topology = topology or HTreeTopology(
                self.array.num_accelerators, self.array.link_bandwidth_bytes
            )
            if self.topology.num_accelerators != self.array.num_accelerators:
                raise ValueError(
                    "topology and array configuration disagree on the number of accelerators"
                )
        self.communication_model = communication_model or CommunicationModel()
        self.scaling_mode = ScalingMode.parse(scaling_mode)
        self.strategies = StrategySpace.parse(strategies)
        self.num_microbatches = num_microbatches
        self.table_cache = (
            table_cache
            if table_cache is not None
            else TableCache(limit=_TABLE_CACHE_LIMIT)
        )
        self.sim_engine = validate_sim_engine(sim_engine)
        #: The raw :class:`~repro.sim.engine.Schedule` of the most recent
        #: :meth:`simulate` call (tag/occupancy inspection; ``None`` before
        #: the first call).
        self.last_schedule: Schedule | None = None
        # Layer-pass executions depend on (layer, work), not on the
        # assignment, so every point of a sweep issues identical passes.
        # Keyed by the (frozen, hashable) layer itself plus the work amounts.
        self._pass_cache: dict = {}

    def cost_table(self, model: DNNModel, batch_size: int) -> HierarchicalCostTable:
        """The compiled cost table for ``model`` at ``batch_size`` (cached)."""
        return self.table_cache.get_or_compile(
            model,
            batch_size,
            self.array.num_levels,
            scaling_mode=self.scaling_mode,
            communication_model=self.communication_model,
            strategies=self.strategies,
        )

    def simulate(
        self,
        model: DNNModel,
        assignment: HierarchicalAssignment | None,
        batch_size: int,
        strategy_name: str = "custom",
        cost_table: HierarchicalCostTable | None = None,
        *,
        sim_engine: str | None = None,
    ) -> TrainingStepReport:
        """Simulate one training step and return its report.

        ``assignment`` may be ``None`` only for a single-accelerator array,
        in which case there is no inter-accelerator communication at all.
        ``cost_table`` optionally supplies an already-compiled
        :class:`~repro.core.costs.HierarchicalCostTable` (it must match this
        simulator's configuration); otherwise :meth:`cost_table` supplies
        one from :attr:`table_cache`.  The keyword-only ``sim_engine`` overrides the
        simulator's default engine for this call (``"analytic"`` or
        ``"network"``); both engines share the compiled communication
        records, and the run's raw schedule lands in :attr:`last_schedule`.
        """
        sim_engine = validate_sim_engine(
            self.sim_engine if sim_engine is None else sim_engine
        )
        level_comm = self._level_communication(
            model, assignment, batch_size, cost_table
        )
        report, self.last_schedule = self._run_step(
            model, batch_size, strategy_name, level_comm, sim_engine
        )
        return report

    def _level_communication(
        self,
        model: DNNModel,
        assignment: HierarchicalAssignment | None,
        batch_size: int,
        cost_table: HierarchicalCostTable | None,
    ) -> list[list[tuple[Parallelism, float, tuple[tuple[int, float, float], ...]]]]:
        """Validate the (model, assignment) pair and gather its records.

        Per level and layer, ``(choice, intra, incoming)`` bytes per pair
        from :meth:`~repro.core.costs.HierarchicalCostTable.level_communication`;
        empty on a single-accelerator array.
        """
        num_levels = self.array.num_levels
        if num_levels == 0:
            if assignment is not None:
                raise ValueError("a single-accelerator array takes no assignment")
            return []
        if assignment is None:
            raise ValueError("an assignment is required for a multi-accelerator array")
        if assignment.num_levels != num_levels:
            raise ValueError(
                f"assignment has {assignment.num_levels} levels, "
                f"array expects {num_levels}"
            )
        if assignment.num_layers != len(model):
            raise ValueError(
                f"assignment covers {assignment.num_layers} layers, "
                f"model has {len(model)}"
            )
        if cost_table is None:
            cost_table = self.cost_table(model, batch_size)
        else:
            cost_table.check_compatible(
                model,
                batch_size,
                num_levels,
                self.scaling_mode,
                self.communication_model,
            )
        return cost_table.level_communication(assignment)

    def _fabric(self, engine: EventDrivenEngine, sim_engine: str) -> _Fabric:
        """Map the step's exchanges onto ``engine``'s resources for ``sim_engine``."""
        levels = range(self.array.num_levels)
        if sim_engine == "network":
            if self.topology is None:
                return _Fabric(levels=[], overlap_gradient=True)
            plans = flow_plans(self.topology)
            classes = [
                engine.resource(f"link-class-{index}")
                for index in range(len(link_classes(self.topology)))
            ]
            fabric_levels = []
            for level in levels:
                shapes: dict[tuple, int] = {}
                durations = []
                boundaries = []
                for pair, plan in enumerate(plans[level]):
                    shape = shapes.setdefault(plan.shape, len(durations))
                    if shape == len(durations):
                        durations.append(plan.duration)
                    boundaries.append(
                        (
                            f"/p{pair}",
                            tuple(classes[index] for index in plan.link_classes),
                            shape,
                            {"pair": pair},
                        )
                    )
                fabric_levels.append((durations, boundaries))
            return _Fabric(levels=fabric_levels, overlap_gradient=True)
        return _Fabric(
            levels=[
                (
                    [_transfer_time(self.topology.effective_pair_bandwidth(level))],
                    [("", (engine.resource(f"link-level-{level}"),), 0, {})],
                )
                for level in levels
            ],
            overlap_gradient=False,
        )

    def _run_step(
        self,
        model: DNNModel,
        batch_size: int,
        strategy_name: str,
        level_comm: list[list[tuple]],
        sim_engine: str,
    ) -> tuple[TrainingStepReport, Schedule]:
        """Build one training step's task graph on ``sim_engine``'s fabric and run it."""
        num_levels = self.array.num_levels
        num_accelerators = self.array.num_accelerators
        reference_accelerator = self.array.accelerators()[0]
        energy_model = self.array.energy_model
        engine = EventDrivenEngine()
        compute = (engine.resource("array-pu"),)
        fabric = self._fabric(engine, sim_engine)
        level_hops = [self.topology.average_hops(level) for level in range(num_levels)]

        compute_energy = 0.0
        sram_energy = 0.0
        dram_energy = 0.0
        comm_energy = 0.0
        level_comm_bytes = [0.0] * num_levels

        pass_cache = self._pass_cache

        def add_compute(layer, phase: str, deps: tuple[Task, ...]) -> tuple[Task, ...]:
            """The ``phase`` pass of ``layer`` across the whole array."""
            nonlocal compute_energy, sram_energy, dram_energy
            macs_total = batch_size * layer.macs_per_sample
            weight_passes = 3 if phase == "gradient" else 1
            dram_words_total = batch_size * (
                layer.input_shape.elements + layer.output_shape.elements
            ) + weight_passes * layer.weight_count
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
            # Energy is accumulated for the *whole* array: every accelerator
            # performs 1/N of the work, so the total equals the unpartitioned
            # amounts.
            compute_energy += execution.compute_energy * num_accelerators
            sram_energy += execution.sram_energy * num_accelerators
            dram_energy += execution.dram_energy * num_accelerators
            task = engine.add_task(
                f"{phase}/{layer.name}",
                execution.seconds,
                resources=compute,
                deps=deps,
                tags={"phase": phase, "kind": "compute", "layer": layer.name},
            )
            return (task,)

        def add_communication(
            name: str,
            bytes_per_level: Sequence[float],
            phase: str,
            layer_name: str,
            deps: tuple[Task, ...],
            chunks: int = 1,
        ) -> tuple[Task, ...]:
            """Chain one logical exchange across the hierarchy levels (deepest first).

            Returns the tasks the downstream consumer waits on: the
            shallowest scheduled level's boundaries.  With ``chunks > 1``
            (pipeline stage boundaries) each boundary's transfer is split
            into that many chained micro-batch tasks and the consumer waits
            on the *first* chunks, overlapping the remaining micro-batches
            while the links stay occupied for the full transfer.
            """
            nonlocal comm_energy
            if not num_levels:
                return deps  # a single accelerator exchanges nothing
            previous: tuple[Task, ...] | None = None
            gates: tuple[Task, ...] = ()
            for level in reversed(range(num_levels)):
                per_pair = bytes_per_level[level]
                if per_pair <= 0:
                    continue
                num_pairs = 1 << level
                level_comm_bytes[level] += per_pair * num_pairs
                comm_energy += energy_model.communication_energy_bytes(
                    per_pair * num_pairs, level_hops[level]
                )
                durations, boundaries = fabric.levels[level]
                seconds = [duration(per_pair) for duration in durations]
                firsts: list[Task] = []
                lasts: list[Task] = []
                for index, (suffix, resources, shape, tags) in enumerate(boundaries):
                    if previous is None:
                        boundary_deps = deps
                    else:
                        # This boundary's group covers a contiguous span of
                        # the deeper level's groups; wait on exactly those.
                        span = len(previous) // len(boundaries)
                        boundary_deps = previous[index * span : (index + 1) * span]
                    first, last = engine.add_microbatched_task(
                        f"{name}/L{level}{suffix}",
                        seconds[shape],
                        chunks,
                        resources=resources,
                        deps=boundary_deps,
                        tags={
                            "phase": phase,
                            "kind": "communication",
                            "layer": layer_name,
                            "level": level,
                            **tags,
                        },
                    )
                    firsts.append(first)
                    lasts.append(last)
                previous = tuple(lasts)
                gates = tuple(firsts if chunks > 1 else lasts)
            if not gates:
                # Zero-byte exchange: nothing occupies a link, but the
                # exchange must still be represented by a *communication*
                # marker -- handing consumers the upstream compute task
                # instead would mislabel every tag-based trace of the
                # schedule.
                gates = (
                    engine.add_task(
                        f"{name}/none",
                        0.0,
                        deps=deps,
                        tags={"phase": phase, "kind": "communication", "layer": layer_name},
                    ),
                )
            return gates

        layers = list(model)
        is_chain = model.is_chain
        #: Consumers of every layer, ascending -- chain: [index + 1].
        layer_consumers = [model.consumers(layer.index) for layer in layers]
        #: Every layer's ``(choice, intra, incoming)`` record at each level.
        layer_records = list(zip(*level_comm)) if num_levels else [()] * len(layers)
        # A boundary adjacent to a pipeline (stage-local) layer at any level
        # carries micro-batched stage transfers; everything else is unsplit.
        layer_pipelined = [
            any(choice is Parallelism.PIPELINE for choice, _, _ in records)
            for records in layer_records
        ]

        def add_intra(layer, phase: str, deps: tuple[Task, ...]) -> tuple[Task, ...]:
            """The intra-layer exchanges strategies run in ``phase`` (mp's
            partial-sum reduction in forward, dp's gradient reduction)."""
            return add_communication(
                f"{phase}-intra/{layer.name}",
                [
                    intra if strategy_spec(choice).intra_phase == phase else 0.0
                    for choice, intra, _ in layer_records[layer.index]
                ],
                phase,
                layer.name,
                deps,
            )

        def add_inter(
            layer, destination: int, phase: str, deps: tuple[Task, ...]
        ) -> tuple[Task, ...]:
            """Re-layout across the edge ``layer -> destination``: the feature
            map in forward, the error in backward."""
            position = layers[destination].inputs.index(layer.index)
            direction = 1 if phase == "forward" else 2
            # Chains keep the single-name scheme (a layer has at most one
            # outgoing boundary); DAG fan-out needs the destination to keep
            # task names unique.
            name = f"{phase}-inter/{layer.name}"
            if not is_chain:
                name += f"->{layers[destination].name}"
            pipelined = layer_pipelined[layer.index] or layer_pipelined[destination]
            return add_communication(
                name,
                [incoming[position][direction] for _, _, incoming in layer_records[destination]],
                phase,
                layer.name,
                deps,
                chunks=self.num_microbatches if pipelined else 1,
            )

        # ------------------------------------------------------------------
        # Forward pass.  Every forward edge's gate is what the consumer's
        # compute waits on: the source's intra tail, or its boundary
        # re-layout when the array has levels.
        # ------------------------------------------------------------------

        forward_edge_gate: dict[tuple[int, int], tuple[Task, ...]] = {}
        tail: tuple[Task, ...] = ()
        for layer in layers:
            deps = tuple(
                task
                for source in layer.inputs
                for task in forward_edge_gate[(source, layer.index)]
            )
            tail = add_intra(layer, "forward", add_compute(layer, "forward", deps))
            for destination in layer_consumers[layer.index]:
                gate = add_inter(layer, destination, "forward", tail)
                forward_edge_gate[(layer.index, destination)] = gate
                if is_chain:
                    tail = gate

        # ------------------------------------------------------------------
        # Backward pass (error backward + gradient computation + update),
        # from the last layer towards the first.  A layer's backward waits
        # for every consumer's backward chain (branch joins respect the
        # fan-in), and its outgoing-edge error re-layouts are charged before
        # its gradient computation.
        # ------------------------------------------------------------------

        forward_final = tail
        backward_final: dict[int, tuple[Task, ...]] = {}
        for layer in reversed(layers):
            consumers = layer_consumers[layer.index]
            if consumers:
                deps = tuple(
                    task for destination in consumers for task in backward_final[destination]
                )
            else:
                deps = forward_final
            tail = add_compute(layer, "backward", deps)
            for destination in consumers:
                tail = add_inter(layer, destination, "backward", tail)
            if fabric.overlap_gradient:
                # The predecessor's backward needs only the propagated error;
                # the gradient work and its all-reduce drain alongside and
                # extend the step only if they finish last.
                backward_final[layer.index] = tail
            tail = add_intra(layer, "gradient", add_compute(layer, "gradient", tail))
            if not fabric.overlap_gradient:
                backward_final[layer.index] = tail

        schedule = engine.run()

        # One pass over the schedule instead of one scan per (phase, kind).
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
            topology_name=self.topology.name if self.topology is not None else "none",
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
