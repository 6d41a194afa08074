"""The training-step builder ``TrainingSimulator._run_step`` had before flat task columns.

Kept as the test oracle of the production builder: :class:`OracleSimulator`
is a :class:`~repro.sim.training.TrainingSimulator` whose ``_fabric`` and
``_run_step`` are the old ones, on the engine they ran on
(:class:`OracleEngine`, with a ``Task`` object, a name and a tag dict per
task, and every ``ScheduledTask`` record built by ``run``).  Its pass cache
is the old one, keyed by layer and work amounts.
``tests/properties/test_property_step_oracle.py`` checks that both give
equal records and reports, and ``benchmarks/bench_network_sim.py`` times
both on the same steps.
"""

from __future__ import annotations

import heapq
import itertools
from operator import attrgetter
from typing import Callable, Dict, Iterable, List, NamedTuple, Sequence

from repro.core.parallelism import Parallelism
from repro.core.strategies import strategy_spec
from repro.nn.model import DNNModel
from repro.sim.engine import Resource, Schedule, ScheduledTask, SimulationError
from repro.sim.metrics import EnergyBreakdown, PhaseBreakdown, TrainingStepReport
from repro.sim.network import flow_plans, link_classes
from repro.sim.training import PHASES, TrainingSimulator


class Task:
    """One unit of simulated work.

    Attributes
    ----------
    name:
        Unique task name (used in schedules and error messages).
    duration:
        Simulated execution time in seconds.
    resources:
        Resources the task occupies for its whole duration.
    deps:
        Tasks that must complete before this one may start.
    tags:
        Free-form key/value metadata (layer, phase, level, energy, ...)
        carried through to the schedule for reporting.
    start, end:
        The scheduled times, filled in by :meth:`OracleEngine.run`.
    """

    __slots__ = ("name", "duration", "resources", "deps", "tags", "start", "end")

    def __init__(
        self,
        name: str,
        duration: float,
        resources: tuple[Resource, ...] = (),
        deps: tuple["Task", ...] = (),
        tags: dict | None = None,
        start: float | None = None,
        end: float | None = None,
    ) -> None:
        self.name = name
        self.duration = duration
        self.resources = resources
        self.deps = deps
        self.tags = {} if tags is None else tags
        self.start = start
        self.end = end

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Task(name={self.name!r}, duration={self.duration!r})"


class OracleEngine:
    """Event-driven scheduler for a static task graph.

    Tasks are added with :meth:`add_task`; :meth:`run` then advances
    simulated time with an event queue: a task becomes *ready* when all its
    dependencies have completed, starts as soon as all its resources are
    free, and occupies those resources until it finishes.  Ready tasks
    contend for resources in the order they became ready (FIFO), which makes
    the schedule deterministic.
    """

    def __init__(self) -> None:
        self._tasks: List[Task] = []
        #: Task name -> insertion position, the task's integer id.
        self._ids: Dict[str, int] = {}
        self._resources: Dict[str, Resource] = {}
        self._counter = itertools.count()
        # One group per distinct deps tuple, numbered in order of first
        # use: its first task, and its later tasks in insertion order.
        self._groups: Dict[tuple[Task, ...], int] = {}
        self._first_member: List[int] = []
        self._more_members: Dict[int, List[int]] = {}
        #: Task id -> the group, or list of groups, that list the task among
        #: their deps.  Most tasks gate one group; holding that one as a
        #: plain int keeps the graph to the GC-tracked objects it needs.
        self._dependants: Dict[int, int | List[int]] = {}

    # ------------------------------------------------------------------
    # Graph construction.
    # ------------------------------------------------------------------

    def resource(self, name: str) -> Resource:
        """Get or create the named resource."""
        if name not in self._resources:
            self._resources[name] = Resource(name)
        return self._resources[name]

    def add_task(
        self,
        name: str,
        duration: float,
        resources: Iterable[Resource] = (),
        deps: Iterable[Task] = (),
        tags: dict | None = None,
    ) -> Task:
        """Add one task to the graph and return its handle."""
        if not duration >= 0:  # also rejects NaN, which would unorder the queue
            raise ValueError(f"task {name!r}: duration must be non-negative")
        ids = self._ids
        if name in ids:
            raise ValueError(f"duplicate task name {name!r}")
        task = Task(name, float(duration), tuple(resources), tuple(deps), dict(tags or {}))
        tasks = self._tasks
        index = len(tasks)
        groups = self._groups
        count = len(groups)
        group = groups.setdefault(task.deps, count)
        if group == count:
            # A new deps tuple: validate it once and register its countdown.
            for dep in task.deps:
                dep_id = ids.get(dep.name)
                if dep_id is None or tasks[dep_id] is not dep:
                    del groups[task.deps]
                    raise SimulationError(
                        f"task {name!r} depends on unknown task {dep.name!r}"
                    )
            dependants = self._dependants
            for dep in task.deps:
                dep_id = ids[dep.name]
                waiting = dependants.get(dep_id)
                if waiting is None:
                    dependants[dep_id] = group
                elif waiting.__class__ is int:
                    dependants[dep_id] = [waiting, group]
                else:
                    waiting.append(group)
            self._first_member.append(index)
        else:
            more = self._more_members.get(group)
            if more is None:
                self._more_members[group] = [index]
            else:
                more.append(index)
        tasks.append(task)
        ids[name] = index
        return task

    def add_microbatched_task(
        self,
        name: str,
        duration: float,
        chunks: int,
        resources: Iterable[Resource] = (),
        deps: Iterable[Task] = (),
        tags: dict | None = None,
    ) -> tuple[Task, Task]:
        """Split one task into ``chunks`` equal sequential micro-tasks.

        This is the engine-level primitive behind micro-batched pipeline
        transfers: the chunks chain on each other (and serialise on their
        resources), so the resource is occupied for the full ``duration``,
        but a downstream consumer that can proceed after the *first*
        micro-batch depends on the returned ``first`` task and overlaps
        the remaining ``chunks - 1`` chunks.  Returns ``(first, last)``;
        with ``chunks <= 1`` the task is added unsplit and returned as
        both.
        """
        if chunks <= 1:
            task = self.add_task(name, duration, resources, deps, tags)
            return task, task
        resources = tuple(resources)
        first: Task | None = None
        last: Task | None = None
        for index in range(chunks):
            task = self.add_task(
                f"{name}/mb{index}",
                duration / chunks,
                resources,
                deps if last is None else (last,),
                tags,
            )
            if first is None:
                first = task
            last = task
        return first, last

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------

    def run(self) -> Schedule:
        """Schedule every task and return the resulting :class:`Schedule`.

        Completions pop off one heap keyed ``(end, next(counter))``, so
        equal end times complete in the order their tasks started.  A task
        becomes ready when its last dependency completes, at that
        completion's time: event times never decrease, because every task
        starts no earlier than it became ready and durations are
        non-negative.  The tasks one completion releases start in insertion
        order -- the FIFO order of equal ready times -- each as soon as all
        its resources are free, and hold them until it ends.
        """
        tasks = self._tasks
        first_member = self._first_member
        more_members = self._more_members
        dependants = self._dependants
        pending = [len(deps) for deps in self._groups]
        counter = self._counter
        push = heapq.heappush
        pop = heapq.heappop
        events: List[tuple[float, int, int]] = []
        completed = 0

        # The tasks without dependencies form the group of ``()``.
        roots = self._groups.get(())
        released: List[int] = (
            [] if roots is None else [first_member[roots], *more_members.get(roots, ())]
        )
        now = 0.0
        while True:
            for index in released:
                task = tasks[index]
                start = now
                resources = task.resources
                for resource in resources:
                    available = resource.available_at
                    if available > start:
                        start = available
                end = start + task.duration
                for resource in resources:
                    resource.available_at = end
                task.start = start
                task.end = end
                push(events, (end, next(counter), index))
            if not events:
                break
            now, _, finished = pop(events)
            completed += 1
            released.clear()
            waiting = dependants.get(finished)
            if waiting is None:
                continue
            if waiting.__class__ is int:
                waiting = (waiting,)
            merged = False
            for group in waiting:
                left = pending[group] - 1
                pending[group] = left
                if not left:
                    if released:
                        merged = True
                    released.append(first_member[group])
                    more = more_members.get(group)
                    if more is not None:
                        released.extend(more)
            if merged:
                released.sort()

        if completed != len(tasks):
            unscheduled = [task.name for task in tasks if task.end is None]
            raise SimulationError(
                f"task graph contains a dependency cycle; unscheduled tasks: {unscheduled}"
            )
        # ``tuple.__new__`` mapped over zipped columns builds every record
        # in C (``ScheduledTask`` is a named tuple).
        records = zip(
            map(_name, tasks), map(_start, tasks), map(_end, tasks), map(_tags, tasks)
        )
        return Schedule(
            tasks=tuple(map(tuple.__new__, itertools.repeat(ScheduledTask), records))
        )


_name = attrgetter("name")
_start = attrgetter("start")
_end = attrgetter("end")
_tags = attrgetter("tags")


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


class OracleSimulator(TrainingSimulator):
    """A simulator that builds and runs every step the old way."""

    def _fabric(self, engine: OracleEngine, sim_engine: str) -> _Fabric:
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
        engine = OracleEngine()
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
