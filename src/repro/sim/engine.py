"""A small discrete-event scheduling engine.

The HyPar evaluation is an event-driven simulation (Section 6.1): the
execution of one training step is a directed acyclic graph of tasks
(compute passes, local-memory streaming, tensor exchanges) competing for
resources (the accelerators' processing units and the interconnect links at
each hierarchy level).  This module provides the generic machinery --
resources, tasks with dependencies, and an event queue that advances
simulated time -- and :mod:`repro.sim.training` builds the training-step
task graph on top of it.

The event loop works on integer task ids (insertion positions) and flat
lists.  Tasks that name the same dependency tuple share one countdown, so
a fan-in of ``m`` tasks onto one tuple of ``k`` dependencies costs ``k``
decrements instead of ``m * k``; each distinct tuple is validated once,
when its first task is added.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
from operator import attrgetter
from typing import Dict, Iterable, List, NamedTuple


class SimulationError(RuntimeError):
    """Raised when the task graph cannot be scheduled (cycles, missing deps)."""


class Resource:
    """A serially reusable resource (a PU, a link, a DRAM channel).

    ``available_at`` tracks the simulated time at which the resource becomes
    free; tasks claiming the resource execute back to back in the order the
    engine starts them.  A plain ``__slots__`` class (identity-hashed, like
    the registry entries they are): simulations create one task graph per
    sweep point, so attribute access and allocation are on the hot path.
    """

    __slots__ = ("name", "available_at")

    def __init__(self, name: str, available_at: float = 0.0) -> None:
        self.name = name
        self.available_at = available_at

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Resource(name={self.name!r}, available_at={self.available_at!r})"


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
        The scheduled times, filled in by :meth:`EventDrivenEngine.run`.
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


class ScheduledTask(NamedTuple):
    """Immutable record of one task's placement in the final schedule.

    A named tuple, so :meth:`EventDrivenEngine.run` can build every record
    in C: a schedule holds one per task.
    """

    name: str
    start: float
    end: float
    tags: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclasses.dataclass(frozen=True)
class Schedule:
    """Result of running the engine: per-task timings and the makespan."""

    tasks: tuple[ScheduledTask, ...]

    @property
    def makespan(self) -> float:
        """Completion time of the last task (the simulated step latency)."""
        return max((task.end for task in self.tasks), default=0.0)

    def by_tag(self, key: str, value) -> list[ScheduledTask]:
        """All scheduled tasks whose ``tags[key]`` equals ``value``."""
        return [task for task in self.tasks if task.tags.get(key) == value]

    def total_duration_by_tag(self, key: str, value) -> float:
        """Summed durations of the tasks selected by :meth:`by_tag`."""
        return sum(task.duration for task in self.by_tag(key, value))

    def task(self, name: str) -> ScheduledTask:
        for task in self.tasks:
            if task.name == name:
                return task
        raise KeyError(f"no task named {name!r} in schedule")


class EventDrivenEngine:
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
