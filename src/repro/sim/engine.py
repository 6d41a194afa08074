"""A small discrete-event scheduling engine.

The HyPar evaluation is an event-driven simulation (Section 6.1): the
execution of one training step is a directed acyclic graph of tasks
(compute passes, local-memory streaming, tensor exchanges) competing for
resources (the accelerators' processing units and the interconnect links at
each hierarchy level).  This module provides the generic machinery --
resources, tasks with dependencies, and an event queue that advances
simulated time -- and :mod:`repro.sim.training` builds the training-step
task graph on top of it.

The graph is held in flat columns indexed by task id (insertion
position): each task's duration, the ids of the resources it holds and
its *label*.  :meth:`EventDrivenEngine.add` is the one way to add a task;
a builder that splits a transfer into micro-batches adds the chunks as a
chain of tasks, each depending on the one before.  Tasks that name the
same tuple of dependency ids share one countdown, so a fan-in of ``m``
tasks onto one tuple of ``k`` dependencies costs ``k`` decrements
instead of ``m * k``; each distinct tuple is validated once, when its
first task is added.

A label carries what only a reader of the schedule needs: it is a tuple
whose first item is a function that maps the whole label to the task's
name and tags.  The event loop never reads it, and :attr:`Schedule.tasks`
describes the labels the first time it is read, so a builder that reads
only the scheduled times -- the training-step report -- never formats a
name or builds a tag dict.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, Iterable, List, NamedTuple


class SimulationError(RuntimeError):
    """Raised when the task graph cannot be scheduled (cycles, missing deps)."""


class Resource:
    """A serially reusable resource (a PU, a link, a DRAM channel).

    ``available_at`` tracks the simulated time at which the resource becomes
    free; tasks claiming the resource execute back to back in the order the
    engine starts them.  A plain ``__slots__`` class (identity-hashed, like
    the registry entries they are).
    """

    __slots__ = ("name", "available_at")

    def __init__(self, name: str, available_at: float = 0.0) -> None:
        self.name = name
        self.available_at = available_at

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Resource(name={self.name!r}, available_at={self.available_at!r})"


def describe(label: tuple) -> tuple[str, dict]:
    """The ``(name, tags)`` of the task that ``label`` stands for."""
    return label[0](label)


class ScheduledTask(NamedTuple):
    """Immutable record of one task's placement in the final schedule."""

    name: str
    start: float
    end: float
    tags: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


class Schedule:
    """Result of running the engine: per-task timings and the makespan.

    ``starts`` and ``ends`` hold the scheduled times by task id.  The
    :class:`ScheduledTask` records of :attr:`tasks`, in the same order, are
    built from the tasks' labels the first time :attr:`tasks` is read.
    """

    __slots__ = ("_starts", "_ends", "_labels", "_tasks")

    def __init__(self, tasks: Iterable[ScheduledTask] = ()) -> None:
        self._tasks = tuple(tasks)
        self._starts = tuple(task.start for task in self._tasks)
        self._ends = tuple(task.end for task in self._tasks)
        self._labels: tuple | None = None

    @classmethod
    def from_columns(
        cls, starts: Iterable[float], ends: Iterable[float], labels: Iterable[tuple]
    ) -> "Schedule":
        """A schedule whose records are described from ``labels`` when read."""
        schedule = cls.__new__(cls)
        schedule._starts = tuple(starts)
        schedule._ends = tuple(ends)
        schedule._labels = tuple(labels)
        schedule._tasks = None
        return schedule

    @property
    def starts(self) -> tuple[float, ...]:
        """Start time of every task, by task id."""
        return self._starts

    @property
    def ends(self) -> tuple[float, ...]:
        """End time of every task, by task id."""
        return self._ends

    @property
    def tasks(self) -> tuple[ScheduledTask, ...]:
        """Every task's record, in insertion order (built on first read)."""
        tasks = self._tasks
        if tasks is None:
            new = tuple.__new__
            tasks = self._tasks = tuple(
                new(ScheduledTask, (name, start, end, tags))
                for (name, tags), start, end in zip(
                    map(describe, self._labels), self._starts, self._ends
                )
            )
        return tasks

    @property
    def makespan(self) -> float:
        """Completion time of the last task (the simulated step latency)."""
        return max(self._ends, default=0.0)

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

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.tasks == other.tasks

    __hash__ = None

    def __repr__(self) -> str:
        return f"Schedule(tasks={self.tasks!r})"


class EventDrivenEngine:
    """Event-driven scheduler for a static task graph.

    Tasks are added by id with :meth:`add`; :meth:`run` then advances
    simulated time with an event queue: a task becomes *ready* when all
    its dependencies have completed, starts as soon as all its resources
    are free, and occupies those resources until it finishes.  Ready
    tasks contend for resources in the order they became ready (FIFO),
    which makes the schedule deterministic.
    """

    def __init__(self) -> None:
        #: Task columns, by task id.
        self._durations: List[float] = []
        self._claims: List[tuple[int, ...]] = []
        self._labels: List[tuple] = []
        self._resources: Dict[str, Resource] = {}
        #: Resource -> its id, in order of first claim.
        self._resource_ids: Dict[Resource, int] = {}
        # One group per distinct deps tuple, numbered in order of first
        # use: its first task, and its later tasks in insertion order.
        self._groups: Dict[tuple[int, ...], int] = {}
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

    def claims(self, resources: Iterable[Resource]) -> tuple[int, ...]:
        """The ids of ``resources`` in this engine, as :meth:`add` takes them."""
        ids = self._resource_ids
        claimed = []
        for resource in resources:
            index = ids.get(resource)
            if index is None:
                index = ids[resource] = len(ids)
            claimed.append(index)
        return tuple(claimed)

    def add(
        self,
        duration: float,
        claims: tuple[int, ...],
        deps: tuple[int, ...],
        label: tuple,
    ) -> int:
        """Add one task by id and return its id.

        ``claims`` are resource ids from :meth:`claims`, ``deps`` the ids
        of earlier tasks and ``label`` the task's deferred name and tags
        (see the module docstring).  Names are not checked for uniqueness:
        builders make them unique by construction.
        """
        if not duration >= 0:  # also rejects NaN, which would unorder the queue
            raise ValueError(f"task {describe(label)[0]!r}: duration must be non-negative")
        durations = self._durations
        index = len(durations)
        groups = self._groups
        count = len(groups)
        group = groups.setdefault(deps, count)
        if group == count:
            # A new deps tuple: validate it once and register its countdown.
            for dep in deps:
                if not 0 <= dep < index:
                    del groups[deps]
                    raise SimulationError(
                        f"task {describe(label)[0]!r} depends on unknown task id {dep!r}"
                    )
            dependants = self._dependants
            for dep in deps:
                waiting = dependants.get(dep)
                if waiting is None:
                    dependants[dep] = group
                elif waiting.__class__ is int:
                    dependants[dep] = [waiting, group]
                else:
                    waiting.append(group)
            self._first_member.append(index)
        else:
            more = self._more_members.get(group)
            if more is None:
                self._more_members[group] = [index]
            else:
                more.append(index)
        durations.append(duration)
        self._claims.append(claims)
        self._labels.append(label)
        return index

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
        its resources are free, and hold them until it ends.  Resources
        start from their ``available_at`` and are left at their last end.
        """
        durations = self._durations
        claims = self._claims
        first_member = self._first_member
        more_members = self._more_members
        dependants = self._dependants
        pending = [len(deps) for deps in self._groups]
        resources = list(self._resource_ids)
        available = [resource.available_at for resource in resources]
        starts: List[float | None] = [None] * len(durations)
        ends: List[float | None] = [None] * len(durations)
        counter = itertools.count()
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
                start = now
                held = claims[index]
                for resource in held:
                    free = available[resource]
                    if free > start:
                        start = free
                end = start + durations[index]
                for resource in held:
                    available[resource] = end
                starts[index] = start
                ends[index] = end
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

        for resource, free in zip(resources, available):
            resource.available_at = free
        if completed != len(durations):
            unscheduled = [
                describe(label)[0] for label, end in zip(self._labels, ends) if end is None
            ]
            raise SimulationError(
                f"task graph contains a dependency cycle; unscheduled tasks: {unscheduled}"
            )
        return Schedule.from_columns(starts, ends, self._labels)
