"""The event loop ``EventDrivenEngine.run`` had before its integer-id rewrite.

Kept as the test oracle of the production loop: it walks one record per
task, counts down every task's own dependencies, recomputes each released
task's ready time from its dependencies' ends and scans resources with
``max``.  :func:`tasks_of` rebuilds those records from the engine's task
columns (durations, resource ids, dependency groups and labels), and
:func:`run_tasks` is the old loop on them.
``tests/properties/test_property_engine.py`` checks that both loops give
identical schedules, and ``benchmarks/bench_network_sim.py`` times them on
the same task graph.

Like the original it writes ``Resource.available_at`` and each record's
``start``/``end`` as it goes, so run it on a freshly built graph (or reset
``available_at`` first).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, List

from repro.sim.engine import (
    EventDrivenEngine,
    Schedule,
    ScheduledTask,
    SimulationError,
    describe,
)


class OracleTask:
    """One task of an engine's graph, with its resources and deps resolved."""

    __slots__ = ("name", "duration", "resources", "deps", "tags", "start", "end")

    def __init__(self, name, duration, resources, deps, tags) -> None:
        self.name = name
        self.duration = duration
        self.resources = resources
        self.deps = deps
        self.tags = tags
        self.start = None
        self.end = None


def tasks_of(engine: EventDrivenEngine) -> List[OracleTask]:
    """One record per task of ``engine``, in insertion order."""
    resources = list(engine._resource_ids)
    deps_of: List[tuple[int, ...]] = [()] * len(engine._durations)
    for deps, group in engine._groups.items():
        for member in (engine._first_member[group], *engine._more_members.get(group, ())):
            deps_of[member] = deps
    tasks: List[OracleTask] = []
    for duration, claims, deps, label in zip(
        engine._durations, engine._claims, deps_of, engine._labels
    ):
        name, tags = describe(label)
        tasks.append(
            OracleTask(
                name,
                duration,
                tuple(resources[claim] for claim in claims),
                tuple(tasks[dep] for dep in deps),
                tags,
            )
        )
    return tasks


def run(engine: EventDrivenEngine) -> Schedule:
    """Schedule every task of ``engine`` and return the resulting :class:`Schedule`."""
    return run_tasks(tasks_of(engine))


def run_tasks(tasks: List[OracleTask]) -> Schedule:
    """Schedule the records of :func:`tasks_of` (the old loop itself)."""
    counter = itertools.count()
    remaining_deps: Dict[OracleTask, int] = {task: len(task.deps) for task in tasks}
    dependants: Dict[OracleTask, List[OracleTask]] = {task: [] for task in tasks}
    for task in tasks:
        for dep in task.deps:
            dependants[dep].append(task)

    # ready_at[task] = simulated time at which all deps were satisfied.
    ready_queue: List[tuple[float, int, OracleTask]] = []
    for task in tasks:
        if remaining_deps[task] == 0:
            heapq.heappush(ready_queue, (0.0, next(counter), task))

    completion_events: List[tuple[float, int, OracleTask]] = []
    completed = 0

    while ready_queue or completion_events:
        # Start every ready task whose resources allow it; because
        # resources serialise work by bumping ``available_at`` we can
        # start tasks eagerly in ready order.
        while ready_queue:
            ready_time, _, task = heapq.heappop(ready_queue)
            start = ready_time
            for resource in task.resources:
                start = max(start, resource.available_at)
            task.start = start
            task.end = start + task.duration
            for resource in task.resources:
                resource.available_at = task.end
            heapq.heappush(completion_events, (task.end, next(counter), task))

        if not completion_events:
            break
        end_time, _, finished = heapq.heappop(completion_events)
        completed += 1
        for dependant in dependants[finished]:
            remaining_deps[dependant] -= 1
            if remaining_deps[dependant] == 0:
                ready_at = max(
                    dep.end for dep in dependant.deps if dep.end is not None
                )
                heapq.heappush(ready_queue, (ready_at, next(counter), dependant))

    if completed != len(tasks):
        unscheduled = [t.name for t in tasks if t.end is None]
        raise SimulationError(
            f"task graph contains a dependency cycle; unscheduled tasks: {unscheduled}"
        )

    scheduled = tuple(
        ScheduledTask(name=t.name, start=t.start, end=t.end, tags=t.tags)
        for t in tasks
    )
    return Schedule(tasks=scheduled)
