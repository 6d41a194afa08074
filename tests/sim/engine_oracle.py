"""The event loop ``EventDrivenEngine.run`` had before its integer-id rewrite.

Kept as the test oracle of the production loop: it walks ``Task`` objects,
counts down every task's own dependencies, recomputes each released
task's ready time from its dependencies' ends and scans resources with
``max``.  ``tests/properties/test_property_engine.py`` checks that both
loops give identical schedules, and ``benchmarks/bench_network_sim.py``
times them on the same task graph.

Like the original it writes ``Resource.available_at`` and each task's
``start``/``end`` as it goes, so run it on a freshly built graph (or reset
``available_at`` first).
"""

from __future__ import annotations

import heapq
from typing import Dict, List

from repro.sim.engine import (
    EventDrivenEngine,
    Schedule,
    ScheduledTask,
    SimulationError,
    Task,
)


def run(engine: EventDrivenEngine) -> Schedule:
    """Schedule every task of ``engine`` and return the resulting :class:`Schedule`."""
    tasks = engine._tasks
    remaining_deps: Dict[Task, int] = {task: len(task.deps) for task in tasks}
    dependants: Dict[Task, List[Task]] = {task: [] for task in tasks}
    for task in tasks:
        for dep in task.deps:
            dependants[dep].append(task)

    # ready_at[task] = simulated time at which all deps were satisfied.
    ready_queue: List[tuple[float, int, Task]] = []
    for task in tasks:
        if remaining_deps[task] == 0:
            heapq.heappush(ready_queue, (0.0, next(engine._counter), task))

    completion_events: List[tuple[float, int, Task]] = []
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
            heapq.heappush(
                completion_events, (task.end, next(engine._counter), task)
            )

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
                heapq.heappush(
                    ready_queue, (ready_at, next(engine._counter), dependant)
                )

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
