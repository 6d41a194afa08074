"""Property-based tests for the discrete-event engine.

``TestMatchesTheKeptOracle`` checks the integer-id event loop against the
loop it replaced, kept in ``tests/sim/engine_oracle.py``: both must give
the same names, bit-identical start and end times and the same tags.
"""

import importlib.util
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import EventDrivenEngine


def _load_oracle():
    path = Path(__file__).resolve().parents[1] / "sim" / "engine_oracle.py"
    spec = importlib.util.spec_from_file_location("engine_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.run


oracle_run = _load_oracle()

durations = st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False)


@st.composite
def random_task_graphs(draw):
    """Random DAGs: each task may depend on any subset of earlier tasks and
    use one of a few shared resources."""
    num_tasks = draw(st.integers(min_value=1, max_value=15))
    num_resources = draw(st.integers(min_value=0, max_value=3))
    graph = []
    for index in range(num_tasks):
        deps = sorted(
            draw(
                st.sets(
                    st.integers(min_value=0, max_value=index - 1), max_size=min(index, 3)
                )
            )
        ) if index else []
        resource = (
            draw(st.integers(min_value=0, max_value=num_resources - 1))
            if num_resources
            else None
        )
        graph.append((draw(durations), deps, resource))
    return graph


def _named(label):
    """Label of the tasks below: ``(_, name, tags)``."""
    return label[1], label[2]


def _build(engine, graph):
    for index, (duration, deps, resource) in enumerate(graph):
        resources = (engine.resource(f"r{resource}"),) if resource is not None else ()
        engine.add(duration, engine.claims(resources), tuple(deps), (_named, f"t{index}", {}))


class TestScheduleInvariants:
    @settings(max_examples=100, deadline=None)
    @given(random_task_graphs())
    def test_all_tasks_scheduled_with_correct_durations(self, graph):
        engine = EventDrivenEngine()
        _build(engine, graph)
        schedule = engine.run()
        assert len(schedule.tasks) == len(graph)
        for index, (duration, _, _) in enumerate(graph):
            task = schedule.task(f"t{index}")
            assert abs(task.duration - duration) < 1e-9
            assert task.start >= 0

    @settings(max_examples=100, deadline=None)
    @given(random_task_graphs())
    def test_dependencies_respected(self, graph):
        engine = EventDrivenEngine()
        _build(engine, graph)
        schedule = engine.run()
        for index, (_, deps, _) in enumerate(graph):
            task = schedule.task(f"t{index}")
            for dep in deps:
                assert schedule.task(f"t{dep}").end <= task.start + 1e-9

    @settings(max_examples=100, deadline=None)
    @given(random_task_graphs())
    def test_resources_never_double_booked(self, graph):
        engine = EventDrivenEngine()
        _build(engine, graph)
        schedule = engine.run()
        by_resource = {}
        for index, (_, _, resource) in enumerate(graph):
            if resource is None:
                continue
            by_resource.setdefault(resource, []).append(schedule.task(f"t{index}"))
        for tasks in by_resource.values():
            intervals = sorted((t.start, t.end) for t in tasks)
            for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
                assert e1 <= s2 + 1e-9

    @settings(max_examples=100, deadline=None)
    @given(random_task_graphs())
    def test_makespan_bounds(self, graph):
        engine = EventDrivenEngine()
        _build(engine, graph)
        schedule = engine.run()
        total = sum(duration for duration, _, _ in graph)
        longest = max(duration for duration, _, _ in graph)
        assert longest - 1e-9 <= schedule.makespan <= total + 1e-9

    @settings(max_examples=50, deadline=None)
    @given(random_task_graphs())
    def test_serial_resource_busy_time_bounded_by_makespan(self, graph):
        engine = EventDrivenEngine()
        _build(engine, graph)
        schedule = engine.run()
        busy = {}
        for index, (duration, _, resource) in enumerate(graph):
            if resource is not None:
                busy[resource] = busy.get(resource, 0.0) + duration
        for total_busy in busy.values():
            assert total_busy <= schedule.makespan + 1e-9


@st.composite
def tied_task_graphs(draw):
    """Random DAGs aimed at every release path of the event loop.

    Tasks often reuse an earlier deps tuple (one shared countdown for
    several tasks), list a dependency twice, claim any subset of three
    shared resources, split into micro-batch chunks, and draw durations
    from a few values including zero, so ready and end times tie often.
    """
    num_tasks = draw(st.integers(min_value=1, max_value=24))
    num_resources = draw(st.integers(min_value=0, max_value=3))
    deps_pool = [()]
    graph = []
    for index in range(num_tasks):
        if draw(st.booleans()):
            deps = draw(st.sampled_from(deps_pool))
        else:
            deps = tuple(
                draw(
                    st.lists(
                        st.integers(min_value=0, max_value=index - 1),
                        max_size=min(index, 4),
                    )
                )
            ) if index else ()
            deps_pool.append(deps)
        resources = tuple(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=num_resources - 1),
                    max_size=num_resources,
                    unique=True,
                )
            )
        ) if num_resources else ()
        duration = draw(st.sampled_from((0.0, 0.5, 1.0, 1.5, 3.0)))
        chunks = draw(st.sampled_from((1, 1, 1, 2, 3)))
        graph.append((duration, deps, resources, chunks))
    return graph


def _build_tied(graph) -> EventDrivenEngine:
    """Each task of ``graph`` as ``chunks`` chained micro-batch tasks
    named ``t<index>/mb<chunk>`` (one unsplit ``t<index>`` when
    ``chunks`` is 1); a dependant waits on the last chunk."""
    engine = EventDrivenEngine()
    lasts = []
    for index, (duration, deps, resources, chunks) in enumerate(graph):
        claims = engine.claims(engine.resource(f"r{r}") for r in resources)
        tags = {"index": index, "chunks": chunks}
        gate = tuple(lasts[d] for d in deps)
        for chunk in range(chunks):
            name = f"t{index}" if chunks == 1 else f"t{index}/mb{chunk}"
            gate = (engine.add(duration / chunks, claims, gate, (_named, name, tags)),)
        lasts.append(gate[0])
    return engine


def _timings(schedule):
    return [
        (task.name, task.start.hex(), task.end.hex(), task.tags)
        for task in schedule.tasks
    ]


class TestMatchesTheKeptOracle:
    @settings(max_examples=300, deadline=None)
    @given(tied_task_graphs())
    def test_tied_graphs(self, graph):
        expected = _timings(oracle_run(_build_tied(graph)))
        assert _timings(_build_tied(graph).run()) == expected

    @settings(max_examples=100, deadline=None)
    @given(random_task_graphs())
    def test_random_durations(self, graph):
        oracle_engine = EventDrivenEngine()
        _build(oracle_engine, graph)
        engine = EventDrivenEngine()
        _build(engine, graph)
        assert _timings(engine.run()) == _timings(oracle_run(oracle_engine))
