"""Tests for the discrete-event scheduling engine."""

import pytest

from repro.sim.engine import EventDrivenEngine, SimulationError


def _named(label):
    """Label of the tasks below: ``(_, name, tags)``."""
    return label[1], label[2]


def add(engine, name, duration, resources=(), deps=(), tags=None):
    """Add a task named ``name`` through :meth:`EventDrivenEngine.add`."""
    return engine.add(duration, engine.claims(resources), tuple(deps), (_named, name, tags or {}))


class TestBasicScheduling:
    def test_single_task(self):
        engine = EventDrivenEngine()
        add(engine, "only", 2.0)
        schedule = engine.run()
        assert schedule.makespan == pytest.approx(2.0)
        assert schedule.task("only").start == 0.0

    def test_independent_tasks_without_resources_run_in_parallel(self):
        engine = EventDrivenEngine()
        add(engine, "a", 3.0)
        add(engine, "b", 5.0)
        schedule = engine.run()
        assert schedule.makespan == pytest.approx(5.0)
        assert schedule.task("a").start == 0.0
        assert schedule.task("b").start == 0.0

    def test_empty_graph(self):
        assert EventDrivenEngine().run().makespan == 0.0

    def test_zero_duration_task(self):
        engine = EventDrivenEngine()
        add(engine, "noop", 0.0)
        assert engine.run().makespan == 0.0


class TestDependencies:
    def test_chain_is_serialised(self):
        engine = EventDrivenEngine()
        a = add(engine, "a", 1.0)
        b = add(engine, "b", 2.0, deps=(a,))
        add(engine, "c", 3.0, deps=(b,))
        schedule = engine.run()
        assert schedule.makespan == pytest.approx(6.0)
        assert schedule.task("b").start == pytest.approx(1.0)
        assert schedule.task("c").start == pytest.approx(3.0)

    def test_fan_in_waits_for_slowest_dependency(self):
        engine = EventDrivenEngine()
        fast = add(engine, "fast", 1.0)
        slow = add(engine, "slow", 4.0)
        add(engine, "join", 1.0, deps=(fast, slow))
        schedule = engine.run()
        assert schedule.task("join").start == pytest.approx(4.0)
        assert schedule.makespan == pytest.approx(5.0)

    def test_fan_out_runs_children_concurrently(self):
        engine = EventDrivenEngine()
        root = add(engine, "root", 1.0)
        add(engine, "left", 2.0, deps=(root,))
        add(engine, "right", 3.0, deps=(root,))
        schedule = engine.run()
        assert schedule.task("left").start == pytest.approx(1.0)
        assert schedule.task("right").start == pytest.approx(1.0)
        assert schedule.makespan == pytest.approx(4.0)

    def test_unknown_dependency_rejected(self):
        # Ids are insertion positions: a task depends only on ids below its own.
        with pytest.raises(SimulationError, match="task 'bad' depends on unknown task id 0"):
            add(EventDrivenEngine(), "bad", 1.0, deps=(0,))


class TestResources:
    def test_shared_resource_serialises_tasks(self):
        engine = EventDrivenEngine()
        link = engine.resource("link")
        add(engine, "a", 2.0, resources=(link,))
        add(engine, "b", 3.0, resources=(link,))
        schedule = engine.run()
        assert schedule.makespan == pytest.approx(5.0)

    def test_distinct_resources_do_not_interfere(self):
        engine = EventDrivenEngine()
        add(engine, "a", 2.0, resources=(engine.resource("r1"),))
        add(engine, "b", 3.0, resources=(engine.resource("r2"),))
        assert engine.run().makespan == pytest.approx(3.0)

    def test_resource_registry_returns_same_object(self):
        engine = EventDrivenEngine()
        assert engine.resource("pu") is engine.resource("pu")

    def test_task_claiming_two_resources_blocks_both(self):
        engine = EventDrivenEngine()
        r1, r2 = engine.resource("r1"), engine.resource("r2")
        add(engine, "both", 5.0, resources=(r1, r2))
        add(engine, "on_r1", 1.0, resources=(r1,))
        add(engine, "on_r2", 1.0, resources=(r2,))
        schedule = engine.run()
        assert schedule.makespan == pytest.approx(6.0)

    def test_resource_plus_dependency(self):
        engine = EventDrivenEngine()
        link = engine.resource("link")
        a = add(engine, "a", 2.0, resources=(link,))
        add(engine, "b", 1.0, resources=(link,), deps=(a,))
        add(engine, "c", 4.0, resources=(link,))
        schedule = engine.run()
        # All three share the link: total busy time is 7 regardless of order.
        assert schedule.makespan == pytest.approx(7.0)


class TestValidationAndReporting:
    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="task 'bad': duration must be non-negative"):
            add(EventDrivenEngine(), "bad", -1.0)

    def test_nan_duration_rejected(self):
        # A NaN end time would unorder the completion heap.
        with pytest.raises(ValueError, match="task 'bad': duration must be non-negative"):
            add(EventDrivenEngine(), "bad", float("nan"))

    # A dep on the task's own id is test_unknown_dependency_rejected.
    @pytest.mark.parametrize("deps", [(-1,), (0, 2)], ids=["negative", "later"])
    def test_dependency_not_below_the_task_id_rejected(self, deps):
        engine = EventDrivenEngine()
        add(engine, "a", 1.0)
        with pytest.raises(SimulationError, match="task 'bad' depends on unknown task id"):
            add(engine, "bad", 1.0, deps=deps)

    def test_rejected_deps_tuple_is_free_again(self):
        # The rejected task left nothing behind: its id and its deps
        # tuple's countdown are still free, so the same tuple is accepted
        # (and counted down) once every id in it exists.
        engine = EventDrivenEngine()
        add(engine, "a", 1.0)
        with pytest.raises(SimulationError):
            add(engine, "b", 2.0, deps=(0, 1))
        assert add(engine, "c", 3.0) == 1
        assert add(engine, "b", 2.0, deps=(0, 1)) == 2
        schedule = engine.run()
        assert [task.name for task in schedule.tasks] == ["a", "c", "b"]
        assert schedule.task("b").start == 3.0

    def test_missing_task_lookup_raises(self):
        engine = EventDrivenEngine()
        add(engine, "x", 1.0)
        schedule = engine.run()
        with pytest.raises(KeyError):
            schedule.task("y")

    def test_tags_preserved_and_queryable(self):
        engine = EventDrivenEngine()
        add(engine, "a", 1.0, tags={"phase": "forward"})
        add(engine, "b", 2.0, tags={"phase": "forward"})
        add(engine, "c", 4.0, tags={"phase": "backward"})
        schedule = engine.run()
        assert len(schedule.by_tag("phase", "forward")) == 2
        assert schedule.total_duration_by_tag("phase", "forward") == pytest.approx(3.0)
        assert schedule.total_duration_by_tag("phase", "backward") == pytest.approx(4.0)

    def test_scheduled_task_duration(self):
        engine = EventDrivenEngine()
        add(engine, "a", 2.5)
        task = engine.run().task("a")
        assert task.duration == pytest.approx(2.5)


class TestLargerGraphs:
    def test_diamond_with_resources(self):
        engine = EventDrivenEngine()
        pu = engine.resource("pu")
        source = add(engine, "source", 1.0, resources=(pu,))
        left = add(engine, "left", 2.0, resources=(pu,), deps=(source,))
        right = add(engine, "right", 2.0, resources=(pu,), deps=(source,))
        add(engine, "sink", 1.0, resources=(pu,), deps=(left, right))
        schedule = engine.run()
        # Everything shares one resource: 1 + 2 + 2 + 1.
        assert schedule.makespan == pytest.approx(6.0)

    def test_hundreds_of_tasks(self):
        engine = EventDrivenEngine()
        previous = None
        for index in range(500):
            deps = (previous,) if previous is not None else ()
            previous = add(engine, f"t{index}", 0.01, deps=deps)
        assert engine.run().makespan == pytest.approx(5.0)
