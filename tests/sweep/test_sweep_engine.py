"""Tests for the sweep engine: deterministic chunking and serial/parallel parity."""

import concurrent.futures
import functools
import multiprocessing
import os
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.sweep.engine import (
    SweepEngine,
    chunk_tasks,
    default_workers,
    owned_engine,
    resolve_engine,
)
from repro.sweep.runner import evaluate_point
from repro.sweep.spec import SweepSpec


def _square(x: int) -> int:
    """Module-level task function (picklable for the process pool)."""
    return x * x


def _pid_task(_: int) -> int:
    return os.getpid()


def _slow_square(x: int) -> int:
    """Slow enough that shutdown can race an in-flight map."""
    time.sleep(0.05)
    return x * x


class TestChunking:
    def test_chunks_cover_every_task_in_order(self):
        spans = chunk_tasks(10, 3)
        assert spans == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_chunking_is_a_pure_function_of_count_and_size(self):
        assert chunk_tasks(100, 7) == chunk_tasks(100, 7)

    def test_single_chunk_when_size_covers_everything(self):
        assert chunk_tasks(4, 100) == [(0, 4)]

    def test_rejects_non_positive_chunk_size(self):
        with pytest.raises(ValueError):
            chunk_tasks(10, 0)


class TestSerialEngine:
    def test_map_preserves_task_order(self):
        engine = SweepEngine.serial()
        assert engine.map(_square, range(10)) == [x * x for x in range(10)]

    def test_map_accepts_closures_in_process(self):
        engine = SweepEngine.serial()
        offset = 7
        assert engine.map(lambda x: x + offset, [1, 2, 3]) == [8, 9, 10]

    def test_empty_task_list(self):
        assert SweepEngine.serial().map(_square, []) == []

    def test_rejects_non_positive_workers(self):
        with pytest.raises(ValueError):
            SweepEngine(workers=0)

    def test_default_workers_positive(self):
        assert default_workers() >= 1


class TestParallelEngine:
    def test_parallel_matches_serial_exactly(self):
        tasks = list(range(23))
        serial = SweepEngine.serial().map(_square, tasks)
        with SweepEngine(workers=2) as engine:
            parallel = engine.map(_square, tasks)
        assert parallel == serial

    def test_results_in_task_order_whatever_the_chunking(self):
        tasks = list(range(17))
        with SweepEngine(workers=2, chunk_size=1) as engine:
            assert engine.map(_square, tasks) == [x * x for x in tasks]

    def test_pool_reused_across_maps(self):
        with SweepEngine(workers=2) as engine:
            first = set(engine.map(_pid_task, range(8)))
            second = set(engine.map(_pid_task, range(8)))
        assert first & second, "the worker pool should persist between map calls"
        assert os.getpid() not in first

    def test_close_is_idempotent(self):
        engine = SweepEngine(workers=2)
        engine.map(_square, [1])
        engine.close()
        engine.close()


class TestShutdownSafety:
    """Regressions for the signal-safe, idempotent pool teardown.

    A SIGTERM'd ``hypar serve`` (and the CI teardown) closes the engine
    from a thread other than the one mapping on it, possibly more than
    once; none of these paths may leak a ``ProcessPoolExecutor``, orphan
    a worker, or corrupt results.
    """

    def test_double_close_with_a_live_pool(self):
        engine = SweepEngine(workers=2)
        engine.map(_square, range(8))
        engine.close()
        assert engine._executor is None
        engine.close()
        assert engine._executor is None

    def test_concurrent_closes_from_many_threads(self):
        engine = SweepEngine(workers=2)
        engine.map(_square, range(8))
        threads = [threading.Thread(target=engine.close) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
        assert engine._executor is None

    def test_close_after_degrade_to_serial_is_a_no_op(self):
        engine = SweepEngine(workers=2)
        engine._pool_broken = True  # simulate a sandbox without fork
        assert engine.map(_square, [1, 2, 3]) == [1, 4, 9]
        engine.close()
        engine.close()
        assert engine._executor is None

    def test_closed_engine_never_respawns_a_pool(self):
        # A request thread still draining during daemon teardown must not
        # bring the worker pool back from the dead; it finishes serially.
        engine = SweepEngine(workers=2)
        engine.map(_square, range(8))
        engine.close()
        assert engine.map(_square, range(8)) == [x * x for x in range(8)]
        assert engine._executor is None
        assert not engine.pool_active

    def test_close_racing_an_inflight_map_keeps_results_correct(self):
        engine = SweepEngine(workers=2, chunk_size=1)
        tasks = list(range(12))
        results: list[list[int]] = []

        def run():
            results.append(engine.map(_slow_square, tasks))

        mapper = threading.Thread(target=run)
        mapper.start()
        time.sleep(0.1)
        engine.close()
        mapper.join(60.0)
        assert not mapper.is_alive()
        # Whether the pool finished the map, was cancelled mid-flight
        # (serial rerun), or never spawned, the results are identical.
        assert results == [[x * x for x in tasks]]
        assert engine._executor is None


class TestFaultHarness:
    """Worker-kill chaos against the engine's serial-fallback guarantee."""

    def test_killed_worker_degrades_to_a_byte_identical_serial_run(self):
        from repro.resilience.faults import FaultPlan, faulty_map

        plan = FaultPlan(kill_tasks=(3,))
        tasks = list(range(10))
        expected = faulty_map(SweepEngine.serial(), _square, tasks, plan)
        assert expected == [x * x for x in tasks]
        with SweepEngine(workers=2) as engine:
            with pytest.warns(RuntimeWarning, match="process pool failed"):
                degraded = faulty_map(engine, _square, tasks, plan)
            assert degraded == expected
            assert engine.pool_active is False
            assert engine.pool_degraded is True

    def test_closed_engine_survives_fault_load_without_respawning(self):
        from repro.resilience.faults import FaultPlan, faulty_map

        plan = FaultPlan(kill_tasks=(0,))
        engine = SweepEngine(workers=2)
        engine.map(_square, range(4))
        engine.close()
        # Post-close maps run in the parent process, where the kill
        # wrapper never fires: correct results, no resurrected pool.
        results = faulty_map(engine, _square, list(range(6)), plan)
        assert results == [x * x for x in range(6)]
        assert engine._executor is None
        assert not engine.pool_active

    def test_degraded_flag_stays_clear_on_healthy_runs(self):
        with SweepEngine(workers=2) as engine:
            engine.map(_square, range(4))
            assert engine.pool_degraded is False
            assert engine.pool_active is True


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_fresh_interpreter_workers_match_the_serial_points(method, monkeypatch):
    """Workers that import :mod:`repro` from scratch compute the serial points.

    The pool is built with no initializer: a worker needs no state from
    the parent process.  Under ``spawn`` and ``forkserver`` every worker
    is a new interpreter rather than a fork, and its grid points must
    still equal the in-process ones exactly.
    """
    context = multiprocessing.get_context(method)
    # The engine imports ProcessPoolExecutor where it creates the pool, so
    # the start method is set on concurrent.futures itself.
    monkeypatch.setattr(
        concurrent.futures,
        "ProcessPoolExecutor",
        functools.partial(ProcessPoolExecutor, mp_context=context),
    )
    spec = SweepSpec.from_json(
        {"name": "fresh", "models": ["SFC", "Lenet-c"], "batch_sizes": [64], "array_sizes": [4]}
    )
    serial = SweepEngine.serial().map(evaluate_point, spec.points())
    with warnings.catch_warnings():
        # A failed pool falls back to the serial path with a warning, which
        # would hide the workers under test.
        warnings.simplefilter("error", RuntimeWarning)
        with SweepEngine(workers=2) as engine:
            assert engine.map(evaluate_point, spec.points()) == serial
            assert engine.pool_active is True


class TestResolveEngine:
    def test_none_is_serial(self):
        assert resolve_engine(None).workers == 1

    def test_int_is_worker_count(self):
        engine = resolve_engine(3)
        assert engine.workers == 3
        engine.close()

    def test_engine_passes_through(self):
        engine = SweepEngine.serial()
        assert resolve_engine(engine) is engine


class TestOwnedEngine:
    def test_closes_pools_it_created_from_a_worker_count(self):
        with owned_engine(2) as engine:
            engine.map(_square, range(4))
            assert engine._executor is not None
        # The pool created by the normalization must not outlive the block.
        assert engine._executor is None

    def test_leaves_caller_owned_engines_open(self):
        external = SweepEngine(workers=2)
        try:
            with owned_engine(external) as engine:
                assert engine is external
                engine.map(_square, range(4))
            assert external._executor is not None
        finally:
            external.close()
