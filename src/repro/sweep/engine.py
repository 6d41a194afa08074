"""Process-parallel map engine behind every figure sweep.

The paper's evaluation is a grid of independent points (ten networks x
topologies x scaling modes x batch sizes); each `repro.analysis` study used
to run its own serial loop over its slice of that grid.  The engine factors
the loop out once:

* :meth:`SweepEngine.map` applies a task function to a list of tasks and
  returns the results *in task order*;
* tasks are split into deterministic contiguous chunks (a pure function of
  the task count and the chunk size, never of scheduling), each chunk runs
  on one worker, and the flattened result list is therefore identical
  whatever the worker count;
* with ``workers=1`` (the default) no process pool is involved at all --
  the same chunks run in-process, so the serial path is the parallel
  path's oracle;
* when a pool cannot be created (sandboxes without ``fork`` /
  ``/dev/shm``), the engine degrades to the serial path instead of
  failing.

Because every task value is computed independently of its siblings, the
per-point floats -- and hence every figure assembled from them -- are
byte-identical between the serial and process-parallel runs; the parity is
pinned by ``tests/sweep/test_sweep_engine.py``.

Worker processes warm their own process-global caches (see
:mod:`repro.sweep.cache`): the first task of a configuration compiles the
shared cost table, subsequent tasks gather from it.  With the default
``fork`` start method workers also inherit whatever the parent had already
compiled.
"""

from __future__ import annotations

import contextlib
import os
import threading
import warnings
from concurrent.futures import BrokenExecutor, CancelledError, Executor
from typing import Callable, Iterator, Sequence, TypeVar

Task = TypeVar("Task")
Result = TypeVar("Result")

#: Target chunks per worker: small enough to amortize the per-chunk IPC,
#: large enough to balance uneven per-task latencies (VGG-E vs Lenet-c).
_CHUNKS_PER_WORKER = 4


def default_workers() -> int:
    """Worker count used by ``workers=None``: one per available CPU."""
    return max(1, os.cpu_count() or 1)


def chunk_tasks(num_tasks: int, chunk_size: int) -> list[tuple[int, int]]:
    """Deterministic contiguous ``(start, stop)`` chunks covering the tasks.

    A pure function of ``(num_tasks, chunk_size)`` -- scheduling, worker
    count and machine load never influence which tasks share a chunk, so
    re-running a sweep always groups (and orders) the work identically.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    return [
        (start, min(start + chunk_size, num_tasks))
        for start in range(0, num_tasks, chunk_size)
    ]


def _run_chunk(payload: tuple[Callable, list]) -> list:
    """Executed on a worker: apply the task function to one chunk, in order."""
    fn, chunk = payload
    return [fn(task) for task in chunk]


class SweepEngine:
    """Maps task functions over task lists, serially or process-parallel.

    Parameters
    ----------
    workers:
        Worker processes.  ``1`` (default) runs in-process with no pool;
        ``None`` uses one worker per CPU.  For ``workers > 1`` the task
        function must be a module-level callable and tasks/results must be
        picklable (the standard ``concurrent.futures`` contract).
    chunk_size:
        Tasks per chunk; defaults to an even split into
        ``workers * 4`` chunks.  Chunking is deterministic either way.

    The engine keeps its pool alive across :meth:`map` calls (sweeps issue
    one map per study), so worker-side caches stay warm; use the context
    manager form or :meth:`close` to release the processes.
    """

    def __init__(
        self,
        workers: int | None = 1,
        chunk_size: int | None = None,
    ) -> None:
        if workers is None:
            workers = default_workers()
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if chunk_size is not None and chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        self.workers = workers
        self.chunk_size = chunk_size
        self._executor: Executor | None = None
        self._pool_broken = False
        self._closed = False
        # Guards executor creation/teardown: close() may race a map() from
        # another thread or fire twice (signal handler + finally block).
        self._lifecycle = threading.Lock()

    @classmethod
    def serial(cls) -> "SweepEngine":
        """The in-process engine (the byte-identity oracle)."""
        return cls(workers=1)

    # ------------------------------------------------------------------
    # Mapping.
    # ------------------------------------------------------------------

    def map(self, fn: Callable[[Task], Result], tasks: Sequence[Task]) -> list[Result]:
        """``[fn(task) for task in tasks]``, possibly across processes.

        Results come back in task order regardless of worker scheduling.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        chunk_size = self.chunk_size or max(
            1, -(-len(tasks) // (self.workers * _CHUNKS_PER_WORKER))
        )
        spans = chunk_tasks(len(tasks), chunk_size)
        chunks = [tasks[start:stop] for start, stop in spans]

        if self.workers > 1 and len(tasks) > 1:
            executor = self._ensure_executor()
            if executor is not None:
                payloads = [(fn, chunk) for chunk in chunks]
                try:
                    grouped = list(executor.map(_run_chunk, payloads))
                except (OSError, BrokenExecutor, CancelledError) as error:
                    # ProcessPoolExecutor spawns its workers lazily inside
                    # map, so fork/clone failures surface here rather than
                    # at construction; degrade like a construction failure.
                    # CancelledError means close() cancelled our pending
                    # chunks from another thread (signal-driven teardown).
                    # (Task results are per-point pure, so the serial rerun
                    # below is identical to what the pool would have done.)
                    warnings.warn(
                        f"process pool failed ({error!r}); running the sweep serially",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    self._pool_broken = True
                    self.close()
                except RuntimeError as error:
                    # "cannot schedule new futures after (interpreter)
                    # shutdown": the pool was closed under us.  Anything
                    # else is a genuine task failure and propagates.
                    if "shutdown" not in str(error):
                        raise
                    warnings.warn(
                        f"process pool closed mid-sweep ({error}); "
                        "running the sweep serially",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    self._pool_broken = True
                    self.close()
                else:
                    return [result for group in grouped for result in group]

        return [result for chunk in chunks for result in _run_chunk((fn, chunk))]

    # ------------------------------------------------------------------
    # Pool lifecycle.
    # ------------------------------------------------------------------

    def _ensure_executor(self) -> Executor | None:
        with self._lifecycle:
            if self._executor is not None or self._pool_broken or self._closed:
                return self._executor
            try:
                # Imported here: it loads multiprocessing, which a serial
                # engine (every cold CLI command) never needs.
                from concurrent.futures import ProcessPoolExecutor

                self._executor = ProcessPoolExecutor(max_workers=self.workers)
            except (OSError, ValueError, NotImplementedError) as error:
                # No usable multiprocessing primitives (restricted sandboxes):
                # degrade to the serial path, which produces identical results.
                warnings.warn(
                    f"process pool unavailable ({error}); running the sweep serially",
                    RuntimeWarning,
                    stacklevel=3,
                )
                self._pool_broken = True
            return self._executor

    @property
    def pool_active(self) -> bool:
        """Whether a live process pool is attached.

        ``False`` before the first parallel :meth:`map` and after a
        degrade-to-serial fallback -- callers gating on parallel behaviour
        (the speedup bench) check this instead of assuming the pool came up.
        """
        return self._executor is not None and not self._pool_broken

    @property
    def pool_degraded(self) -> bool:
        """Whether the engine has fallen back (or will fall back) to serial.

        Set when a pool could not be created or broke mid-map (worker
        killed, sandbox without ``fork``); results remain identical via
        the serial path.  Surfaced by the service's ``/healthz`` as the
        ``degraded`` flag so orchestrators can react.
        """
        return self._pool_broken

    def close(self) -> None:
        """Shut the worker pool down (idempotent, thread- and signal-safe).

        Safe to call repeatedly, from several threads at once, or from
        signal-*driven* teardown racing an in-flight :meth:`map` -- the
        ``hypar serve`` pattern, where the signal handler only sets an
        event and the main thread calls ``close()`` after the serve loop
        exits.  (Do not call ``close()`` from *inside* a signal handler:
        the handler runs on the interrupted thread's stack and would
        deadlock if that thread holds the lifecycle lock.)  Exactly one
        caller takes ownership
        of the executor, pending chunk futures are cancelled so shutdown
        cannot wait on work nobody will consume, and every other caller
        returns immediately.  No ``ProcessPoolExecutor`` or worker process
        outlives the call, and a closed engine never re-spawns one -- any
        straggler :meth:`map` (a request thread still draining during
        daemon teardown) runs its tasks serially, with identical results.
        """
        with self._lifecycle:
            executor, self._executor = self._executor, None
            self._closed = True
        if executor is not None:
            try:
                executor.shutdown(wait=True, cancel_futures=True)
            except RuntimeError:  # pragma: no cover - interpreter teardown
                # Late interpreter shutdown can no longer join threads;
                # the executor's own atexit hook reaps the workers.
                pass

    def __enter__(self) -> "SweepEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SweepEngine(workers={self.workers})"


def resolve_engine(engine: "SweepEngine | int | None") -> SweepEngine:
    """Normalize the ``engine`` parameter the studies accept.

    ``None`` means the serial engine (the historical behaviour of every
    study); an integer is shorthand for ``SweepEngine(workers=n)``.
    Callers that may receive an int should prefer :func:`owned_engine`,
    which also closes any pool created by the normalization.
    """
    if engine is None:
        return SweepEngine.serial()
    if isinstance(engine, int):
        return SweepEngine(workers=engine)
    return engine


@contextlib.contextmanager
def owned_engine(engine: "SweepEngine | int | None") -> Iterator[SweepEngine]:
    """Resolve ``engine``, closing it afterwards iff it was created here.

    An explicitly constructed :class:`SweepEngine` passes through
    untouched (its owner decides when to release the pool); ``None`` or a
    worker count yields a locally owned engine whose processes are shut
    down on exit, so ``run_study(engine=4)`` cannot leak a pool.
    """
    resolved = resolve_engine(engine)
    try:
        yield resolved
    finally:
        if resolved is not engine:
            resolved.close()
