"""Spans around the calls into each ``repro`` layer, for traced runs.

The benchmark does not change the program: :func:`install` replaces a
fixed set of public functions and methods with timing wrappers, from the
benchmark's own files.  Every span records ``(op, id, parent, name, start,
end)``; spans nest per thread, and a span opened on a thread with no open
span (the daemon's request thread, embedded in traced service runs) hangs
off the root span of the current op.  A span's self time is its duration
minus the durations of its direct children.  Spans stay in memory and are
written out when the session ends.

Untraced runs never import this module.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

ROOT = "op"


class Tracer:
    """The spans and counters of one process, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        #: op -> class ("hit" / "miss" for service ops), for split shares.
        self.classes: dict[int, str] = {}
        self.op = 0
        self.root = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, op: int) -> float:
        self.op = op
        self.root = next(self._ids)
        return perf_counter()

    def end_op(self, start: float, end: float) -> float:
        self.spans.append((self.op, self.root, 0, ROOT, start, end))
        self.root = 0
        return end - start

    def add(self, name: str, start: float, end: float) -> None:
        """A child span of the current op measured elsewhere (a subprocess)."""
        self.spans.append((self.op, next(self._ids), self.root, name, start, end))

    def count(self, name: str, value: int = 1) -> None:
        if self.root:
            self.counts[name] += value

    def call(self, name: str, fn, *args, **kwargs):
        if not self.root:  # outside an op (set-up, warm-up): not traced
            return fn(*args, **kwargs)
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        span = next(self._ids)
        stack.append(span)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((self.op, span, parent, name, start, end))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for op, span, parent, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {"op": op, "id": span, "parent": parent, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )

    def summary(self, root_layer: str | None = None) -> dict:
        """Self seconds per span name for each op class, and the counters.

        Each class also holds ``"op"``, its ops' total duration.  A root
        span's self time belongs to ``root_layer`` (the service's
        transport), or else to ``"unattributed"``: time no layer covers.
        """
        children = defaultdict(float)
        for op, _, parent, _, start, end in self.spans:
            if parent:
                children[op, parent] += end - start
        by_class: dict[str, Counter] = defaultdict(Counter)
        for op, span, _, name, start, end in self.spans:
            seconds = by_class[self.classes.get(op, "all")]
            if name == ROOT:
                seconds["op"] += end - start
                name = root_layer or "unattributed"
            seconds[name] += end - start - children.get((op, span), 0.0)
        return {
            "self_seconds": {key: dict(value) for key, value in by_class.items()},
            "counts": dict(self.counts),
        }


def _replace_everywhere(original, replacement) -> None:
    """Rebind every ``repro`` module global that names ``original``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of each layer (once per process)."""
    from repro.core.costs import TableCache
    from repro.core.hierarchical import HierarchicalPartitioner
    from repro.interconnect.topology import Topology
    from repro.nn import model_zoo
    from repro.service.app import HyParService
    from repro.service.cache import ResultCache
    from repro.service.schemas import PartitionRequest, ServiceRequest, SimulateRequest
    from repro.sim import network
    from repro.sim.engine import EventDrivenEngine
    from repro.sim.training import TrainingSimulator
    from repro.sweep import artifacts, runner

    for original, name in (
        (model_zoo.get_model, "nn.model_build"),
        (network.flow_plans, "sim.flow_plans"),
        (runner.evaluate_point, "sweep.point"),
        (artifacts.payload_to_json, "sweep.render"),
    ):
        _replace_everywhere(original, tracer.wrap(name, original))

    for cls, method, name in (
        (Topology, "average_hops", "interconnect.metrics"),
        (Topology, "effective_pair_bandwidth", "interconnect.metrics"),
        (HierarchicalPartitioner, "partition", "core.search"),
        (runner.SweepRecord, "to_row", "sweep.render"),
        (HyParService, "handle", "service.handle"),
        (ServiceRequest, "cache_key", "service.schema"),
    ):
        setattr(cls, method, tracer.wrap(name, getattr(cls, method)))

    for cls in (PartitionRequest, SimulateRequest):
        parse = cls.__dict__["from_payload"].__func__
        cls.from_payload = classmethod(tracer.wrap("service.schema", parse))

    compile_table = TableCache.get_or_compile

    @functools.wraps(compile_table)
    def get_or_compile(self, *args, **kwargs):
        misses = self.misses
        table = tracer.call("core.table_compile", compile_table, self, *args, **kwargs)
        tracer.count("core.table_misses" if self.misses > misses else "core.table_hits")
        return table

    TableCache.get_or_compile = get_or_compile

    simulate = TrainingSimulator.simulate

    @functools.wraps(simulate)
    def traced_simulate(self, *args, **kwargs):
        engine = kwargs.get("sim_engine") or self.sim_engine
        return tracer.call(f"sim.{engine}", simulate, self, *args, **kwargs)

    TrainingSimulator.simulate = traced_simulate

    run = EventDrivenEngine.run

    @functools.wraps(run)
    def traced_run(self):
        schedule = tracer.call("sim.event_loop", run, self)
        tracer.count("sim.tasks", len(schedule.tasks))
        return schedule

    EventDrivenEngine.run = traced_run

    get_or_compute = ResultCache.get_or_compute

    @functools.wraps(get_or_compute)
    def traced_get_or_compute(self, key, compute):
        value, hit = tracer.call(
            "service.cache", get_or_compute, self, key, tracer.wrap("service.app", compute)
        )
        if tracer.root:
            tracer.count("service.cache_hits" if hit else "service.cache_misses")
            tracer.classes[tracer.op] = "hit" if hit else "miss"
        return value, hit

    ResultCache.get_or_compute = traced_get_or_compute


def importtime_groups(stderr: str) -> dict[str, float]:
    """Seconds of ``python -X importtime`` self time per package group.

    A module counts toward the nearest enclosing import (itself included)
    among ``numpy``, ``networkx`` and ``repro``; stdlib modules imported by
    ``repro`` count toward ``repro``.  Imports outside all three (the
    interpreter's own start-up) are left out: ``python -c pass`` covers them.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        head, _, name = line.split("|")
        own = head.split(":", 1)[1].strip()
        if not own.isdigit():  # the column header
            continue
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((depth, name.strip(), int(own)))
    groups: Counter = Counter()
    stack: list[tuple[int, str]] = []
    # importtime prints children before their parent; reversed, every
    # parent precedes its children.
    for depth, name, own in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        stack.append((depth, name))
        for _, enclosing in reversed(stack):
            top = enclosing.split(".", 1)[0]
            if top in ("numpy", "networkx", "repro"):
                groups[top] += own / 1e6
                break
    return dict(groups)
