"""Cost of the contention-aware network engine (informational).

The discrete-event network simulator prices real link occupancy --
routed per-link queueing and compute/comm overlap -- which the
closed-form analytic engine folds into one shared level resource.  These benches record what that fidelity costs: the wall time of
one simulated training step under each engine and their ratio, plus the
full congestion-study grid (the artifact CI pins against its golden).

The large-array cases time one searched VGG-A step at 1024 accelerators
on each topology, then time the event loop against the loop it replaced
(kept as a test oracle in ``tests/sim/engine_oracle.py``) on that step's
task graph, and record the graph's task and resource-incidence counts.

The recorded ``network_vs_analytic_slowdown`` and
``run_speedup_vs_oracle`` are informational -- there is no acceptance
floor: the engine trades simulation speed for routed-link fidelity by
design, and an in-run ratio this close to 1x cannot be a floor that holds
on every host.  Only the generic mean-latency threshold of
``scripts/check_bench_regression.py`` gates catastrophic blowups.
"""

from __future__ import annotations

import importlib.util
import os
import time

import pytest

from repro.accelerator.array import ArrayConfig
from repro.analysis.congestion_study import run_congestion_study
from repro.core.hierarchical import HierarchicalPartitioner
from repro.interconnect import HTreeTopology, TorusTopology
from repro.nn.model_zoo import alexnet, vgg_a
from repro.sim.engine import EventDrivenEngine
from repro.sim.training import TrainingSimulator

from conftest import emit


def _engine_oracle():
    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "tests",
        "sim",
        "engine_oracle.py",
    )
    spec = importlib.util.spec_from_file_location("engine_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.run


def _paper_platform(sim_engine: str) -> TrainingSimulator:
    array = ArrayConfig()
    topology = HTreeTopology(array.num_accelerators, array.link_bandwidth_bytes)
    return TrainingSimulator(array, topology, sim_engine=sim_engine)


def test_network_step_alexnet(benchmark):
    """One AlexNet training step through the network engine (paper platform)."""
    model = alexnet()
    network = _paper_platform("network")
    analytic = _paper_platform("analytic")
    table = network.cost_table(model, 256)
    assignment = HierarchicalPartitioner(num_levels=4).partition(
        model, 256, table=table
    ).assignment

    report = benchmark(
        network.simulate, model, assignment, 256, "HyPar", cost_table=table
    )

    # Time the analytic engine on the same step in-process, so the JSON
    # carries the measured engine-overhead ratio rather than a number
    # transcribed from an old run.
    start = time.perf_counter()
    rounds = 10
    for _ in range(rounds):
        analytic_report = analytic.simulate(
            model, assignment, 256, "HyPar", cost_table=table
        )
    analytic_seconds = (time.perf_counter() - start) / rounds
    slowdown = benchmark.stats["mean"] / analytic_seconds if analytic_seconds else 0.0
    benchmark.extra_info["step_seconds"] = report.step_seconds
    benchmark.extra_info["analytic_step_seconds"] = analytic_report.step_seconds
    benchmark.extra_info["network_vs_analytic_slowdown"] = slowdown
    emit(
        "Network engine: one AlexNet step (16 accelerators, H tree)",
        f"simulated step: {report.step_seconds * 1e3:.3f} ms "
        f"(analytic {analytic_report.step_seconds * 1e3:.3f} ms)\n"
        f"engine wall-time overhead: {slowdown:.1f}x the analytic engine",
    )


def test_congestion_study_grid(benchmark):
    """The full golden-pinned congestion grid (both engines, 4 configs)."""
    study = benchmark(run_congestion_study)
    benchmark.extra_info["num_flips"] = study.num_flips
    benchmark.extra_info["num_configs"] = len(study.comparisons)
    assert study.num_flips >= 1
    emit("Congestion study grid", study.describe())


def _timings(schedule):
    return [(task.name, task.start, task.end, task.tags) for task in schedule.tasks]


def _best_run_seconds(run, engine, rounds=3):
    """Best wall time of ``run(engine)`` from fresh resources."""
    best = float("inf")
    for _ in range(rounds):
        for resource in engine._resources.values():
            resource.available_at = 0.0
        start = time.perf_counter()
        schedule = run(engine)
        best = min(best, time.perf_counter() - start)
    return best, schedule


@pytest.mark.parametrize(
    "topology_type", [HTreeTopology, TorusTopology], ids=["htree", "torus"]
)
def test_network_step_vgg_a_1024(benchmark, monkeypatch, topology_type):
    """One searched VGG-A step through the network engine at 1024 accelerators."""
    model = vgg_a()
    array = ArrayConfig(num_accelerators=1024)
    topology = topology_type(1024, array.link_bandwidth_bytes)
    simulator = TrainingSimulator(array, topology, sim_engine="network")
    table = simulator.cost_table(model, 256)
    assignment = HierarchicalPartitioner(num_levels=array.num_levels).partition(
        model, 256, table=table
    ).assignment

    report = benchmark(
        simulator.simulate, model, assignment, 256, "HyPar", cost_table=table
    )

    # Capture the step's task graph, then time both event loops on it.
    engines = []
    run = EventDrivenEngine.run

    def capture(engine):
        engines.append(engine)
        return run(engine)

    monkeypatch.setattr(EventDrivenEngine, "run", capture)
    simulator.simulate(model, assignment, 256, "HyPar", cost_table=table)
    monkeypatch.undo()
    engine = engines[0]
    oracle = _engine_oracle()
    run_seconds, schedule = _best_run_seconds(run, engine)
    oracle_seconds, expected = _best_run_seconds(oracle, engine)
    assert _timings(schedule) == _timings(expected)

    tasks = len(engine._tasks)
    incidences = sum(len(task.resources) for task in engine._tasks)
    speedup = oracle_seconds / run_seconds
    benchmark.extra_info["step_seconds"] = report.step_seconds
    benchmark.extra_info["tasks"] = tasks
    benchmark.extra_info["resource_incidences"] = incidences
    benchmark.extra_info["run_seconds"] = run_seconds
    benchmark.extra_info["oracle_run_seconds"] = oracle_seconds
    benchmark.extra_info["run_speedup_vs_oracle"] = speedup
    emit(
        f"Network engine: one searched VGG-A step (1024 accelerators, {topology.name})",
        f"simulated step: {report.step_seconds * 1e3:.3f} ms; "
        f"{tasks} tasks, {incidences} task-resource incidences\n"
        f"event loop: {run_seconds * 1e3:.1f} ms "
        f"(kept oracle {oracle_seconds * 1e3:.1f} ms, {speedup:.2f}x)",
    )
