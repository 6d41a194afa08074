"""Golden fingerprints of every simulated schedule over a case grid.

Each case simulates one training step and hashes every scheduled task's
``(name, start.hex(), end.hex(), tags in insertion order)`` followed by the
report's ``repr``.  A task added, dropped, renamed, reordered, retimed or
retagged fails here even when the step time happens to survive, so the
task-graph builder can be restructured against this file.

The grid crosses chains and DAGs (Lenet-c, AlexNet, VGG-A, resnet_s,
inception_s, gpt_s-4), the dp/mp and dp/mp/pp spaces, 2, 4 and 16
accelerators, the H tree and the torus, and both engines, under the
uniform dp and mp baselines, HyPar's searched assignment and -- under
dp/mp/pp -- an alternating dp/pp assignment that drives the micro-batched
pipeline transfers.  gpt_r-4 at 16 accelerators and VGG-A on a single
accelerator (no hierarchy levels) complete it.

Regenerate ``golden_schedules.json`` only when a schedule change is
intended::

    PYTHONPATH=src python tests/sim/test_schedule_golden.py
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import pytest

from repro.accelerator.array import ArrayConfig
from repro.core.baselines import data_parallelism, model_parallelism
from repro.core.hierarchical import HierarchicalPartitioner
from repro.core.parallelism import HierarchicalAssignment, LayerAssignment, Parallelism
from repro.interconnect import HTreeTopology, TorusTopology
from repro.nn.model_zoo import get_model
from repro.sim.backend import SIM_ENGINES
from repro.sim.training import TrainingSimulator

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_schedules.json"

BATCH_SIZE = 256
GRID_MODELS = ("Lenet-c", "AlexNet", "VGG-A", "resnet_s", "inception_s", "gpt_s-4")
SPACES = ("dp,mp", "dp,mp,pp")
SIZES = (2, 4, 16)
TOPOLOGIES = {"htree": HTreeTopology, "torus": TorusTopology}

#: Cases outside the grid: ``(model, space, accelerators, topology, assignment)``.
EXTRA_CASES = (
    ("gpt_r-4", "dp,mp,pp", 16, "torus", "hypar"),
    ("VGG-A", "dp,mp", 1, "none", "none"),
)


def _assignment_kinds(space: str) -> tuple[str, ...]:
    return ("dp", "mp", "hypar", "dp-pp") if "pp" in space.split(",") else ("dp", "mp", "hypar")


def case_grid() -> list[tuple]:
    """Every ``(model, space, accelerators, topology, assignment, engine)`` case."""
    cases = [
        (model, space, size, topology, kind, engine)
        for model in GRID_MODELS
        for space in SPACES
        for size in SIZES
        for topology in TOPOLOGIES
        for kind in _assignment_kinds(space)
        for engine in SIM_ENGINES
    ]
    cases.extend(case + (engine,) for case in EXTRA_CASES for engine in SIM_ENGINES)
    return cases


def case_id(case: tuple) -> str:
    return "/".join(str(part) for part in case)


@functools.lru_cache(maxsize=None)
def _model(name: str):
    return get_model(name)


@functools.lru_cache(maxsize=None)
def _simulator(space: str, size: int, topology: str) -> TrainingSimulator:
    array = ArrayConfig(num_accelerators=size)
    if size == 1:
        return TrainingSimulator(array, strategies=space)
    return TrainingSimulator(
        array,
        TOPOLOGIES[topology](size, array.link_bandwidth_bytes),
        strategies=space,
    )


@functools.lru_cache(maxsize=None)
def _assignment(model_name: str, space: str, size: int, topology: str, kind: str):
    model = _model(model_name)
    simulator = _simulator(space, size, topology)
    num_levels = simulator.array.num_levels
    if kind == "none":
        return None
    if kind == "dp":
        return data_parallelism(model, num_levels)
    if kind == "mp":
        return model_parallelism(model, num_levels)
    if kind == "dp-pp":
        level = LayerAssignment(
            tuple(
                Parallelism.DATA if index % 2 == 0 else Parallelism.PIPELINE
                for index in range(len(model))
            )
        )
        return HierarchicalAssignment((level,) * num_levels)
    partitioner = HierarchicalPartitioner(num_levels=num_levels, strategies=space)
    table = simulator.cost_table(model, BATCH_SIZE)
    return partitioner.partition(model, BATCH_SIZE, table=table).assignment


def fingerprint(case: tuple) -> dict:
    """Task count and sha256 of one case's schedule and report."""
    model_name, space, size, topology, kind, engine = case
    simulator = _simulator(space, size, topology)
    report = simulator.simulate(
        _model(model_name),
        _assignment(model_name, space, size, topology, kind),
        BATCH_SIZE,
        kind,
        sim_engine=engine,
    )
    schedule = simulator.last_schedule
    digest = hashlib.sha256()
    for task in schedule.tasks:
        record = (task.name, task.start.hex(), task.end.hex(), tuple(task.tags.items()))
        digest.update(repr(record).encode())
        digest.update(b"\n")
    digest.update(repr(report).encode())
    return {"tasks": len(schedule.tasks), "sha256": digest.hexdigest()}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_golden_covers_exactly_the_case_grid(golden):
    assert len(case_grid()) == 508
    assert sorted(golden) == sorted(case_id(case) for case in case_grid())


@pytest.mark.parametrize("engine", SIM_ENGINES)
@pytest.mark.parametrize("model_name", GRID_MODELS + ("gpt_r-4",))
def test_schedules_are_byte_identical(golden, model_name, engine):
    cases = [
        case for case in case_grid() if case[0] == model_name and case[-1] == engine
    ]
    assert cases
    mismatched = [
        case_id(case)
        for case in cases
        if fingerprint(case) != golden[case_id(case)]
    ]
    assert not mismatched, f"{len(mismatched)} schedules drifted: {mismatched[:10]}"


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(
            {case_id(case): fingerprint(case) for case in case_grid()},
            handle,
            indent=1,
            sort_keys=True,
        )
        handle.write("\n")
