"""The column-based step builder against the builder it replaced.

``tests/sim/step_oracle.py`` keeps the old ``TrainingSimulator._run_step``
on the old engine (a ``Task`` object, a name and a tag dict per task,
records built by ``run``).  Both must give equal ``ScheduledTask`` records
-- names, bit-identical start and end times, tags in insertion order --
and reports with equal ``repr`` for random assignments over chain and DAG
zoo models, the ``dp,mp`` and ``dp,mp,pp`` spaces (pipeline layers drive
the micro-batched transfers), 1 to 64 accelerators, both topologies and
both engines.
"""

from __future__ import annotations

import functools
import importlib.util
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import sim
from repro.accelerator.array import ArrayConfig
from repro.core.parallelism import HierarchicalAssignment, LayerAssignment, StrategySpace
from repro.interconnect import HTreeTopology, TorusTopology
from repro.nn.model_zoo import get_model
from repro.sim.backend import SIM_ENGINES
from repro.sim.training import TrainingSimulator
from repro.sweep.spec import PlanConfig


def _load_oracle():
    path = Path(__file__).resolve().parents[1] / "sim" / "step_oracle.py"
    spec = importlib.util.spec_from_file_location("step_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.OracleSimulator


OracleSimulator = _load_oracle()

#: Chains (Lenet-c, AlexNet, gpt_s-2) and DAGs (resnet_s, inception_s, gpt_r-2).
MODELS = ("Lenet-c", "AlexNet", "gpt_s-2", "resnet_s", "inception_s", "gpt_r-2")
SPACES = ("dp,mp", "dp,mp,pp")
SIZES = (1, 2, 4, 8, 16, 32, 64)
TOPOLOGIES = {"htree": HTreeTopology, "torus": TorusTopology}
BATCH_SIZE = 64


@functools.lru_cache(maxsize=None)
def _simulators(space: str, size: int, topology: str):
    """The production simulator and the oracle on one platform (one topology)."""
    array = ArrayConfig(num_accelerators=size)
    fabric = (
        None if size == 1 else TOPOLOGIES[topology](size, array.link_bandwidth_bytes)
    )
    return (
        TrainingSimulator(array, fabric, strategies=space),
        OracleSimulator(array, fabric, strategies=space),
    )


def _records(schedule):
    return [
        (task.name, task.start.hex(), task.end.hex(), tuple(task.tags.items()))
        for task in schedule.tasks
    ]


@st.composite
def steps(draw):
    """``(model, space, accelerators, topology, engine, assignment)``."""
    model = get_model(draw(st.sampled_from(MODELS)))
    space = draw(st.sampled_from(SPACES))
    size = draw(st.sampled_from(SIZES))
    topology = draw(st.sampled_from(sorted(TOPOLOGIES)))
    engine = draw(st.sampled_from(SIM_ENGINES))
    num_levels = size.bit_length() - 1
    choices = StrategySpace.parse(space).members
    assignment = (
        HierarchicalAssignment(
            tuple(
                LayerAssignment(
                    tuple(
                        draw(
                            st.lists(
                                st.sampled_from(choices),
                                min_size=len(model),
                                max_size=len(model),
                            )
                        )
                    )
                )
                for _ in range(num_levels)
            )
        )
        if num_levels
        else None
    )
    return model, space, size, topology, engine, assignment


@settings(max_examples=150, deadline=None)
@given(steps())
def test_records_and_report_match_the_oracle(step):
    model, space, size, topology, engine, assignment = step
    simulator, oracle = _simulators(space, size, topology)
    table = None if assignment is None else simulator.cost_table(model, BATCH_SIZE)
    report = simulator.simulate(
        model, assignment, BATCH_SIZE, "random", cost_table=table, sim_engine=engine
    )
    expected = oracle.simulate(
        model, assignment, BATCH_SIZE, "random", cost_table=table, sim_engine=engine
    )
    assert _records(simulator.last_schedule) == _records(oracle.last_schedule)
    assert repr(report) == repr(expected)
    assert simulator.last_schedule.makespan == oracle.last_schedule.makespan


@settings(max_examples=20, deadline=None)
@given(steps())
def test_simulate_entry_point_schedule_matches_the_oracle(step):
    """``repro.sim.simulate(...).schedule`` on a plan gives the oracle's
    records on that plan's platform when read."""
    model, space, size, topology, engine, assignment = step
    _, oracle = _simulators(space, size, topology)
    plan = PlanConfig(
        num_accelerators=size, topology=topology, strategies=space, sim_engine=engine
    )
    result = sim.simulate(model, assignment, plan)
    oracle.simulate(model, assignment, plan.batch_size, "custom", sim_engine=engine)
    assert result.schedule is plan.simulator().last_schedule
    assert _records(result.schedule) == _records(oracle.last_schedule)
