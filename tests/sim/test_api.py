"""Tests for the simulation entry point (`repro.sim.api`)."""

import dataclasses

import pytest

from repro.accelerator.array import ArrayConfig
from repro.core.baselines import data_parallelism
from repro.nn.model_zoo import alexnet, get_model
from repro.sim import SIM_ENGINES, simulate
from repro.sim.backend import validate_sim_engine
from repro.sim.engine import Schedule
from repro.sim.training import TrainingSimulator
from repro.sweep.cache import clear_caches, shared_table_cache
from repro.sweep.spec import PlanConfig

#: Two hierarchy levels and a small batch keep the searched runs cheap.
SMALL = PlanConfig(batch_size=64, num_accelerators=4)


class TestSimulationSpec:
    """The spec :func:`simulate` runs on is a :class:`PlanConfig`: the
    paper's platform by default, refusing a bad value when built, and
    carrying its engine into its simulator."""

    def test_defaults_are_the_paper_platform(self):
        plan = PlanConfig()
        assert plan.batch_size == 256
        assert plan.sim_engine == "analytic"
        simulator = plan.simulator()
        assert simulator.array.num_accelerators == 16
        assert simulator.topology.name == "h-tree"

    def test_rejects_nonpositive_batch(self):
        with pytest.raises(ValueError, match="batch_size"):
            PlanConfig(batch_size=0)

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown sim engine"):
            PlanConfig(sim_engine="psychic")

    def test_build_simulator_carries_the_engine(self):
        assert PlanConfig(sim_engine="network").simulator().sim_engine == "network"


class TestBackendRegistry:
    def test_known_engines(self):
        assert SIM_ENGINES == ("analytic", "network")
        assert validate_sim_engine(None) == "analytic"
        assert validate_sim_engine("network") == "network"
        with pytest.raises(ValueError, match="known engines"):
            validate_sim_engine("psychic")


class TestSimulateEntryPoint:
    def test_defaults_are_the_paper_platform(self, lenet_model):
        report = simulate(lenet_model).report
        assert (report.num_accelerators, report.topology_name, report.batch_size) == (
            16,
            "h-tree",
            256,
        )

    def test_searches_when_no_assignment_given(self, lenet_model):
        result = simulate(lenet_model, plan=SMALL)
        assert result.report.strategy_name == "HyPar"
        assert result.assignment is not None
        assert result.assignment.num_levels == 2
        assert result.sim_engine == "analytic"
        assert isinstance(result.schedule, Schedule)
        assert result.schedule is SMALL.simulator().last_schedule
        assert result.step_seconds == result.report.step_seconds

    def test_explicit_assignment_is_simulated_as_given(self, lenet_model):
        assignment = data_parallelism(lenet_model, 2)
        result = simulate(lenet_model, assignment, SMALL)
        assert result.report.strategy_name == "custom"
        assert result.assignment is assignment

    def test_an_unsearched_single_accelerator_step_is_named_single(self, lenet_model):
        plan = PlanConfig(batch_size=64, num_accelerators=1)
        result = simulate(lenet_model, plan=plan)
        assert result.report.strategy_name == "single"
        assert result.assignment is None
        assert result.report.communication_gb == 0.0
        assert simulate(lenet_model, plan=plan, strategy_name="solo").report.strategy_name == "solo"

    def test_the_plan_selects_the_engine(self, lenet_model):
        assignment = data_parallelism(lenet_model, 2)
        analytic = simulate(lenet_model, assignment, SMALL)
        network = simulate(
            lenet_model, assignment, dataclasses.replace(SMALL, sim_engine="network")
        )
        assert network.sim_engine == "network"
        assert network.report.step_seconds < analytic.report.step_seconds

    def test_spec_engine_applies_without_override(self, lenet_model):
        """The plan's engine runs when the call names none, so the entry
        point and the plan's own simulator report one step."""
        plan = dataclasses.replace(SMALL, sim_engine="network")
        assignment = data_parallelism(lenet_model, 2)
        result = simulate(lenet_model, assignment, plan)
        assert result.sim_engine == "network"
        assert plan.simulator().simulate(lenet_model, assignment, 64) == result.report

    def test_simulator_method_engine_override(self, lenet_model):
        """`TrainingSimulator.simulate` takes a keyword-only engine override."""
        simulator = TrainingSimulator(ArrayConfig(num_accelerators=4))
        assignment = data_parallelism(lenet_model, 2)
        default = simulator.simulate(lenet_model, assignment, 64)
        network = simulator.simulate(
            lenet_model, assignment, 64, sim_engine="network"
        )
        assert network.step_seconds < default.step_seconds
        with pytest.raises(ValueError, match="unknown sim engine"):
            simulator.simulate(lenet_model, assignment, 64, sim_engine="nope")

    def test_repeated_calls_share_one_simulator_and_one_table(self, monkeypatch):
        """Three searched calls on one plan build one simulator, and the
        search and every simulation read one compiled table."""
        clear_caches()
        built = []
        init = TrainingSimulator.__init__

        def spy(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(TrainingSimulator, "__init__", spy)
        model = get_model("VGG-A")
        reports = [simulate(model).report for _ in range(3)]
        assert len(built) == 1
        assert (shared_table_cache().misses, shared_table_cache().hits) == (1, 2)
        assert reports[0] == reports[1] == reports[2]


class TestSuppliedCostTable:
    """A supplied compiled table serves the search and the simulation; one
    compiled for another model or batch is refused by both."""

    def test_searched_run_uses_the_supplied_table(self, lenet_model):
        simulator = TrainingSimulator(ArrayConfig(num_accelerators=4))
        table = SMALL.simulator().cost_table(lenet_model, 64)
        assignment = simulator.partitioner.partition(
            lenet_model, 64, table=table
        ).assignment
        report = simulator.simulate(
            lenet_model, assignment, 64, "HyPar", cost_table=table
        )
        assert (simulator.table_cache.misses, simulator.table_cache.hits) == (0, 0)
        searched = simulate(lenet_model, plan=SMALL)
        assert assignment == searched.assignment
        assert report == searched.report

    @pytest.mark.parametrize(
        "table_model,table_batch",
        [("Lenet-c", 128), ("AlexNet", 64)],
        ids=["other-batch", "other-model"],
    )
    @pytest.mark.parametrize("searched", [True, False], ids=["searched", "explicit"])
    def test_incompatible_table_is_rejected(
        self, lenet_model, table_model, table_batch, searched
    ):
        simulator = SMALL.simulator()
        model = lenet_model if table_model == "Lenet-c" else alexnet()
        table = simulator.cost_table(model, table_batch)
        with pytest.raises(ValueError, match="cost table was compiled for a different"):
            if searched:
                simulator.partitioner.partition(lenet_model, 64, table=table)
            else:
                simulator.simulate(
                    lenet_model, data_parallelism(lenet_model, 2), 64, cost_table=table
                )
