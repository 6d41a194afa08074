"""Tests for the redesigned simulation API (`repro.sim.api`)."""

import pytest

from repro.accelerator.array import ArrayConfig
from repro.core.baselines import data_parallelism
from repro.nn.model_zoo import alexnet
from repro.sim import SIM_ENGINES, SimulationSpec, simulate
from repro.sim.backend import validate_sim_engine
from repro.sim.engine import Schedule
from repro.sim.training import TrainingSimulator


class TestSimulationSpec:
    def test_defaults_are_the_paper_platform(self):
        spec = SimulationSpec()
        assert spec.batch_size == 256
        assert spec.sim_engine == "analytic"
        simulator = spec.build_simulator()
        assert simulator.array.num_accelerators == 16
        assert simulator.topology.name == "h-tree"

    def test_rejects_nonpositive_batch(self):
        with pytest.raises(ValueError, match="batch_size"):
            SimulationSpec(batch_size=0)

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown sim engine"):
            SimulationSpec(sim_engine="psychic")

    def test_build_simulator_carries_the_engine(self):
        spec = SimulationSpec(sim_engine="network")
        assert spec.build_simulator().sim_engine == "network"


class TestBackendRegistry:
    def test_known_engines(self):
        assert SIM_ENGINES == ("analytic", "network")
        assert validate_sim_engine(None) == "analytic"
        assert validate_sim_engine("network") == "network"
        with pytest.raises(ValueError, match="known engines"):
            validate_sim_engine("psychic")


class TestSimulateEntryPoint:
    def test_searches_when_no_assignment_given(self, lenet_model):
        spec = SimulationSpec(batch_size=64, array=ArrayConfig(num_accelerators=4))
        result = simulate(lenet_model, spec=spec)
        assert result.report.strategy_name == "HyPar"
        assert result.assignment is not None
        assert result.assignment.num_levels == 2
        assert result.sim_engine == "analytic"
        assert isinstance(result.schedule, Schedule)
        assert result.step_seconds == result.report.step_seconds

    def test_explicit_assignment_is_simulated_as_given(self, lenet_model):
        spec = SimulationSpec(batch_size=64, array=ArrayConfig(num_accelerators=4))
        assignment = data_parallelism(lenet_model, 2)
        result = simulate(lenet_model, assignment, spec)
        assert result.report.strategy_name == "custom"
        assert result.assignment is assignment

    def test_engine_override_is_keyword_only(self, lenet_model):
        spec = SimulationSpec(batch_size=64, array=ArrayConfig(num_accelerators=4))
        assignment = data_parallelism(lenet_model, 2)
        analytic = simulate(lenet_model, assignment, spec)
        network = simulate(lenet_model, assignment, spec, sim_engine="network")
        assert network.sim_engine == "network"
        assert network.report.step_seconds < analytic.report.step_seconds

    def test_spec_engine_applies_without_override(self, lenet_model):
        spec = SimulationSpec(
            batch_size=64,
            array=ArrayConfig(num_accelerators=4),
            sim_engine="network",
        )
        result = simulate(lenet_model, data_parallelism(lenet_model, 2), spec)
        assert result.sim_engine == "network"

    def test_simulator_method_engine_override(self, lenet_model):
        """`TrainingSimulator.simulate` takes the same keyword-only override."""
        simulator = TrainingSimulator(ArrayConfig(num_accelerators=4))
        assignment = data_parallelism(lenet_model, 2)
        default = simulator.simulate(lenet_model, assignment, 64)
        network = simulator.simulate(
            lenet_model, assignment, 64, sim_engine="network"
        )
        assert network.step_seconds < default.step_seconds
        with pytest.raises(ValueError, match="unknown sim engine"):
            simulator.simulate(lenet_model, assignment, 64, sim_engine="nope")


class TestSuppliedCostTable:
    """``simulate(..., cost_table=)`` serves the search and the simulation."""

    SPEC = SimulationSpec(batch_size=64, array=ArrayConfig(num_accelerators=4))

    def test_searched_run_uses_the_supplied_table(self, lenet_model):
        simulator = self.SPEC.build_simulator()
        table = self.SPEC.build_simulator().cost_table(lenet_model, 64)
        supplied = simulate(
            lenet_model, spec=self.SPEC, simulator=simulator, cost_table=table
        )
        assert simulator.table_cache.misses == 0
        compiled = simulate(lenet_model, spec=self.SPEC)
        assert supplied.assignment == compiled.assignment
        assert supplied.report == compiled.report

    @pytest.mark.parametrize(
        "table_model,table_batch",
        [("Lenet-c", 128), ("AlexNet", 64)],
        ids=["other-batch", "other-model"],
    )
    @pytest.mark.parametrize("searched", [True, False], ids=["searched", "explicit"])
    def test_incompatible_table_is_rejected(
        self, lenet_model, table_model, table_batch, searched
    ):
        model = lenet_model if table_model == "Lenet-c" else alexnet()
        table = self.SPEC.build_simulator().cost_table(model, table_batch)
        assignment = None if searched else data_parallelism(lenet_model, 2)
        with pytest.raises(ValueError, match="cost table was compiled for a different"):
            simulate(lenet_model, assignment, self.SPEC, cost_table=table)
