"""End-to-end integration tests: model zoo -> partition -> simulate -> report."""

import pytest

from repro import (
    ArrayConfig,
    ExperimentRunner,
    HierarchicalPartitioner,
    PlanConfig,
    TrainingSimulator,
    build_topology,
    get_model,
    simulate,
)
from repro.core.baselines import data_parallelism, one_weird_trick


class TestPublicApiWorkflow:
    """The workflow documented in the README, exercised through `repro`'s
    top-level exports only."""

    def test_quickstart_flow(self):
        model = get_model("AlexNet")
        partitioner = HierarchicalPartitioner(num_levels=4)
        result = partitioner.partition(model, batch_size=256)
        assert result.num_accelerators == 16

        simulator = TrainingSimulator(ArrayConfig())
        report = simulator.simulate(model, result.assignment, 256, "HyPar")
        baseline = simulator.simulate(model, data_parallelism(model, 4), 256, "DP")
        assert report.speedup_over(baseline) > 1.0

    def test_simulate_searches_when_no_assignment_given(self):
        result = simulate(get_model("Lenet-c"), plan=PlanConfig(batch_size=128))
        assert result.report.strategy_name == "HyPar"
        assert result.assignment.num_layers == 4
        assert result.sim_engine == "analytic"

    def test_topology_factory_integrates_with_simulator(self):
        model = get_model("Cifar-c")
        array = ArrayConfig()
        topology = build_topology("torus", array.num_accelerators, array.link_bandwidth_bytes)
        simulator = TrainingSimulator(array, topology)
        assignment = HierarchicalPartitioner(num_levels=4).partition(model, 256).assignment
        report = simulator.simulate(model, assignment, 256, "HyPar")
        assert report.topology_name == "torus"
        assert report.step_seconds > 0

    def test_experiment_runner_single_model(self):
        runner = ExperimentRunner(PlanConfig(batch_size=64, num_accelerators=4))
        comparison = runner.compare(get_model("Lenet-c"))
        perf = comparison.normalized_performance()
        assert perf["Data Parallelism"] == pytest.approx(1.0)
        assert perf["HyPar"] >= 1.0


class TestCrossModuleConsistency:
    @pytest.mark.parametrize("model_name", ["SFC", "SCONV", "Lenet-c", "AlexNet", "VGG-A"])
    def test_partitioner_and_simulator_agree_on_traffic(self, model_name):
        """The objective Algorithm 2 minimises is exactly what the simulator
        observes on the wire, for every evaluation network."""
        model = get_model(model_name)
        partitioner = HierarchicalPartitioner(num_levels=4)
        result = partitioner.partition(model, 256)
        simulator = TrainingSimulator(ArrayConfig())
        report = simulator.simulate(model, result.assignment, 256, "HyPar")
        assert report.communication_bytes == pytest.approx(
            result.total_communication_bytes, rel=1e-9
        )

    @pytest.mark.parametrize("batch_size", [32, 256, 1024])
    def test_hypar_never_slower_than_trick_or_defaults(self, batch_size):
        """Across batch sizes, the searched assignment beats every baseline the
        paper compares against on AlexNet."""
        model = get_model("AlexNet")
        partitioner = HierarchicalPartitioner(num_levels=4)
        simulator = TrainingSimulator(ArrayConfig())
        hypar = simulator.simulate(
            model, partitioner.partition(model, batch_size).assignment, batch_size, "HyPar"
        )
        for name, assignment in (
            ("dp", data_parallelism(model, 4)),
            ("trick", one_weird_trick(model, 4)),
        ):
            baseline = simulator.simulate(model, assignment, batch_size, name)
            assert hypar.step_seconds <= baseline.step_seconds * 1.001

    def test_all_ten_networks_partition_and_simulate(self):
        """Every network in the zoo goes through the full pipeline without error."""
        from repro.nn.model_zoo import all_models

        partitioner = HierarchicalPartitioner(num_levels=4)
        simulator = TrainingSimulator(ArrayConfig())
        for model in all_models():
            result = partitioner.partition(model, 256)
            report = simulator.simulate(model, result.assignment, 256, "HyPar")
            assert report.step_seconds > 0
            assert report.energy_joules > 0


class TestMemoryFeasibility:
    def test_model_working_sets_fit_in_hmc_capacity(self):
        """Sanity check of the substrate: per-accelerator working sets of the
        largest network stay far below the 8 GB HMC capacity at batch 256."""
        from repro.accelerator.hmc import HMCConfig

        model = get_model("VGG-E")
        hmc = HMCConfig()
        batch = 256
        # Full (unpartitioned) working set: weights + activations + errors.
        activations = sum(layer.output_shape.elements for layer in model) * batch
        working_set_bytes = (model.total_weights * 2 + activations * 2) * 4
        per_accelerator = working_set_bytes / 16
        assert hmc.fits(per_accelerator)
