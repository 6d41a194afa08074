"""Tests for the training-step simulator."""

import importlib.util
from pathlib import Path

import pytest

from repro.accelerator.array import ArrayConfig
from repro.core.baselines import data_parallelism, model_parallelism
from repro.core.communication import CommunicationModel
from repro.core.hierarchical import HierarchicalPartitioner
from repro.core.parallelism import DATA, HierarchicalAssignment
from repro.core.tensors import ScalingMode
from repro.interconnect import HTreeTopology, TorusTopology
from repro.nn.model_zoo import get_model, lenet_c
from repro.sim.engine import EventDrivenEngine
from repro.sim.training import PHASES, TrainingSimulator


def _load_engine_oracle():
    path = Path(__file__).resolve().parent / "engine_oracle.py"
    spec = importlib.util.spec_from_file_location("engine_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


engine_oracle = _load_engine_oracle()


@pytest.fixture(scope="module")
def simulator():
    return TrainingSimulator(ArrayConfig())


@pytest.fixture(scope="module")
def small_simulator():
    return TrainingSimulator(ArrayConfig(num_accelerators=4))


class TestReportStructure:
    def test_report_identification(self, simulator, lenet_model):
        assignment = data_parallelism(lenet_model, 4)
        report = simulator.simulate(lenet_model, assignment, 256, "Data Parallelism")
        assert report.model_name == "Lenet-c"
        assert report.strategy_name == "Data Parallelism"
        assert report.topology_name == "h-tree"
        assert report.num_accelerators == 16
        assert report.batch_size == 256

    def test_positive_time_and_energy(self, simulator, lenet_model):
        report = simulator.simulate(lenet_model, data_parallelism(lenet_model, 4), 256)
        assert report.step_seconds > 0
        assert report.energy_joules > 0

    def test_phase_breakdown_covers_three_phases(self, simulator, lenet_model):
        report = simulator.simulate(lenet_model, data_parallelism(lenet_model, 4), 256)
        assert set(report.phase_seconds) == set(PHASES)
        for phase in PHASES:
            assert report.phase_seconds[phase].compute_seconds > 0

    def test_level_communication_has_one_entry_per_level(self, simulator, lenet_model):
        report = simulator.simulate(lenet_model, data_parallelism(lenet_model, 4), 256)
        assert len(report.level_communication_bytes) == 4
        assert report.communication_bytes == pytest.approx(
            sum(report.level_communication_bytes)
        )

    def test_makespan_at_least_sum_of_compute(self, simulator, lenet_model):
        report = simulator.simulate(lenet_model, data_parallelism(lenet_model, 4), 256)
        assert report.step_seconds >= report.compute_seconds


class TestCommunicationAccounting:
    def test_simulated_traffic_matches_partitioner_cost(self, simulator, alexnet_model):
        """The simulator's byte counter must agree with Algorithm 2's objective."""
        partitioner = HierarchicalPartitioner(num_levels=4)
        for assignment in (
            data_parallelism(alexnet_model, 4),
            model_parallelism(alexnet_model, 4),
            partitioner.partition(alexnet_model, 256).assignment,
        ):
            report = simulator.simulate(alexnet_model, assignment, 256)
            expected = partitioner.evaluate(
                alexnet_model, assignment, 256
            ).total_communication_bytes
            assert report.communication_bytes == pytest.approx(expected, rel=1e-9)

    def test_data_parallelism_has_no_forward_communication(self, simulator, sconv_model):
        report = simulator.simulate(sconv_model, data_parallelism(sconv_model, 4), 256)
        assert report.phase_seconds["forward"].communication_seconds == pytest.approx(0.0)
        assert report.phase_seconds["gradient"].communication_seconds > 0

    def test_model_parallelism_has_forward_communication(self, simulator, sconv_model):
        report = simulator.simulate(sconv_model, model_parallelism(sconv_model, 4), 256)
        assert report.phase_seconds["forward"].communication_seconds > 0

    def test_energy_communication_component_tracks_traffic(self, simulator, vgg_a_model):
        dp = simulator.simulate(vgg_a_model, data_parallelism(vgg_a_model, 4), 256)
        hypar_assignment = HierarchicalPartitioner(num_levels=4).partition(
            vgg_a_model, 256
        ).assignment
        hypar = simulator.simulate(vgg_a_model, hypar_assignment, 256)
        assert hypar.communication_bytes < dp.communication_bytes
        assert hypar.energy.communication_joules < dp.energy.communication_joules

    def test_parallelism_independent_energy_is_strategy_invariant(
        self, simulator, alexnet_model
    ):
        dp = simulator.simulate(alexnet_model, data_parallelism(alexnet_model, 4), 256)
        mp = simulator.simulate(alexnet_model, model_parallelism(alexnet_model, 4), 256)
        assert dp.energy.parallelism_independent_joules == pytest.approx(
            mp.energy.parallelism_independent_joules, rel=1e-9
        )


class TestStrategyOrdering:
    def test_hypar_is_fastest_on_alexnet(self, simulator, alexnet_model):
        partitioner = HierarchicalPartitioner(num_levels=4)
        hypar = partitioner.partition(alexnet_model, 256).assignment
        reports = {
            "dp": simulator.simulate(alexnet_model, data_parallelism(alexnet_model, 4), 256),
            "mp": simulator.simulate(alexnet_model, model_parallelism(alexnet_model, 4), 256),
            "hypar": simulator.simulate(alexnet_model, hypar, 256),
        }
        assert reports["hypar"].step_seconds <= reports["dp"].step_seconds
        assert reports["hypar"].step_seconds <= reports["mp"].step_seconds

    def test_model_parallelism_is_worst_on_conv_networks(self, simulator, sconv_model):
        dp = simulator.simulate(sconv_model, data_parallelism(sconv_model, 4), 256)
        mp = simulator.simulate(sconv_model, model_parallelism(sconv_model, 4), 256)
        assert mp.step_seconds > dp.step_seconds

    def test_data_parallelism_is_worst_on_fc_networks(self, simulator, sfc_model):
        dp = simulator.simulate(sfc_model, data_parallelism(sfc_model, 4), 256)
        mp = simulator.simulate(sfc_model, model_parallelism(sfc_model, 4), 256)
        assert dp.step_seconds > mp.step_seconds


class TestArraySizes:
    def test_single_accelerator_has_no_communication(self, lenet_model):
        simulator = TrainingSimulator(ArrayConfig(num_accelerators=1))
        report = simulator.simulate(lenet_model, None, 256)
        assert report.communication_bytes == 0.0
        assert report.energy.communication_joules == 0.0
        assert report.topology_name == "none"

    def test_single_accelerator_rejects_assignment(self, lenet_model):
        simulator = TrainingSimulator(ArrayConfig(num_accelerators=1))
        with pytest.raises(ValueError):
            simulator.simulate(lenet_model, data_parallelism(lenet_model, 1), 256)

    def test_multi_accelerator_requires_assignment(self, simulator, lenet_model):
        with pytest.raises(ValueError):
            simulator.simulate(lenet_model, None, 256)

    def test_level_count_mismatch_rejected(self, small_simulator, lenet_model):
        with pytest.raises(ValueError):
            small_simulator.simulate(lenet_model, data_parallelism(lenet_model, 4), 256)

    def test_layer_count_mismatch_rejected(self, simulator, lenet_model, alexnet_model):
        with pytest.raises(ValueError):
            simulator.simulate(lenet_model, data_parallelism(alexnet_model, 4), 256)

    def test_more_accelerators_speed_up_hypar(self, vgg_a_model):
        """On a compute-heavy network HyPar keeps getting faster as the array grows."""
        times = []
        for size in (2, 4, 16):
            array = ArrayConfig(num_accelerators=size)
            simulator = TrainingSimulator(array)
            partitioner = HierarchicalPartitioner(num_levels=array.num_levels)
            assignment = partitioner.partition(vgg_a_model, 256).assignment
            times.append(simulator.simulate(vgg_a_model, assignment, 256).step_seconds)
        assert times[0] > times[1] > times[2]


class TestTopologies:
    def test_torus_is_not_faster_than_htree_for_hypar(self, alexnet_model):
        array = ArrayConfig()
        assignment = HierarchicalPartitioner(num_levels=4).partition(
            alexnet_model, 256
        ).assignment
        htree = TrainingSimulator(
            array, HTreeTopology(16, array.link_bandwidth_bytes)
        ).simulate(alexnet_model, assignment, 256)
        torus = TrainingSimulator(
            array, TorusTopology(16, array.link_bandwidth_bytes)
        ).simulate(alexnet_model, assignment, 256)
        assert torus.step_seconds >= htree.step_seconds

    def test_topology_array_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TrainingSimulator(ArrayConfig(num_accelerators=16), HTreeTopology(8, 200e6))

    def test_single_accelerator_with_topology_rejected(self):
        with pytest.raises(ValueError):
            TrainingSimulator(ArrayConfig(num_accelerators=1), HTreeTopology(2, 200e6))


class TestCostTableCache:
    def test_equal_models_compile_one_table(self):
        """Without a shared cache the simulator keeps a private one keyed by
        configuration, so a rebuilt (equal) model reuses the compiled table."""
        simulator = TrainingSimulator(ArrayConfig(num_accelerators=4))
        first = simulator.simulate(lenet_c(), data_parallelism(lenet_c(), 2), 64)
        second = simulator.simulate(lenet_c(), data_parallelism(lenet_c(), 2), 64)
        assert simulator.table_cache.misses == 1
        assert simulator.table_cache.hits == 1
        assert first == second

    def test_private_caches_are_per_simulator(self):
        assert TrainingSimulator().table_cache is not TrainingSimulator().table_cache


class TestPartitioner:
    """The simulator derives the search over its own platform."""

    def test_shares_the_simulators_platform(self):
        communication_model = CommunicationModel(bytes_per_element=2)
        simulator = TrainingSimulator(
            ArrayConfig(num_accelerators=8),
            communication_model=communication_model,
            scaling_mode="uniform",
            strategies="dp,mp,pp",
        )
        partitioner = simulator.partitioner
        assert partitioner.communication_model is communication_model
        assert partitioner.scaling_mode is simulator.scaling_mode
        assert partitioner.strategies == simulator.strategies
        assert partitioner.num_levels == 3

    @pytest.mark.parametrize("model_name", ["Lenet-c", "VGG-A", "ResNet-S", "gpt_r-4"])
    @pytest.mark.parametrize("scaling_mode", list(ScalingMode))
    @pytest.mark.parametrize("strategies", ["dp,mp", "dp,mp,pp"])
    def test_searches_like_a_hand_built_partitioner(
        self, model_name, scaling_mode, strategies
    ):
        model = get_model(model_name)
        simulator = TrainingSimulator(
            ArrayConfig(num_accelerators=8),
            scaling_mode=scaling_mode,
            strategies=strategies,
        )
        hand_built = HierarchicalPartitioner(
            num_levels=3, scaling_mode=scaling_mode, strategies=strategies
        )
        derived = simulator.partitioner.partition(
            model, 64, table=simulator.cost_table(model, 64)
        )
        expected = hand_built.partition(model, 64)
        assert derived.assignment.levels == expected.assignment.levels
        assert derived.total_communication_bytes == expected.total_communication_bytes

    def test_is_built_once(self, small_simulator):
        assert small_simulator.partitioner is small_simulator.partitioner

    def test_single_accelerator_has_nothing_to_search(self):
        simulator = TrainingSimulator(ArrayConfig(num_accelerators=1))
        with pytest.raises(ValueError, match="num_levels must be positive"):
            simulator.partitioner


class TestLevelChaining:
    """A level's boundary tasks wait on exactly the deeper boundaries their
    group covers; schedule times alone rarely show the difference."""

    @pytest.fixture
    def task_deps(self, monkeypatch):
        recorded = {}
        run = EventDrivenEngine.run

        def spy(self):
            for task in engine_oracle.tasks_of(self):
                recorded[task.name] = tuple(dep.name for dep in task.deps)
            return run(self)

        monkeypatch.setattr(EventDrivenEngine, "run", spy)
        return recorded

    def test_network_boundaries_wait_on_their_child_groups(self, task_deps, lenet_model):
        simulator = TrainingSimulator(ArrayConfig(num_accelerators=8), sim_engine="network")
        simulator.simulate(lenet_model, data_parallelism(lenet_model, 3), 64)
        name = "gradient-intra/fc2"
        assert task_deps[f"{name}/L2/p0"] == ("gradient/fc2",)
        assert task_deps[f"{name}/L1/p0"] == (f"{name}/L2/p0", f"{name}/L2/p1")
        assert task_deps[f"{name}/L1/p1"] == (f"{name}/L2/p2", f"{name}/L2/p3")
        assert task_deps[f"{name}/L0/p0"] == (f"{name}/L1/p0", f"{name}/L1/p1")

    def test_analytic_levels_form_one_chain(self, task_deps, lenet_model):
        simulator = TrainingSimulator(ArrayConfig(num_accelerators=8))
        simulator.simulate(lenet_model, data_parallelism(lenet_model, 3), 64)
        name = "gradient-intra/fc2"
        assert task_deps[f"{name}/L2"] == ("gradient/fc2",)
        assert task_deps[f"{name}/L1"] == (f"{name}/L2",)
        assert task_deps[f"{name}/L0"] == (f"{name}/L1",)
