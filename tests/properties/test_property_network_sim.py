"""Property tests: the network engine vs the analytic engine.

The network simulator must *validate* against the closed form wherever the
closed form's assumptions hold: on the H tree every pair boundary gets the
dedicated binary-tree links the analytic ``effective_pair_bandwidth``
formula prices, so an assignment with no compute/comm overlap window
(all-mp: every exchange sits on the critical path) must produce the same
step time bit for bit, on every model of the zoo.  Where the engines are
allowed to differ, the difference must have one sign: every network-engine
scheduling change is a relaxation, so on contention-free H-tree routes the
network step never exceeds the analytic one.

``TestLinkClasses`` checks that the simulator's one resource per link
class stands for its links exactly: the classes partition the topology's
links, each plan's classes cover exactly its routed links, and the links
of one class are crossed by exactly the same boundaries.
"""

import pytest

from repro.accelerator.array import ArrayConfig
from repro.core.baselines import data_parallelism, model_parallelism
from repro.core.hierarchical import HierarchicalPartitioner
from repro.interconnect import HTreeTopology, TorusTopology
from repro.nn.model_zoo import all_models, gpt_r
from repro.sim.network import flow_plans, link_classes, link_name
from repro.sim.training import TrainingSimulator


def _engines(num_accelerators, topology_type=HTreeTopology):
    array = ArrayConfig(num_accelerators=num_accelerators)
    topology = topology_type(num_accelerators, array.link_bandwidth_bytes)
    return (
        TrainingSimulator(array, topology, sim_engine="analytic"),
        TrainingSimulator(array, topology, sim_engine="network"),
    )


def _zoo():
    return all_models() + [gpt_r(4)]


class TestUncongestedEquality:
    @pytest.mark.parametrize("model", _zoo(), ids=lambda model: model.name)
    def test_all_mp_htree_is_bit_identical(self, model):
        """All-mp has no overlap window and no contention: the engines must
        agree exactly -- same step time, same energy, same bytes."""
        analytic, network = _engines(16)
        assignment = model_parallelism(model, 4)
        expected = analytic.simulate(model, assignment, 256, "mp")
        actual = network.simulate(model, assignment, 256, "mp")
        assert actual.step_seconds == expected.step_seconds
        assert actual.energy_joules == expected.energy_joules
        assert actual.communication_bytes == expected.communication_bytes
        assert tuple(actual.level_communication_bytes) == tuple(
            expected.level_communication_bytes
        )

    def test_all_mp_two_node_torus_is_bit_identical(self, lenet_model):
        """With two accelerators the torus degenerates to one direct link,
        so even the mesh topology is contention-free and must agree."""
        analytic, network = _engines(2, TorusTopology)
        assignment = model_parallelism(lenet_model, 1)
        expected = analytic.simulate(lenet_model, assignment, 64, "mp")
        actual = network.simulate(lenet_model, assignment, 64, "mp")
        assert actual.step_seconds == expected.step_seconds

    @pytest.mark.parametrize("batch_size", [64, 256, 1024])
    def test_equality_holds_across_batch_sizes(self, lenet_model, batch_size):
        analytic, network = _engines(16)
        assignment = model_parallelism(lenet_model, 4)
        expected = analytic.simulate(lenet_model, assignment, batch_size, "mp")
        actual = network.simulate(lenet_model, assignment, batch_size, "mp")
        assert actual.step_seconds == expected.step_seconds


class TestRelaxationDirection:
    @pytest.mark.parametrize("model", _zoo(), ids=lambda model: model.name)
    def test_htree_network_step_never_exceeds_analytic(self, model):
        """Contention-free routes + pure relaxations: one-sided bound for
        every strategy, searched assignments included."""
        analytic, network = _engines(16)
        table = analytic.cost_table(model, 256)
        hypar = HierarchicalPartitioner(num_levels=4).partition(
            model, 256, table=table
        ).assignment
        for assignment in (
            data_parallelism(model, 4),
            model_parallelism(model, 4),
            hypar,
        ):
            slow = analytic.simulate(model, assignment, 256, cost_table=table)
            fast = network.simulate(model, assignment, 256, cost_table=table)
            assert fast.step_seconds <= slow.step_seconds

    @pytest.mark.parametrize("model", _zoo(), ids=lambda model: model.name)
    def test_accounting_is_engine_invariant(self, model):
        """Energy and traffic derive from the amounts, not the schedule:
        both engines must report identical joules and bytes everywhere --
        H tree or torus, congested or not."""
        analytic, network = _engines(16, TorusTopology)
        assignment = data_parallelism(model, 4)
        expected = analytic.simulate(model, assignment, 256, "dp")
        actual = network.simulate(model, assignment, 256, "dp")
        assert actual.energy_joules == expected.energy_joules
        assert actual.communication_bytes == expected.communication_bytes


class TestLinkClasses:
    SIZES = (2, 4, 8, 16, 32, 64, 128, 256)

    @pytest.mark.parametrize("topology_type", [HTreeTopology, TorusTopology])
    @pytest.mark.parametrize("num_accelerators", SIZES)
    def test_classes_are_exact(self, topology_type, num_accelerators):
        topology = topology_type(num_accelerators, 200e6)
        plans = [plan for level in flow_plans(topology) for plan in level]
        classes = link_classes(topology)

        members = [link for links in classes for link in links]
        assert len(members) == len(set(members))
        assert set(members) == {link_name(u, v) for u, v, _ in topology.links()}

        claimants: dict[str, set[int]] = {link: set() for link in members}
        for index, plan in enumerate(plans):
            routed = {key for key, _, _ in plan.link_loads}
            covered = {link for k in plan.link_classes for link in classes[k]}
            assert covered == routed
            for link in routed:
                claimants[link].add(index)
        signatures = [frozenset(claimants[links[0]]) for links in classes]
        assert len(set(signatures)) == len(classes)
        for links, signature in zip(classes, signatures):
            assert all(claimants[link] == signature for link in links)
        # One claimed class per pair boundary.
        claimed = {k for plan in plans for k in plan.link_classes}
        assert len(claimed) == num_accelerators - 1
