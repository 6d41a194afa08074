"""End-to-end coverage of the branching-network (DAG) zoo.

Two suites:

* ``TestChainDagByteIdentity`` -- the regression demanded by the DAG IR
  refactor: on every *chain* model of the paper's zoo the edge-indexed
  tables, the array DP and the hierarchical search must produce
  byte-identical results to the object-based oracle (which performs the
  pre-refactor arithmetic), so lifting the IR to a DAG cannot have moved a
  single float on existing models.

* ``TestGraphModelsEndToEnd`` -- the acceptance path for ``ResNet-S`` and
  ``Inception-S``: hierarchical search, tensor placement, numerically
  validated partitioned execution and event-driven simulation, under both
  the paper's dp/mp axis and the widened dp,mp,pp space.
"""

import numpy as np
import pytest

from repro.core.costs import CostTable
from repro.core.execution import TwoGroupExecutor
from repro.core.hierarchical import HierarchicalPartitioner
from repro.core.partitioner import TwoWayPartitioner
from repro.core.placement import TensorPlacement
from repro.core.tensors import model_tensors
from repro.nn.model_zoo import all_graph_models, all_models, inception_s, resnet_s
from repro.nn.reference import ReferenceNetwork
from repro.sim.api import simulate
from repro.sim.training import TrainingSimulator
from repro.sweep.spec import PlanConfig

STRATEGY_SPACES = ["dp,mp", "dp,mp,pp"]


class TestChainDagByteIdentity:
    def test_zoo_chains_compile_to_chain_edge_lists(self):
        for model in all_models():
            assert model.is_chain
            table = CostTable.compile(model, 64)
            assert table.is_chain
            assert table.edges == tuple(
                (index, index + 1) for index in range(len(model) - 1)
            )

    def test_zoo_chain_search_is_byte_identical_to_oracle(self):
        partitioner = TwoWayPartitioner()
        for model in all_models():
            tensors = model_tensors(model, 256)
            vectorized = partitioner.partition_tensors(tensors, edges=model.edges)
            reference = partitioner.partition_tensors_reference(tensors)
            assert vectorized.communication_bytes == reference.communication_bytes
            assert vectorized.assignment.choices == reference.assignment.choices

    def test_zoo_chain_hierarchical_search_matches_reference_evaluation(self):
        partitioner = HierarchicalPartitioner(num_levels=4)
        for model in all_models():
            searched = partitioner.partition(model, 256)
            reference = partitioner.evaluate_reference(
                model, searched.assignment, 256
            )
            assert (
                searched.total_communication_bytes
                == reference.total_communication_bytes
            )
            for fast, slow in zip(searched.levels, reference.levels):
                assert fast.communication_bytes == slow.communication_bytes

    def test_graph_models_are_not_chains(self):
        for model in all_graph_models():
            assert not model.is_chain
            assert model.num_edges > len(model) - 1


@pytest.mark.parametrize("strategies", STRATEGY_SPACES)
@pytest.mark.parametrize("builder", [resnet_s, inception_s])
class TestGraphModelsEndToEnd:
    def test_search_placement_execution_simulation(self, builder, strategies):
        model = builder()
        batch_size = 16

        # --- search -------------------------------------------------------
        partitioner = HierarchicalPartitioner(num_levels=2, strategies=strategies)
        table = partitioner.compile_table(model, batch_size)
        searched = partitioner.partition(model, batch_size, table=table)
        reference = partitioner.evaluate_reference(
            model, searched.assignment, batch_size
        )
        assert (
            searched.total_communication_bytes
            == reference.total_communication_bytes
        )

        # The per-level winners are true optima of the edge-indexed tables.
        level0 = partitioner._level_tables(model, batch_size, table).level_table(0)
        _, brute_total = level0.argmin_assignment()
        assert searched.levels[0].communication_bytes == brute_total

        # --- placement ----------------------------------------------------
        placement = TensorPlacement(model, searched.assignment)
        placement.validate()
        assert placement.max_memory_footprint_bytes(batch_size) > 0

        # --- partitioned execution (numerically validated) ----------------
        network = ReferenceNetwork(model, seed=0)
        x = network.random_batch(4)
        states = network.forward(x)
        grad_output = np.random.default_rng(1).standard_normal(
            states[-1].output.shape
        )
        network.backward(states, grad_output)
        executor = TwoGroupExecutor(
            ReferenceNetwork(model, seed=0), searched.assignment[0]
        )
        result = executor.run_step(x, grad_output)
        np.testing.assert_allclose(result.output, states[-1].output, atol=1e-9)
        np.testing.assert_allclose(
            result.input_error, states[0].grad_input, atol=1e-9
        )
        for gradient, state in zip(result.gradients, states):
            np.testing.assert_allclose(gradient, state.grad_weight, atol=1e-9)

        # --- simulation ---------------------------------------------------
        result = simulate(
            model, plan=PlanConfig(batch_size=batch_size, strategies=strategies)
        )
        report, assignment = result.report, result.assignment
        assert report.step_seconds > 0
        assert report.communication_bytes >= 0
        evaluated = HierarchicalPartitioner(
            num_levels=4, strategies=strategies
        ).evaluate(model, assignment, batch_size)
        assert report.communication_bytes == pytest.approx(
            evaluated.total_communication_bytes
        )


class TestDagExecutorMatchesCommunicationModel:
    """Per-edge Table-2 amounts are what a real partitioned run must move.

    Exact for every dp/mp assignment on chains and DAGs.  For assignments
    containing ``pp`` on a branching model the analytic amounts are an
    *upper bound*: stage ownership alternates along the layer order, so a
    skip edge may connect two same-owner pipeline stages whose handoff the
    executor performs for free (see DESIGN.md).
    """

    @staticmethod
    def _analytic_event_elements(model, assignment, batch_size):
        from repro.core.communication import CommunicationModel

        comm = CommunicationModel()
        tensors = model_tensors(model, batch_size)
        expected_elements = 0.0
        for layer in model:
            choice = assignment[layer.index]
            expected_elements += 2.0 * comm.intra_layer_elements(
                tensors[layer.index], choice
            )
            for source in layer.inputs:
                expected_elements += 2.0 * comm.inter_layer_elements(
                    assignment[source], choice, tensors[source]
                )
        return expected_elements

    @staticmethod
    def _executed_event_elements(model, assignment, batch_size, seed=2):
        executor = TwoGroupExecutor(ReferenceNetwork(model, seed=0), assignment)
        x = executor.network.random_batch(batch_size)
        states = executor.network.forward(x)
        grad_output = np.random.default_rng(seed).standard_normal(
            states[-1].output.shape
        )
        result = executor.run_step(x, grad_output)
        # The partitioned run stays numerically exact under every
        # assignment, whatever the event accounting says.
        np.testing.assert_allclose(result.output, states[-1].output, atol=1e-9)
        return result.total_elements()

    @pytest.mark.parametrize("builder", [resnet_s, inception_s])
    def test_event_totals_match_cost_model_on_searched_assignment(self, builder):
        model = builder()
        batch_size = 4
        searched = TwoWayPartitioner().partition(model, batch_size)
        assert self._executed_event_elements(
            model, searched.assignment, batch_size
        ) == pytest.approx(
            self._analytic_event_elements(model, searched.assignment, batch_size)
        )

    @pytest.mark.parametrize("builder", [resnet_s, inception_s])
    def test_event_totals_match_cost_model_on_random_dp_mp_assignments(
        self, builder
    ):
        from repro.core.parallelism import LayerAssignment, Parallelism

        model = builder()
        batch_size = 4
        rng = np.random.default_rng(11)
        for _ in range(6):
            assignment = LayerAssignment(
                tuple(
                    Parallelism.DATA if bit == 0 else Parallelism.MODEL
                    for bit in rng.integers(0, 2, size=len(model))
                )
            )
            assert self._executed_event_elements(
                model, assignment, batch_size
            ) == pytest.approx(
                self._analytic_event_elements(model, assignment, batch_size)
            )

    def test_pipeline_on_dag_is_charged_as_an_upper_bound(self):
        """A same-owner pp skip edge moves nothing but is still charged.

        ResNet-S with stem and down1 both pipelined (pp ordinals 0 and 2 →
        same owner group): the skip edge stem→down1 carries no bytes in
        the executor, so the analytic total strictly exceeds the executed
        one — the documented upper-bound contract for pp on DAGs.
        """
        from repro.core.parallelism import LayerAssignment

        model = resnet_s()
        batch_size = 4
        assignment = LayerAssignment.of(
            ["pp", "mp", "pp", "pp", "mp", "pp", "pp", "dp", "dp", "dp"]
        )
        analytic = self._analytic_event_elements(model, assignment, batch_size)
        executed = self._executed_event_elements(model, assignment, batch_size)
        assert executed < analytic
        # The gap is exactly the free same-owner pp→pp skip handoffs
        # (stem→down1 and down1→down2 here): one full activation plus one
        # full error per skip, both directions.
        free_skip_elements = 2.0 * (
            batch_size * model[0].output_shape.elements
            + batch_size * model[3].output_shape.elements
        )
        assert analytic == pytest.approx(executed + free_skip_elements)

    def test_simulator_task_graph_respects_branch_joins(self):
        model = resnet_s()
        simulator = TrainingSimulator()
        partitioner = HierarchicalPartitioner(num_levels=4)
        searched = partitioner.partition(model, 16)
        report = simulator.simulate(model, searched.assignment, 16)
        # The simulated step covers at least the serial compute of every
        # layer pass (forward + backward + gradient chain through the DAG).
        assert report.step_seconds > 0
        phases = report.phase_seconds
        assert phases["forward"].compute_seconds > 0
        assert phases["backward"].compute_seconds > 0
        assert phases["gradient"].compute_seconds > 0
