"""Tests for the strategy registry and end-to-end pipeline parallelism."""

import pytest

from repro.core.communication import CommunicationModel
from repro.core.exhaustive import enumerate_restricted_communication
from repro.core.hierarchical import HierarchicalPartitioner
from repro.core.parallelism import (
    DATA,
    MODEL,
    PIPELINE,
    HierarchicalAssignment,
    Parallelism,
    StrategySpace,
)
from repro.core.placement import TensorPlacement
from repro.core.strategies import (
    BATCH,
    NONE,
    WEIGHT,
    registered_strategies,
    strategy_spec,
)
from repro.core.tensors import LayerTensors, ScalingMode
from repro.nn.model_zoo import alexnet, all_models, lenet_c

PIPELINE_SPACE = StrategySpace.parse("dp,mp,pp")


def _tensors(feature_out=100.0, weight=1000.0):
    return LayerTensors(
        layer_index=0,
        layer_name="layer",
        is_conv=False,
        feature_in=50.0,
        feature_out=feature_out,
        weight=weight,
        macs=1.0,
    )


class TestRegistry:
    def test_all_members_registered(self):
        shorts = [spec.short for spec in registered_strategies()]
        assert shorts == ["dp", "mp", "pp"]

    def test_descent_behaviours(self):
        assert strategy_spec(DATA).halves == BATCH
        assert strategy_spec(MODEL).halves == WEIGHT
        assert strategy_spec(PIPELINE).halves == NONE
        assert strategy_spec(PIPELINE).stage_local

    def test_intra_phases(self):
        assert strategy_spec(DATA).intra_phase == "gradient"
        assert strategy_spec(MODEL).intra_phase == "forward"

    def test_unregistered_lookup_raises(self):
        with pytest.raises(KeyError):
            strategy_spec("not-a-parallelism")


class TestPipelineCostModel:
    """The documented pp cost table, spot-checked through the model."""

    def setup_method(self):
        self.comm = CommunicationModel()
        self.boundary = _tensors()

    def test_pipeline_has_no_intra_cost(self):
        assert self.comm.intra_layer_elements(self.boundary, PIPELINE) == 0.0

    @pytest.mark.parametrize(
        "previous,current,forward,backward",
        [
            (DATA, PIPELINE, 0.25, 0.25),
            (MODEL, PIPELINE, 0.0, 0.5),
            (PIPELINE, DATA, 0.25, 0.25),
            (PIPELINE, MODEL, 0.25, 0.25),
            (PIPELINE, PIPELINE, 0.5, 0.5),
        ],
    )
    def test_transition_table(self, previous, current, forward, backward):
        amount = self.boundary.feature_out
        assert self.comm.inter_layer_forward_elements(
            previous, current, self.boundary
        ) == forward * amount
        assert self.comm.inter_layer_backward_elements(
            previous, current, self.boundary
        ) == backward * amount

    def test_dp_mp_entries_unchanged(self):
        """The paper's Table 2 must be untouched by the registry refactor."""
        amount = self.boundary.feature_out
        assert self.comm.inter_layer_elements(DATA, DATA, self.boundary) == 0.0
        assert self.comm.inter_layer_elements(DATA, MODEL, self.boundary) == 0.5 * amount
        assert self.comm.inter_layer_elements(MODEL, MODEL, self.boundary) == 0.5 * amount
        assert self.comm.inter_layer_elements(MODEL, DATA, self.boundary) == 0.5 * amount


class TestPipelineSearch:
    def test_some_zoo_model_selects_a_mixed_assignment_with_pp(self):
        """Widening the axis to dp,mp,pp must pay off somewhere in the zoo."""
        mixed = False
        for model in all_models():
            partitioner = HierarchicalPartitioner(strategies=PIPELINE_SPACE)
            result = partitioner.partition(model, 256)
            used = {
                choice for level in result.assignment for choice in level
            }
            if PIPELINE in used and len(used) > 1:
                mixed = True
                break
        assert mixed

    def test_pipeline_search_never_worse_per_level(self):
        """A superset axis can only improve one level's DP optimum.

        (The *hierarchical* greedy of Algorithm 2 carries no such guarantee
        -- a cheaper level-1 choice changes the scale descent seen by the
        deeper levels -- but each level's dynamic program is exact, so at a
        fixed descent state widening the space is monotone.)
        """
        from repro.core.partitioner import TwoWayPartitioner
        from repro.core.tensors import model_tensors

        model = alexnet()
        tensors = model_tensors(model, 256)
        binary = TwoWayPartitioner().partition_tensors(tensors)
        widened = TwoWayPartitioner(strategies=PIPELINE_SPACE).partition_tensors(
            tensors
        )
        assert widened.communication_bytes <= binary.communication_bytes

    def test_restricted_sweep_over_pipeline_space_matches_evaluate(self):
        model = lenet_c()
        partitioner = HierarchicalPartitioner(
            num_levels=2, strategies=PIPELINE_SPACE
        )
        base = HierarchicalAssignment.uniform(DATA, 2, len(model))
        free = [(0, 0), (1, 2)]
        totals = enumerate_restricted_communication(
            model, 64, base, free, partitioner=partitioner
        )
        assert totals.shape == (9,)
        from repro.core.exhaustive import restricted_assignment

        for codes in range(9):
            assignment = restricted_assignment(base, free, codes, PIPELINE_SPACE)
            expected = partitioner.evaluate(model, assignment, 64)
            assert totals[codes] == expected.total_communication_bytes

    def test_binary_table_rejects_pipeline_assignments(self):
        model = lenet_c()
        partitioner = HierarchicalPartitioner(num_levels=2)
        assignment = HierarchicalAssignment.uniform(PIPELINE, 2, len(model))
        with pytest.raises(ValueError):
            partitioner.evaluate(model, assignment, 64)


class TestPipelinePlacement:
    def _assignment(self, model, choices_by_level):
        return HierarchicalAssignment.of(
            [[choices] * len(model) if isinstance(choices, str) else choices
             for choices in choices_by_level]
        )

    def test_stage_local_ownership_alternates(self):
        model = lenet_c()
        assignment = HierarchicalAssignment.of(
            [["pp"] * len(model), ["dp"] * len(model)]
        )
        placement = TensorPlacement(model, assignment)
        placement.validate()
        # The k-th pipeline layer at the level lives on group k % 2: layer 0
        # on the lower half (accelerators 0, 1), layer 1 on the upper half.
        assert placement.shard(0, 0).owned
        assert placement.shard(1, 0).owned
        assert not placement.shard(2, 0).owned
        assert not placement.shard(3, 0).owned
        assert not placement.shard(0, 1).owned
        assert placement.shard(2, 1).owned

    def test_pipeline_level_does_not_replicate_kernels(self):
        model = lenet_c()
        pp_assignment = HierarchicalAssignment.of([["pp"] * len(model)])
        dp_assignment = HierarchicalAssignment.of([["dp"] * len(model)])
        pp_placement = TensorPlacement(model, pp_assignment)
        dp_placement = TensorPlacement(model, dp_assignment)
        pp_placement.validate()
        for layer in model:
            assert pp_placement.weight_replication_factor(layer.index) == 1.0
            assert dp_placement.weight_replication_factor(layer.index) == 2.0

    def test_stage_owner_holds_the_whole_layer(self):
        model = lenet_c()
        assignment = HierarchicalAssignment.of([["pp"] * len(model)])
        placement = TensorPlacement(model, assignment)
        shard = placement.shard(0, 0)
        assert shard.owned
        assert shard.weight_fraction() == 1.0
        assert shard.feature_out_fraction() == 1.0
        other = placement.shard(1, 0)
        assert not other.owned
        assert other.weight_fraction() == 0.0
        assert other.feature_out_fraction() == 0.0

    def test_footprint_concentrates_on_owners(self):
        model = lenet_c()
        assignment = HierarchicalAssignment.of([["pp"] * len(model)])
        placement = TensorPlacement(model, assignment)
        footprints = placement.memory_footprint(batch_size=8)
        total = sum(f.total_bytes for f in footprints)
        assert total > 0
        # Layers alternate owners, so both accelerators hold something but
        # nothing is replicated: the array total equals one full copy.
        mono = TensorPlacement(
            model, HierarchicalAssignment.of([["dp"] * len(model)])
        )
        mono_weights = sum(f.weight_bytes for f in mono.memory_footprint(8))
        pp_weights = sum(f.weight_bytes for f in footprints)
        assert pp_weights == pytest.approx(mono_weights / 2.0)


class TestPipelineSimulation:
    def _simulate(self, num_microbatches=4):
        from repro.accelerator.array import ArrayConfig
        from repro.sim.training import TrainingSimulator

        model = lenet_c()
        array = ArrayConfig(num_accelerators=4)
        simulator = TrainingSimulator(
            array,
            strategies=PIPELINE_SPACE,
            num_microbatches=num_microbatches,
        )
        partitioner = HierarchicalPartitioner(
            num_levels=array.num_levels,
            communication_model=simulator.communication_model,
            strategies=PIPELINE_SPACE,
        )
        assignment = HierarchicalAssignment.of(
            [["dp", "pp", "mp", "pp", "dp", "pp"][: len(model)]] * array.num_levels
        )
        report = simulator.simulate(model, assignment, 64, "pp-mix")
        return model, partitioner, assignment, report

    def test_simulated_bytes_match_the_object_based_oracle(self):
        """Vectorized tables and the object oracle agree on pp step traffic."""
        model, partitioner, assignment, report = self._simulate()
        evaluated = partitioner.evaluate_reference(model, assignment, 64)
        assert report.communication_bytes == pytest.approx(
            evaluated.total_communication_bytes, rel=1e-12
        )

    def test_microbatching_only_helps(self):
        """More micro-batches can only hide more stage-transfer latency."""
        *_, unsplit = self._simulate(num_microbatches=1)
        *_, split = self._simulate(num_microbatches=8)
        assert split.step_seconds <= unsplit.step_seconds + 1e-12
        # The traffic itself is identical; only the overlap changes.
        assert split.communication_bytes == pytest.approx(
            unsplit.communication_bytes, rel=1e-12
        )

    def test_microbatch_count_is_irrelevant_without_pipeline_layers(self):
        from repro.accelerator.array import ArrayConfig
        from repro.sim.training import TrainingSimulator

        model = lenet_c()
        array = ArrayConfig(num_accelerators=4)
        assignment = HierarchicalAssignment.uniform(DATA, array.num_levels, len(model))
        reports = [
            TrainingSimulator(array, num_microbatches=m).simulate(
                model, assignment, 64, "dp"
            )
            for m in (1, 4, 16)
        ]
        assert len({r.step_seconds for r in reports}) == 1

    def test_invalid_microbatch_count_rejected(self):
        from repro.sim.training import TrainingSimulator

        with pytest.raises(ValueError):
            TrainingSimulator(num_microbatches=0)
