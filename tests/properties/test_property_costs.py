"""Property-based bit-exactness tests for the vectorized cost engine.

The vectorized :class:`~repro.core.costs.CostTable` /
:class:`~repro.core.costs.HierarchicalCostTable` paths promise *bit-exact*
agreement with the object-based reference path -- not just approximate
equality: same optimum bytes, same argmin assignment under the documented
dp-tie rule, and identical totals for every candidate of an enumeration.
These tests drive both paths over random models, batch sizes, scales and
tensor chains and assert exact float equality throughout.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np

from repro.core.communication import CommunicationModel
from repro.core.costs import CostTable, HierarchicalCostTable
from repro.core.exhaustive import (
    exhaustive_two_way,
    exhaustive_two_way_reference,
)
from repro.core.hierarchical import HierarchicalPartitioner
from repro.core.parallelism import (
    HierarchicalAssignment,
    LayerAssignment,
    StrategySpace,
)
from repro.core.partitioner import TwoWayPartitioner
from repro.core.tensors import (
    LayerTensors,
    ScalingMode,
    TensorScale,
    model_tensors,
)
from repro.nn.layers import Activation, ConvLayer, FCLayer
from repro.nn.model import build_model
from repro.nn.shapes import MergeOp

amounts = st.floats(min_value=1.0, max_value=1e8, allow_nan=False, allow_infinity=False)


@st.composite
def tensor_chains(draw, min_layers=1, max_layers=8):
    count = draw(st.integers(min_value=min_layers, max_value=max_layers))
    return [
        LayerTensors(
            layer_index=index,
            layer_name=f"layer{index}",
            is_conv=draw(st.booleans()),
            feature_in=draw(amounts),
            feature_out=draw(amounts),
            weight=draw(amounts),
            macs=draw(amounts),
        )
        for index in range(count)
    ]


@st.composite
def small_models(draw, max_layers=4):
    """Random conv/fc stacks (conv layers first, as shapes require)."""
    num_conv = draw(st.integers(min_value=0, max_value=max_layers - 1))
    num_fc = draw(st.integers(min_value=1, max_value=max_layers - num_conv))
    specs = [
        ConvLayer(
            name=f"conv{i}",
            out_channels=draw(st.integers(min_value=1, max_value=24)),
            kernel_size=3,
            padding=1,
        )
        for i in range(num_conv)
    ]
    specs += [
        FCLayer(name=f"fc{i}", out_features=draw(st.integers(min_value=1, max_value=256)))
        for i in range(num_fc)
    ]
    return build_model("random", (8, 8, 3), specs)


@st.composite
def tensor_scales(draw, num_layers):
    """Per-layer scales as they occur in real descents (powers of two)."""
    return [
        TensorScale(
            batch_fraction=0.5 ** draw(st.integers(min_value=0, max_value=4)),
            weight_fraction=0.5 ** draw(st.integers(min_value=0, max_value=4)),
        )
        for _ in range(num_layers)
    ]


batch_sizes = st.sampled_from([1, 8, 32, 256, 1024])


@st.composite
def dag_edges(draw, num_layers):
    """A random layer DAG over ``num_layers`` layers, in canonical edge order.

    Every layer except the first draws one to three distinct predecessors;
    dangling outputs are wired into the final layer, matching the model
    invariant that only the sink has no consumer.
    """
    inputs: list[list[int]] = [[]]
    for layer in range(1, num_layers):
        count = draw(
            st.integers(min_value=1, max_value=min(3, layer)), label="fan_in"
        )
        sources = draw(
            st.lists(
                st.integers(min_value=0, max_value=layer - 1),
                min_size=count,
                max_size=count,
                unique=True,
            ),
            label="sources",
        )
        inputs.append(sorted(sources))
    consumed = {source for layer_inputs in inputs for source in layer_inputs}
    for layer in range(num_layers - 1):
        if layer not in consumed and layer not in inputs[-1]:
            inputs[-1].append(layer)
    inputs[-1].sort()
    return tuple(
        (source, layer) for layer in range(num_layers) for source in inputs[layer]
    )


@st.composite
def small_dag_models(draw, max_layers=6):
    """Random branching conv networks with ADD and CONCAT merge points.

    Every convolution is 3x3 / pad 1, so all feature maps share the input's
    spatial dimensions and any pair of branches can merge; ``ADD`` is drawn
    only when the branch shapes coincide, ``CONCAT`` otherwise.
    """
    num_layers = draw(st.integers(min_value=2, max_value=max_layers), label="layers")
    edges = draw(dag_edges(num_layers), label="edges")
    inputs: list[list[int]] = [[] for _ in range(num_layers)]
    for source, destination in edges:
        inputs[destination].append(source)
    channel_choices = st.sampled_from([2, 3, 4, 6])
    specs = []
    channels: list[int] = []
    for layer in range(num_layers):
        out_channels = draw(channel_choices, label="channels")
        if len(inputs[layer]) > 1:
            branch_channels = {channels[source] for source in inputs[layer]}
            if len(branch_channels) == 1 and draw(st.booleans(), label="merge_add"):
                merge = MergeOp.ADD
            else:
                merge = MergeOp.CONCAT
        else:
            merge = MergeOp.ADD
        specs.append(
            ConvLayer(
                name=f"conv{layer}",
                out_channels=out_channels,
                kernel_size=3,
                padding=1,
                activation=Activation.RELU,
                inputs=tuple(f"conv{source}" for source in inputs[layer]) or None,
                merge=merge,
            )
        )
        channels.append(out_channels)
    return build_model("random-dag", (5, 5, 2), specs)


class TestCostTableMatchesCommunicationModel:
    @settings(max_examples=60, deadline=None)
    @given(tensors=tensor_chains(), data=st.data())
    def test_batch_scorer_is_bit_exact_on_every_candidate(self, tensors, data):
        """score_codes == CommunicationModel.total_bytes, float for float."""
        comm = CommunicationModel()
        table = CostTable.from_tensors(tensors, comm)
        totals = table.score_codes(np.arange(table.num_assignments))
        for bits in range(table.num_assignments):
            assignment = LayerAssignment.from_codes(bits, len(tensors))
            assert totals[bits] == comm.total_bytes(tensors, assignment)

    @settings(max_examples=60, deadline=None)
    @given(tensors=tensor_chains())
    def test_array_dp_matches_reference_dp_exactly(self, tensors):
        """Same optimum bytes AND same argmin chain (dp-tie rule included)."""
        partitioner = TwoWayPartitioner()
        vectorized = partitioner.partition_tensors(tensors)
        reference = partitioner.partition_tensors_reference(tensors)
        assert vectorized.communication_bytes == reference.communication_bytes
        assert vectorized.assignment.choices == reference.assignment.choices

    @settings(max_examples=40, deadline=None)
    @given(tensors=tensor_chains(max_layers=7))
    def test_vectorized_brute_force_matches_reference_brute_force(self, tensors):
        vectorized = exhaustive_two_way(tensors)
        reference = exhaustive_two_way_reference(tensors)
        assert vectorized.communication_bytes == reference.communication_bytes
        assert vectorized.assignment.choices == reference.assignment.choices

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_real_models_with_scales_are_bit_exact(self, data):
        """Compiled tables over real layer shapes, batch sizes and scales."""
        model = data.draw(small_models(), label="model")
        batch = data.draw(batch_sizes, label="batch")
        scales = data.draw(tensor_scales(len(model)), label="scales")
        tensors = model_tensors(model, batch, scales)
        partitioner = TwoWayPartitioner()
        vectorized = partitioner.partition_tensors(tensors)
        reference = partitioner.partition_tensors_reference(tensors)
        assert vectorized.communication_bytes == reference.communication_bytes
        assert vectorized.assignment.choices == reference.assignment.choices
        brute = exhaustive_two_way(tensors)
        brute_reference = exhaustive_two_way_reference(tensors)
        assert brute.communication_bytes == brute_reference.communication_bytes
        assert brute.assignment.choices == brute_reference.assignment.choices


PIPELINE_SPACE = StrategySpace.parse("dp,mp,pp")


class TestBaseThreeSpaceMatchesObjectPath:
    """The K-way generalization must stay bit-exact beyond the binary space."""

    @settings(max_examples=40, deadline=None)
    @given(tensors=tensor_chains(max_layers=6), data=st.data())
    def test_base_three_batch_scorer_is_bit_exact(self, tensors, data):
        comm = CommunicationModel()
        table = CostTable.from_tensors(tensors, comm, PIPELINE_SPACE)
        totals = table.score_codes(np.arange(table.num_assignments))
        for codes in range(table.num_assignments):
            assignment = LayerAssignment.from_codes(codes, len(tensors), PIPELINE_SPACE)
            assert totals[codes] == comm.total_bytes(tensors, assignment)

    @settings(max_examples=40, deadline=None)
    @given(tensors=tensor_chains())
    def test_base_three_array_dp_matches_reference(self, tensors):
        partitioner = TwoWayPartitioner(strategies=PIPELINE_SPACE)
        vectorized = partitioner.partition_tensors(tensors)
        reference = partitioner.partition_tensors_reference(tensors)
        assert vectorized.communication_bytes == reference.communication_bytes
        assert vectorized.assignment.choices == reference.assignment.choices

    @settings(max_examples=25, deadline=None)
    @given(tensors=tensor_chains(max_layers=5))
    def test_base_three_brute_force_matches_reference(self, tensors):
        vectorized = exhaustive_two_way(tensors, strategies=PIPELINE_SPACE)
        reference = exhaustive_two_way_reference(tensors, strategies=PIPELINE_SPACE)
        assert vectorized.communication_bytes == reference.communication_bytes
        assert vectorized.assignment.choices == reference.assignment.choices

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_base_three_hierarchical_evaluation_is_bit_exact(self, data):
        model = data.draw(small_models(), label="model")
        batch = data.draw(batch_sizes, label="batch")
        num_levels = data.draw(st.integers(min_value=1, max_value=3), label="levels")
        mode = data.draw(st.sampled_from(list(ScalingMode)), label="mode")
        partitioner = HierarchicalPartitioner(
            num_levels=num_levels, scaling_mode=mode, strategies=PIPELINE_SPACE
        )
        table = partitioner.compile_table(model, batch)
        assignment = HierarchicalAssignment.of(
            [
                [
                    data.draw(st.integers(min_value=0, max_value=2), label="code")
                    for _ in range(len(model))
                ]
                for _ in range(num_levels)
            ]
        )
        reference = partitioner.evaluate_reference(model, assignment, batch)
        assert table.total_bytes(assignment) == reference.total_communication_bytes
        evaluated = partitioner.evaluate(model, assignment, batch, table=table)
        assert (
            evaluated.total_communication_bytes == reference.total_communication_bytes
        )
        for fast, slow in zip(evaluated.levels, reference.levels):
            assert fast.communication_bytes == slow.communication_bytes

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_base_three_hierarchical_batch_scoring_is_bit_exact(self, data):
        model = data.draw(small_models(max_layers=2), label="model")
        batch = data.draw(batch_sizes, label="batch")
        num_levels = data.draw(st.integers(min_value=1, max_value=2), label="levels")
        mode = data.draw(st.sampled_from(list(ScalingMode)), label="mode")
        partitioner = HierarchicalPartitioner(
            num_levels=num_levels, scaling_mode=mode, strategies=PIPELINE_SPACE
        )
        table = partitioner.compile_table(model, batch)
        totals = table.score_codes(np.arange(table.num_assignments))
        for codes in range(table.num_assignments):
            assignment = table.codes_to_assignment(codes)
            reference = partitioner.evaluate_reference(model, assignment, batch)
            assert totals[codes] == reference.total_communication_bytes


class TestDagTablesMatchObjectOracle:
    """Edge-indexed tables over random DAGs versus the object-based oracle."""

    @settings(max_examples=50, deadline=None)
    @given(tensors=tensor_chains(min_layers=2, max_layers=6), data=st.data())
    def test_dag_batch_scorer_is_bit_exact(self, tensors, data):
        """score_codes over random edge lists == generalized total_bytes."""
        edges = data.draw(dag_edges(len(tensors)), label="edges")
        comm = CommunicationModel()
        table = CostTable.from_tensors(tensors, comm, edges=edges)
        totals = table.score_codes(np.arange(table.num_assignments))
        for codes in range(table.num_assignments):
            assignment = LayerAssignment.from_codes(codes, len(tensors))
            assert totals[codes] == comm.total_bytes(tensors, assignment, edges)

    @settings(max_examples=50, deadline=None)
    @given(tensors=tensor_chains(min_layers=2, max_layers=6), data=st.data())
    def test_dag_dp_matches_brute_force_minimum(self, tensors, data):
        """The cut-vertex DP finds the exact brute-force optimum, bit for bit.

        Only the DAG program shares the batched scorer's float
        association; a drawn edge list that happens to be the chain keeps
        the historical Algorithm 1 DP, whose oracle is the scalar
        reference DP (the two accumulate in different orders and may
        differ from the enumeration total by an ULP).
        """
        edges = data.draw(dag_edges(len(tensors)), label="edges")
        table = CostTable.from_tensors(tensors, edges=edges)
        searched = table.dp_partition()
        if table.is_chain:
            reference = TwoWayPartitioner().partition_tensors_reference(tensors)
            assert searched.communication_bytes == reference.communication_bytes
            assert searched.assignment.choices == reference.assignment.choices
        else:
            _, brute_total = table.argmin_assignment()
            assert searched.communication_bytes == brute_total
            # The reported total is the exact score of the returned
            # assignment.
            assert (
                table.total_bytes(searched.assignment)
                == searched.communication_bytes
            )

    @settings(max_examples=25, deadline=None)
    @given(tensors=tensor_chains(min_layers=2, max_layers=5), data=st.data())
    def test_dag_base_three_dp_and_scorer_match_oracle(self, tensors, data):
        edges = data.draw(dag_edges(len(tensors)), label="edges")
        comm = CommunicationModel()
        table = CostTable.from_tensors(tensors, comm, PIPELINE_SPACE, edges=edges)
        totals = table.score_codes(np.arange(table.num_assignments))
        for codes in range(table.num_assignments):
            assignment = LayerAssignment.from_codes(codes, len(tensors), PIPELINE_SPACE)
            assert totals[codes] == comm.total_bytes(tensors, assignment, edges)
        searched = table.dp_partition()
        if table.is_chain:
            reference = TwoWayPartitioner(
                strategies=PIPELINE_SPACE
            ).partition_tensors_reference(tensors)
            assert searched.communication_bytes == reference.communication_bytes
        else:
            assert searched.communication_bytes == float(np.min(totals))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_dag_model_tables_match_oracle(self, data):
        """Compiled tables of real branching models are bit-exact end to end."""
        model = data.draw(small_dag_models(), label="model")
        batch = data.draw(batch_sizes, label="batch")
        tensors = model_tensors(model, batch)
        comm = CommunicationModel()
        table = CostTable.compile(model, batch, communication_model=comm)
        assert table.edges == model.edges
        totals = table.score_codes(np.arange(table.num_assignments))
        for codes in range(table.num_assignments):
            assignment = LayerAssignment.from_codes(codes, len(model))
            assert totals[codes] == comm.total_bytes(tensors, assignment, model.edges)
        searched = table.dp_partition()
        if model.is_chain:
            reference = TwoWayPartitioner().partition_tensors_reference(tensors)
            assert searched.communication_bytes == reference.communication_bytes
        else:
            assert searched.communication_bytes == float(np.min(totals))
            # The lazy breakdown of the winner reproduces the exact total.
            breakdown_total = 0.0
            for record in searched.breakdown:
                breakdown_total += record.total_bytes
            assert breakdown_total == searched.communication_bytes

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_dag_hierarchical_evaluation_is_bit_exact(self, data):
        model = data.draw(small_dag_models(max_layers=4), label="model")
        batch = data.draw(batch_sizes, label="batch")
        num_levels = data.draw(st.integers(min_value=1, max_value=3), label="levels")
        mode = data.draw(st.sampled_from(list(ScalingMode)), label="mode")
        partitioner = HierarchicalPartitioner(num_levels=num_levels, scaling_mode=mode)
        table = partitioner.compile_table(model, batch)
        assignment = HierarchicalAssignment.of(
            [
                [
                    data.draw(st.integers(min_value=0, max_value=1), label="bit")
                    for _ in range(len(model))
                ]
                for _ in range(num_levels)
            ]
        )
        reference = partitioner.evaluate_reference(model, assignment, batch)
        assert table.total_bytes(assignment) == reference.total_communication_bytes
        evaluated = partitioner.evaluate(model, assignment, batch, table=table)
        assert (
            evaluated.total_communication_bytes == reference.total_communication_bytes
        )
        for fast, slow in zip(evaluated.levels, reference.levels):
            assert fast.communication_bytes == slow.communication_bytes
            assert [record.total_bytes for record in fast.breakdown] == [
                record.total_bytes for record in slow.breakdown
            ]

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_dag_hierarchical_batch_scoring_is_bit_exact(self, data):
        model = data.draw(small_dag_models(max_layers=3), label="model")
        batch = data.draw(batch_sizes, label="batch")
        num_levels = data.draw(st.integers(min_value=1, max_value=2), label="levels")
        mode = data.draw(st.sampled_from(list(ScalingMode)), label="mode")
        partitioner = HierarchicalPartitioner(num_levels=num_levels, scaling_mode=mode)
        table = partitioner.compile_table(model, batch)
        totals = table.score_codes(np.arange(table.num_assignments))
        for codes in range(table.num_assignments):
            assignment = table.codes_to_assignment(codes)
            reference = partitioner.evaluate_reference(model, assignment, batch)
            assert totals[codes] == reference.total_communication_bytes


class TestHierarchicalTableMatchesObjectPath:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_random_assignments_score_bit_exactly(self, data):
        model = data.draw(small_models(), label="model")
        batch = data.draw(batch_sizes, label="batch")
        num_levels = data.draw(st.integers(min_value=1, max_value=3), label="levels")
        mode = data.draw(st.sampled_from(list(ScalingMode)), label="mode")
        partitioner = HierarchicalPartitioner(num_levels=num_levels, scaling_mode=mode)
        table = partitioner.compile_table(model, batch)
        assignment = HierarchicalAssignment.of(
            [
                [
                    data.draw(st.integers(min_value=0, max_value=1), label="bit")
                    for _ in range(len(model))
                ]
                for _ in range(num_levels)
            ]
        )
        reference = partitioner.evaluate_reference(model, assignment, batch)
        assert table.total_bytes(assignment) == reference.total_communication_bytes
        evaluated = partitioner.evaluate(model, assignment, batch, table=table)
        assert (
            evaluated.total_communication_bytes == reference.total_communication_bytes
        )
        for fast, slow in zip(evaluated.levels, reference.levels):
            assert fast.communication_bytes == slow.communication_bytes
            assert [record.total_bytes for record in fast.breakdown] == [
                record.total_bytes for record in slow.breakdown
            ]

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_search_over_table_matches_object_descent(self, data):
        """Algorithm 2 driven by the table equals the classic level-by-level
        descent built from the reference DP and ``descend_scales``."""
        from repro.core.tensors import descend_scales, initial_scales

        model = data.draw(small_models(), label="model")
        batch = data.draw(batch_sizes, label="batch")
        num_levels = data.draw(st.integers(min_value=1, max_value=3), label="levels")
        mode = data.draw(st.sampled_from(list(ScalingMode)), label="mode")
        partitioner = HierarchicalPartitioner(num_levels=num_levels, scaling_mode=mode)
        searched = partitioner.partition(model, batch)

        two_way = TwoWayPartitioner(partitioner.communication_model)
        scales = initial_scales(len(model))
        for level in range(num_levels):
            tensors = model_tensors(model, batch, scales)
            reference = two_way.partition_tensors_reference(tensors)
            level_result = searched.levels[level]
            assert level_result.assignment.choices == reference.assignment.choices
            assert level_result.communication_bytes == reference.communication_bytes
            scales = descend_scales(scales, reference.assignment, mode)

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_hierarchical_batch_scoring_is_bit_exact(self, data):
        """Every candidate of a small full space scores identically."""
        model = data.draw(small_models(max_layers=3), label="model")
        batch = data.draw(batch_sizes, label="batch")
        num_levels = data.draw(st.integers(min_value=1, max_value=2), label="levels")
        mode = data.draw(st.sampled_from(list(ScalingMode)), label="mode")
        partitioner = HierarchicalPartitioner(num_levels=num_levels, scaling_mode=mode)
        table = partitioner.compile_table(model, batch)
        totals = table.score_codes(np.arange(1 << table.total_digits))
        for bits in range(1 << table.total_digits):
            assignment = table.codes_to_assignment(bits)
            reference = partitioner.evaluate_reference(model, assignment, batch)
            assert totals[bits] == reference.total_communication_bytes
