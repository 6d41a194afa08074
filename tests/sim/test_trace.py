"""Tests for communication-trace extraction."""

import pytest

from repro.core.baselines import data_parallelism, model_parallelism
from repro.core.costmodel import resolve_cost_model, shipped_profiles
from repro.core.hierarchical import HierarchicalPartitioner
from repro.interconnect import HTreeTopology, TorusTopology
from repro.sim.trace import CommunicationTrace, TraceBuilder, Transfer
from repro.nn.model_zoo import alexnet, lenet_c, resnet_s, vgg_a


@pytest.fixture(scope="module")
def builder():
    return TraceBuilder()


@pytest.fixture(scope="module")
def lenet_dp_trace(builder):
    model = lenet_c()
    return builder.build(model, data_parallelism(model, 4), 256)


@pytest.fixture(scope="module")
def alexnet_hypar_trace(builder):
    model = alexnet()
    assignment = HierarchicalPartitioner(num_levels=4).partition(model, 256).assignment
    return builder.build(model, assignment, 256)


class TestTransferRecord:
    def test_valid_transfer(self):
        transfer = Transfer(0, 1, 128.0, "conv1", "forward", 0, "intra")
        assert transfer.num_bytes == 128.0

    def test_invalid_transfers_rejected(self):
        with pytest.raises(ValueError):
            Transfer(0, 0, 1.0, "conv1", "forward", 0, "intra")
        with pytest.raises(ValueError):
            Transfer(0, 1, -1.0, "conv1", "forward", 0, "intra")
        with pytest.raises(ValueError):
            Transfer(0, 1, 1.0, "conv1", "sideways", 0, "intra")
        with pytest.raises(ValueError):
            Transfer(0, 1, 1.0, "conv1", "forward", 0, "broadcast")


class TestTraceTotals:
    def test_total_matches_partitioner_objective(self, builder):
        """The trace's byte total equals Algorithm 2's communication objective."""
        partitioner = HierarchicalPartitioner(num_levels=4)
        for model in (lenet_c(), alexnet()):
            for assignment in (
                data_parallelism(model, 4),
                model_parallelism(model, 4),
                partitioner.partition(model, 256).assignment,
            ):
                trace = builder.build(model, assignment, 256)
                expected = partitioner.evaluate(model, assignment, 256)
                assert trace.total_bytes == pytest.approx(
                    expected.total_communication_bytes, rel=1e-9
                )

    @pytest.mark.parametrize("pack", sorted(shipped_profiles()))
    def test_calibrated_total_matches_partitioner_objective(self, pack):
        """Under a profiled cost model the trace still totals the objective."""
        communication_model = resolve_cost_model(f"profiled:{pack}").communication_model()
        partitioner = HierarchicalPartitioner(
            num_levels=4, communication_model=communication_model
        )
        builder = TraceBuilder(communication_model=communication_model)
        for model in (vgg_a(), lenet_c(), resnet_s()):
            result = partitioner.partition(model, 256)
            trace = builder.build(model, result.assignment, 256)
            assert trace.total_bytes == pytest.approx(
                result.total_communication_bytes, rel=1e-9
            )

    def test_per_level_totals_match(self, builder):
        model = alexnet()
        partitioner = HierarchicalPartitioner(num_levels=4)
        assignment = partitioner.partition(model, 256).assignment
        trace = builder.build(model, assignment, 256)
        expected = partitioner.evaluate(model, assignment, 256)
        by_level = trace.bytes_by_level()
        for level_result in expected.levels:
            assert by_level.get(level_result.level, 0.0) == pytest.approx(
                level_result.total_bytes, rel=1e-9
            )

    def test_phase_totals_sum_to_total(self, alexnet_hypar_trace):
        by_phase = alexnet_hypar_trace.bytes_by_phase()
        assert sum(by_phase.values()) == pytest.approx(alexnet_hypar_trace.total_bytes)

    def test_layer_totals_sum_to_total(self, alexnet_hypar_trace):
        by_layer = alexnet_hypar_trace.bytes_by_layer()
        assert sum(by_layer.values()) == pytest.approx(alexnet_hypar_trace.total_bytes)


class TestTraceStructure:
    def test_dp_traffic_is_gradient_phase_only(self, lenet_dp_trace):
        by_phase = lenet_dp_trace.bytes_by_phase()
        assert by_phase["gradient"] == pytest.approx(lenet_dp_trace.total_bytes)
        assert by_phase["forward"] == 0.0

    def test_mp_traffic_includes_forward_partial_sums(self, builder):
        model = lenet_c()
        trace = builder.build(model, model_parallelism(model, 4), 256)
        assert trace.bytes_by_phase()["forward"] > 0

    def test_transfers_are_symmetric(self, lenet_dp_trace):
        """Every exchange appears in both directions with equal volume."""
        by_pair_directed = {}
        for transfer in lenet_dp_trace.transfers:
            key = (transfer.source, transfer.destination)
            by_pair_directed[key] = by_pair_directed.get(key, 0.0) + transfer.num_bytes
        for (src, dst), volume in by_pair_directed.items():
            assert by_pair_directed[(dst, src)] == pytest.approx(volume)

    def test_partners_stay_within_their_pair_boundaries(self, lenet_dp_trace):
        """At the deepest level accelerators only talk to their sibling."""
        deepest = [t for t in lenet_dp_trace.transfers if t.level == 3]
        for transfer in deepest:
            assert transfer.source // 2 == transfer.destination // 2

    def test_filter(self, alexnet_hypar_trace):
        forward_only = alexnet_hypar_trace.filter(phase="forward")
        assert all(t.phase == "forward" for t in forward_only)
        level0_conv1 = alexnet_hypar_trace.filter(level=0, layer_name="conv1")
        assert all(t.level == 0 and t.layer_name == "conv1" for t in level0_conv1)

    def test_layer_count_mismatch_rejected(self, builder):
        with pytest.raises(ValueError):
            builder.build(lenet_c(), data_parallelism(alexnet(), 4), 256)


class TestLinkTraffic:
    def test_htree_link_loads_account_for_all_traffic(self, lenet_dp_trace):
        topology = HTreeTopology(16, 200e6)
        loads = lenet_dp_trace.link_traffic(topology)
        # Every transfer crosses at least one link, so the summed link load is
        # at least the injected traffic.
        assert sum(loads.values()) >= lenet_dp_trace.total_bytes

    def test_torus_spreads_traffic_over_more_link_bytes_than_htree_uses_hops(
        self, alexnet_hypar_trace
    ):
        htree = HTreeTopology(16, 200e6)
        torus = TorusTopology(16, 200e6)
        htree_loads = alexnet_hypar_trace.link_traffic(htree)
        torus_loads = alexnet_hypar_trace.link_traffic(torus)
        assert sum(htree_loads.values()) > 0
        assert sum(torus_loads.values()) > 0

    def test_accelerator_pair_totals(self, lenet_dp_trace):
        by_pair = lenet_dp_trace.bytes_by_accelerator_pair()
        assert sum(by_pair.values()) == pytest.approx(lenet_dp_trace.total_bytes)
        for (a, b), volume in by_pair.items():
            assert a < b
            assert volume > 0
