"""Request canonicalization and cache-key determinism."""

import pytest

from repro.core.costmodel import shipped_profiles
from repro.service import schemas
from repro.service.schemas import (
    PartitionRequest,
    SchemaError,
    SimulateRequest,
    SweepRequest,
)
from repro.sweep.spec import PRESETS


class TestPartitionRequest:
    def test_defaults_fill_in(self):
        request = PartitionRequest.from_payload({"model": "VGG-A"})
        assert request == PartitionRequest(model="VGG-A")
        assert request.batch_size == 256
        assert request.num_accelerators == 16
        assert request.scaling_mode == "parallelism-aware"
        assert request.strategies == "dp,mp"

    def test_key_invariant_under_field_reordering(self):
        first = PartitionRequest.from_payload(
            {"model": "Lenet-c", "batch_size": 64, "num_accelerators": 4}
        )
        second = PartitionRequest.from_payload(
            {"num_accelerators": 4, "model": "Lenet-c", "batch_size": 64}
        )
        assert first == second
        assert first.cache_key() == second.cache_key()

    def test_key_invariant_under_default_filling(self):
        implicit = PartitionRequest.from_payload({"model": "VGG-A"})
        explicit = PartitionRequest.from_payload(
            {
                "model": "vgg_a",
                "batch_size": 256,
                "num_accelerators": 16,
                "scaling_mode": "PARALLELISM_AWARE",
                "strategies": "dp,mp",
            }
        )
        assert implicit == explicit
        assert implicit.cache_key() == explicit.cache_key()

    def test_model_aliases_and_separators_canonicalize(self):
        for spelling in ("vgg16", "VGG-D", "vgg_d"):
            assert PartitionRequest.from_payload({"model": spelling}).model == "VGG-D"

    def test_distinct_requests_get_distinct_keys(self):
        base = PartitionRequest.from_payload({"model": "VGG-A"})
        other = PartitionRequest.from_payload({"model": "VGG-A", "batch_size": 64})
        assert base.cache_key() != other.cache_key()

    def test_kind_disambiguates_the_key(self):
        partition = PartitionRequest.from_payload({"model": "VGG-A"})
        simulate = SimulateRequest.from_payload({"model": "VGG-A"})
        assert partition.cache_key() != simulate.cache_key()

    def test_unknown_fields_rejected_with_known_list(self):
        with pytest.raises(SchemaError, match="batchsize"):
            PartitionRequest.from_payload({"model": "VGG-A", "batchsize": 64})
        with pytest.raises(SchemaError, match="known fields: model, batch_size"):
            PartitionRequest.from_payload({"model": "VGG-A", "nope": 1})

    def test_missing_model_rejected(self):
        with pytest.raises(SchemaError, match="'model' is required"):
            PartitionRequest.from_payload({})

    def test_unknown_model_rejected_with_zoo_listing(self):
        with pytest.raises(SchemaError, match="known models"):
            PartitionRequest.from_payload({"model": "resnet-152"})

    def test_non_mapping_body_rejected(self):
        with pytest.raises(SchemaError, match="JSON object"):
            PartitionRequest.from_payload(["VGG-A"])

    def test_backend_field_accepts_only_numpy(self):
        default = PartitionRequest.from_payload({"model": "VGG-A"})
        explicit = PartitionRequest.from_payload({"model": "VGG-A", "backend": "numpy"})
        assert explicit == default
        assert explicit.cache_key() == default.cache_key()
        with pytest.raises(
            SchemaError, match="field 'backend' must be 'numpy', got 'compiled'"
        ):
            PartitionRequest.from_payload({"model": "VGG-A", "backend": "compiled"})

    @pytest.mark.parametrize(
        "payload",
        [
            {"model": "VGG-A"},
            {"model": "Lenet-c", "batch_size": 64, "num_accelerators": 4},
            {"model": "VGG-A", "cost_model": "profiled:fp16-precision"},
        ],
    )
    def test_partition_and_simulate_share_the_table_coalesce_key(self, payload):
        """One configuration compiles one table, whichever endpoint asks."""
        partition = PartitionRequest.from_payload(payload)
        simulate = SimulateRequest.from_payload(payload)
        assert partition.coalesce_key() == simulate.coalesce_key()

    def test_profile_directory_is_listed_once_per_spelling(self, monkeypatch):
        calls = []

        def counting_shipped_profiles():
            calls.append(1)
            return shipped_profiles()

        monkeypatch.setattr(schemas, "shipped_profiles", counting_shipped_profiles)
        # A spelling no other test sends, so the memo starts without it.
        payload = {"model": "VGG-A", "cost_model": "  profiled:fp16-precision"}
        requests = [PartitionRequest.from_payload(payload) for _ in range(5)]
        assert len(calls) == 1
        assert {request.cost_model for request in requests} == {"profiled:fp16-precision"}

    def test_unknown_backend_rejected(self):
        with pytest.raises(SchemaError, match="cuda"):
            PartitionRequest.from_payload({"model": "VGG-A", "backend": "cuda"})

    @pytest.mark.parametrize(
        "payload, match",
        [
            ({"model": "VGG-A", "batch_size": 0}, "positive"),
            ({"model": "VGG-A", "batch_size": True}, "integer"),
            ({"model": "VGG-A", "batch_size": "big"}, "integer"),
            ({"model": "VGG-A", "num_accelerators": 12}, "power of two"),
            ({"model": "VGG-A", "num_accelerators": 1}, "power of two >= 2"),
            ({"model": "VGG-A", "scaling_mode": "bogus"}, "bogus"),
            ({"model": "VGG-A", "strategies": "dp,zz"}, "zz"),
        ],
    )
    def test_invalid_field_values_rejected(self, payload, match):
        with pytest.raises(SchemaError, match=match):
            PartitionRequest.from_payload(payload)


class TestSimulateRequest:
    def test_topology_canonicalizes(self):
        request = SimulateRequest.from_payload({"model": "SFC", "topology": "Torus"})
        assert request.topology == "torus"

    def test_unknown_topology_rejected(self):
        with pytest.raises(SchemaError, match="htree, torus"):
            SimulateRequest.from_payload({"model": "SFC", "topology": "mesh"})

    def test_single_accelerator_point_allowed(self):
        request = SimulateRequest.from_payload({"model": "SFC", "num_accelerators": 1})
        assert request.num_accelerators == 1

    def test_explicit_analytic_engine_shares_the_legacy_cache_key(self):
        """"analytic" is canonicalized *out* of the payload, so hashes
        minted before the field existed stay valid."""
        legacy = SimulateRequest.from_payload({"model": "SFC"})
        explicit = SimulateRequest.from_payload(
            {"model": "SFC", "sim_engine": "analytic"}
        )
        assert explicit.cache_key() == legacy.cache_key()
        assert "sim_engine" not in legacy.canonical_payload()

    def test_network_engine_is_part_of_the_cache_key(self):
        analytic = SimulateRequest.from_payload({"model": "SFC"})
        network = SimulateRequest.from_payload(
            {"model": "SFC", "sim_engine": "Network"}
        )
        assert network.sim_engine == "network"
        assert network.cache_key() != analytic.cache_key()
        assert network.canonical_payload()["sim_engine"] == "network"

    def test_unknown_engine_rejected(self):
        with pytest.raises(SchemaError, match="analytic, network"):
            SimulateRequest.from_payload({"model": "SFC", "sim_engine": "psychic"})

    def test_engine_does_not_fragment_table_coalescing(self):
        """Both engines price the same compiled cost table, so concurrent
        analytic/network requests for one platform share the compile."""
        analytic = SimulateRequest.from_payload({"model": "SFC"})
        network = SimulateRequest.from_payload(
            {"model": "SFC", "sim_engine": "network"}
        )
        assert network.coalesce_key() == analytic.coalesce_key()


class TestSweepRequest:
    def test_preset_expands_to_its_spec(self):
        request = SweepRequest.from_payload({"preset": "smoke"})
        assert request.to_spec() == PRESETS["smoke"]

    def test_inline_spec_round_trips(self):
        payload = {"spec": {"name": "mine", "models": ["VGG-A"], "batch_sizes": [64]}}
        spec = SweepRequest.from_payload(payload).to_spec()
        assert spec.name == "mine"
        assert spec.points()[0].batch_size == 64

    def test_spec_axes_canonicalize_to_one_key(self):
        sloppy = SweepRequest.from_payload(
            {"spec": {"name": "mine", "models": ["vgg_a"], "scaling_modes": ["UNIFORM"]}}
        )
        canonical = SweepRequest.from_payload(
            {"spec": {"name": "mine", "models": ["VGG-A"], "scaling_modes": ["uniform"]}}
        )
        assert sloppy == canonical
        assert sloppy.cache_key() == canonical.cache_key()

    def test_preset_and_spec_are_mutually_exclusive(self):
        with pytest.raises(SchemaError, match="exactly one"):
            SweepRequest.from_payload({})
        with pytest.raises(SchemaError, match="exactly one"):
            SweepRequest.from_payload(
                {"preset": "smoke", "spec": {"name": "x", "models": ["SFC"]}}
            )

    def test_unknown_preset_lists_the_presets(self):
        with pytest.raises(SchemaError, match="smoke"):
            SweepRequest.from_payload({"preset": "gigantic"})

    def test_invalid_inline_spec_reports_the_cause(self):
        with pytest.raises(SchemaError, match="invalid sweep spec"):
            SweepRequest.from_payload({"spec": {"name": "x"}})
        with pytest.raises(SchemaError, match="known models"):
            SweepRequest.from_payload({"spec": {"name": "x", "models": ["nope"]}})

    @pytest.mark.parametrize(
        "axes, named",
        [
            ({"models": [5]}, "'models'"),
            ({"models": [None]}, "'models'"),
            ({"scaling_modes": [5]}, "'scaling_modes'"),
            ({"batch_sizes": [1.5]}, "'batch_sizes'"),
            ({"batch_sizes": [True]}, "'batch_sizes'"),
            ({"array_sizes": [True]}, "'array_sizes'"),
            ({"name": 5}, "'name'"),
        ],
    )
    def test_mistyped_spec_axes_are_refused_naming_the_axis(self, axes, named):
        spec = {"name": "x", "models": ["SFC"], **axes}
        with pytest.raises(SchemaError, match=f"invalid sweep spec: .*{named}"):
            SweepRequest.from_payload({"spec": spec})
