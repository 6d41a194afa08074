"""The pluggable cost-model layer: specs, validation, fitting, identity.

Covers the provider protocol itself (``canonical_cost_model`` /
``resolve_cost_model``), the ``hypar-profile/v1`` validator and the
outlier-filtered fit, the provider-aware cache identity that keeps
profiled tables from ever colliding with analytic ones, the bit-exactness
contract between a calibrated vectorized table and the object oracle, and
the end-to-end acceptance scenario: a shipped pack flips the chosen
partition on Lenet-c.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis.experiments import ExperimentRunner
from repro.core.communication import CalibratedCommunicationModel, CommunicationModel
from repro.core.costmodel import (
    ANALYTIC_SPEC,
    PROFILE_SCHEMA,
    AnalyticCostModel,
    ProfiledCostModel,
    canonical_cost_model,
    resolve_cost_model,
    shipped_profiles,
    tukey_filtered,
    validate_profile_payload,
)
from repro.core.costs import CostTable, LayerAssignment, TableCache, table_cache_key
from repro.core.tensors import model_tensors
from repro.nn.model_zoo import lenet_c
from repro.resilience.replan import ReplanConfig
from repro.sweep.spec import PlanConfig

SHIPPED_PACKS = ["congested-fabric", "fp16-precision", "hetero-accelerators",
                 "slow-interconnect"]


def valid_payload(**overrides) -> dict:
    """A minimal valid hypar-profile/v1 document."""
    payload = {
        "schema": PROFILE_SCHEMA,
        "name": "unit-test",
        "description": "synthetic",
        "precision_bytes": 4,
        "reference_bandwidth": 1.0e9,
        "links": {
            "intra": {"bandwidth": [1.0e9, 1.0e9, 1.0e9], "latency": [0.0, 0.0, 0.0]},
            "inter": {"bandwidth": [5.0e8, 5.0e8, 5.0e8], "latency": [1e-6, 1e-6, 1e-6]},
        },
        "layers": {},
    }
    payload.update(overrides)
    return payload


class TestSpecStrings:
    def test_none_and_empty_mean_analytic(self):
        assert canonical_cost_model(None) == ANALYTIC_SPEC
        assert canonical_cost_model("") == ANALYTIC_SPEC
        assert canonical_cost_model("  analytic  ") == ANALYTIC_SPEC

    def test_profiled_specs_keep_their_target(self):
        assert canonical_cost_model("profiled:foo") == "profiled:foo"
        assert canonical_cost_model(" profiled:foo ") == "profiled:foo"

    def test_garbage_specs_are_rejected(self):
        with pytest.raises(ValueError, match="analytic"):
            canonical_cost_model("empirical")
        with pytest.raises(ValueError, match="profiled"):
            canonical_cost_model("profiled:")


class TestResolve:
    def test_analytic_resolves_to_the_plain_model(self):
        model = resolve_cost_model("analytic")
        assert isinstance(model, AnalyticCostModel)
        comm = model.communication_model()
        assert type(comm) is CommunicationModel
        assert comm.same_costs(CommunicationModel())

    def test_shipped_packs_are_discoverable_and_resolvable(self):
        assert sorted(shipped_profiles()) == SHIPPED_PACKS
        for pack in SHIPPED_PACKS:
            model = resolve_cost_model(f"profiled:{pack}")
            assert isinstance(model, ProfiledCostModel)
            assert model.spec == f"profiled:{pack}"

    def test_shipped_packs_fit_once_per_process(self):
        first = resolve_cost_model("profiled:slow-interconnect")
        again = resolve_cost_model("profiled:slow-interconnect")
        assert first is again

    def test_file_paths_resolve_without_entering_the_shared_cache(self, tmp_path):
        path = tmp_path / "pack.json"
        path.write_text(json.dumps(valid_payload()))
        first = resolve_cost_model(f"profiled:{path}")
        again = resolve_cost_model(f"profiled:{path}")
        assert isinstance(first, ProfiledCostModel)
        assert first is not again

    def test_unknown_pack_error_names_the_shipped_packs(self):
        with pytest.raises(ValueError, match="slow-interconnect"):
            resolve_cost_model("profiled:no-such-pack")

    def test_cost_model_instances_pass_through(self):
        model = AnalyticCostModel()
        assert resolve_cost_model(model) is model


class TestProfileValidation:
    def test_valid_payload_has_no_errors(self):
        assert validate_profile_payload(valid_payload()) == []

    def test_every_shipped_pack_validates(self):
        for path in shipped_profiles().values():
            with open(path, encoding="utf-8") as handle:
                assert validate_profile_payload(json.load(handle)) == []

    def test_non_object_payload(self):
        assert validate_profile_payload([1, 2, 3]) == ["profile must be a JSON object"]

    @pytest.mark.parametrize(
        ("overrides", "fragment"),
        [
            ({"schema": "hypar-profile/v0"}, "schema must be"),
            ({"name": ""}, "name must be a non-empty string"),
            ({"precision_bytes": 0}, "precision_bytes"),
            ({"precision_bytes": True}, "precision_bytes"),
            ({"reference_bandwidth": -1.0}, "reference_bandwidth"),
            ({"links": None}, "links must be an object"),
            ({"layers": {"conv1": {"time_ms": [1.0, 1.0]}}}, "at least 3 samples"),
            ({"layers": {"conv1": {"time_ms": [1.0, 1.0, 0.0]}}}, "must be > 0.0"),
        ],
    )
    def test_violations_are_reported(self, overrides, fragment):
        errors = validate_profile_payload(valid_payload(**overrides))
        assert any(fragment in error for error in errors), errors

    def test_short_bandwidth_list_is_reported_with_its_path(self):
        payload = valid_payload()
        payload["links"]["inter"]["bandwidth"] = [1.0e9]
        errors = validate_profile_payload(payload)
        assert any("links.inter.bandwidth" in error for error in errors)

    def test_invalid_payload_raises_with_every_error_listed(self):
        payload = valid_payload(name="", precision_bytes=0)
        with pytest.raises(ValueError) as excinfo:
            ProfiledCostModel(payload)
        message = str(excinfo.value)
        assert "name must be" in message
        assert "precision_bytes" in message

    def test_load_of_missing_file_raises_value_error(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            ProfiledCostModel.load(str(tmp_path / "absent.json"))


class TestFitting:
    def test_tukey_drops_outliers_but_passes_small_samples_through(self):
        assert tukey_filtered([1.0, 1.0, 1.1, 0.9, 50.0]) == [0.9, 1.0, 1.0, 1.1]
        assert tukey_filtered([1.0, 50.0, 2.0]) == [1.0, 2.0, 50.0]

    def test_slow_interconnect_fit_matches_the_designed_values(self):
        report = resolve_cost_model("profiled:slow-interconnect").fit_report()
        assert report["intra_scale"] == pytest.approx(1.0)
        assert report["inter_scale"] == pytest.approx(16.0)
        assert report["inter_latency_bytes"] == pytest.approx(2000.0)
        assert report["layer_scales"] == {}
        # The synthetic samples include one outlier per quantity; the fit
        # reports it dropped.
        assert report["samples"]["inter_bandwidth"]["kept"] == 4
        assert report["samples"]["inter_bandwidth"]["total"] == 5

    def test_hetero_pack_fits_per_layer_scales(self):
        report = resolve_cost_model("profiled:hetero-accelerators").fit_report()
        assert report["layer_scales"] == pytest.approx(
            {"conv1": 0.4, "conv2": 0.4, "fc1": 1.6, "fc2": 1.6}
        )

    def test_fp16_pack_halves_the_element_width(self):
        comm = resolve_cost_model("profiled:fp16-precision").communication_model()
        assert comm.bytes_per_element == 2

    def test_residuals_are_zero_for_repeatable_and_grow_with_spread(self):
        tight = ProfiledCostModel(valid_payload()).fit_report()
        assert all(value == 0.0 for value in tight["residuals"].values())
        noisy = valid_payload()
        noisy["links"]["inter"]["bandwidth"] = [4.0e8, 5.0e8, 6.0e8]
        spread = ProfiledCostModel(noisy).fit_report()
        assert spread["residuals"]["inter_bandwidth"] > 0.0


class TestProviderIdentity:
    """The satellite bugfix: ``same_costs``/``cache_key`` know the provider."""

    def test_analytic_and_calibrated_never_share_costs(self):
        analytic = CommunicationModel()
        calibrated = CalibratedCommunicationModel("pack")
        # Identical bytes_per_element / pair_factor, yet different provider.
        assert analytic.bytes_per_element == calibrated.bytes_per_element
        assert not analytic.same_costs(calibrated)
        assert not calibrated.same_costs(analytic)
        assert analytic.cache_key != calibrated.cache_key

    def test_distinct_calibrations_have_distinct_identity(self):
        base = CalibratedCommunicationModel("pack", inter_scale=2.0)
        assert not base.same_costs(CalibratedCommunicationModel("pack", inter_scale=4.0))
        assert not base.same_costs(CalibratedCommunicationModel("other", inter_scale=2.0))
        assert base.same_costs(CalibratedCommunicationModel("pack", inter_scale=2.0))

    def test_compiled_table_rejects_a_foreign_provider(self):
        table = TableCache().get_or_compile(lenet_c(), 64, 2)
        with pytest.raises(ValueError):
            table.check_compatible(
                table.model,
                table.batch_size,
                table.num_levels,
                table.scaling_mode,
                CalibratedCommunicationModel("pack"),
            )

    def test_table_cache_key_separates_providers(self):
        analytic_key = table_cache_key(lenet_c(), 64, 2)
        profiled_key = table_cache_key(
            lenet_c(),
            64,
            2,
            communication_model=resolve_cost_model(
                "profiled:slow-interconnect"
            ).communication_model(),
        )
        assert analytic_key != profiled_key


class TestTableCacheMixedProviders:
    """Satellite 3: hit/miss/eviction accounting under mixed keys."""

    def test_mixed_providers_miss_then_hit_separately(self):
        cache = TableCache()
        profiled = resolve_cost_model("profiled:slow-interconnect").communication_model()
        analytic_table = cache.get_or_compile(lenet_c(), 64, 2)
        profiled_table = cache.get_or_compile(
            lenet_c(), 64, 2, communication_model=profiled
        )
        assert analytic_table is not profiled_table
        assert cache.stats()["misses"] == 2
        # Repeats hit their own entry, never the other provider's.
        assert cache.get_or_compile(lenet_c(), 64, 2) is analytic_table
        assert (
            cache.get_or_compile(lenet_c(), 64, 2, communication_model=profiled)
            is profiled_table
        )
        assert cache.stats() == {
            "hits": 2, "misses": 2, "size": 2, "evictions": 0, "hit_rate": 0.5,
        }

    def test_equal_calibrations_share_one_entry(self):
        cache = TableCache()
        first = cache.get_or_compile(
            lenet_c(), 64, 2,
            communication_model=CalibratedCommunicationModel("pack", inter_scale=2.0),
        )
        again = cache.get_or_compile(
            lenet_c(), 64, 2,
            communication_model=CalibratedCommunicationModel("pack", inter_scale=2.0),
        )
        assert first is again
        assert cache.hits == 1

    def test_eviction_counts_mixed_entries(self):
        cache = TableCache(limit=2)
        profiled = resolve_cost_model("profiled:slow-interconnect").communication_model()
        cache.get_or_compile(lenet_c(), 64, 2)
        cache.get_or_compile(lenet_c(), 64, 2, communication_model=profiled)
        cache.get_or_compile(lenet_c(), 128, 2)  # over the limit: full flush
        assert cache.evictions == 2
        assert len(cache) == 1


class TestCalibratedExactness:
    """Vectorized tables under a calibrated model match the object oracle."""

    @pytest.mark.parametrize("pack", SHIPPED_PACKS)
    def test_table_matches_oracle_float_for_float(self, pack):
        comm = resolve_cost_model(f"profiled:{pack}").communication_model()
        tensors = model_tensors(lenet_c(), 64)
        table = CostTable.from_tensors(tensors, comm)
        for code in range(table.num_assignments):
            assignment = LayerAssignment.from_codes(code, len(tensors))
            assert table.total_bytes(assignment) == comm.total_bytes(
                tensors, assignment
            )

    def test_score_codes_matches_total_bytes_under_calibration(self):
        comm = resolve_cost_model("profiled:congested-fabric").communication_model()
        tensors = model_tensors(lenet_c(), 64)
        table = CostTable.from_tensors(tensors, comm)
        codes = np.arange(table.num_assignments)
        totals = table.score_codes(codes)
        for code in codes:
            assignment = LayerAssignment.from_codes(int(code), len(tensors))
            assert totals[code] == table.total_bytes(assignment)

    def test_latency_term_only_charges_nonzero_transfers(self):
        comm = CalibratedCommunicationModel("pack", inter_latency_bytes=1000.0)
        assert comm._calibrated_transfer_bytes(0.0) == 0.0
        assert comm._calibrated_transfer_bytes(1.0) == pytest.approx(
            1.0 * comm.bytes_per_element * comm.pair_factor + 1000.0
        )


class TestProfiledChangesTheDecision:
    """Acceptance: a shipped pack flips the chosen partition on Lenet-c."""

    @staticmethod
    def _assignments(cost_model: str) -> list[list[str]]:
        runner = ExperimentRunner(
            PlanConfig(batch_size=64, num_accelerators=4, cost_model=cost_model)
        )
        result = runner.optimized_parallelism(lenet_c())
        return [
            [choice.short for choice in level.assignment] for level in result.levels
        ]

    def test_slow_interconnect_flips_lenet_fc_layers_to_data_parallel(self):
        analytic = self._assignments("analytic")
        profiled = self._assignments("profiled:slow-interconnect")
        # Analytic Table-1/2 puts Lenet-c's fully-connected layers on
        # model parallelism; a 16x slower inter-accelerator fabric makes
        # the dp->mp / mp->mp transitions so expensive that all-dp wins.
        assert analytic == [["dp", "dp", "mp", "mp"], ["dp", "dp", "mp", "mp"]]
        assert profiled == [["dp", "dp", "dp", "dp"], ["dp", "dp", "dp", "dp"]]
        assert analytic != profiled


class TestReplanConfigPayload:
    def test_analytic_payload_keeps_the_historical_shape(self):
        payload = ReplanConfig().to_payload()
        assert "cost_model" not in payload
        assert len(payload) == 7

    def test_profiled_payload_carries_the_spec(self):
        payload = ReplanConfig(cost_model="profiled:slow-interconnect").to_payload()
        assert payload["cost_model"] == "profiled:slow-interconnect"

    def test_bad_spec_is_rejected_at_construction(self):
        with pytest.raises(ValueError, match="cost model"):
            ReplanConfig(cost_model="empirical")
