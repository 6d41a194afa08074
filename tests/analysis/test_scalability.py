"""Tests for the scalability study (Figure 11)."""

import pytest

from repro.analysis.scalability import DEFAULT_ARRAY_SIZES, run_scalability_study
from repro.nn.model_zoo import get_model


@pytest.fixture(scope="module")
def study():
    """A reduced sweep (1-16 accelerators) on AlexNet keeps the test fast."""
    return run_scalability_study(
        model=get_model("AlexNet"), array_sizes=(1, 2, 4, 8, 16)
    )


class TestStructure:
    def test_default_sweep_covers_1_to_64(self):
        assert DEFAULT_ARRAY_SIZES == (1, 2, 4, 8, 16, 32, 64)

    def test_points_cover_every_size(self, study):
        assert study.array_sizes == (1, 2, 4, 8, 16)
        assert [p.num_accelerators for p in study.hypar.points] == [1, 2, 4, 8, 16]
        assert [p.num_accelerators for p in study.data_parallelism.points] == [1, 2, 4, 8, 16]

    def test_rows_are_flat_and_complete(self, study):
        rows = study.as_rows()
        assert len(rows) == 5
        for row in rows:
            assert set(row) == {
                "num_accelerators",
                "hypar_gain",
                "dp_gain",
                "hypar_comm_gb",
                "dp_comm_gb",
            }

    def test_sizes_are_deduplicated_and_sorted(self):
        study = run_scalability_study(
            model=get_model("Lenet-c"), array_sizes=(4, 1, 4, 2)
        )
        assert study.array_sizes == (1, 2, 4)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            run_scalability_study(model=get_model("Lenet-c"), array_sizes=(0, 2))

    def test_no_sizes_rejected(self):
        with pytest.raises(ValueError, match="array sizes must be at least 1"):
            run_scalability_study(model=get_model("Lenet-c"), array_sizes=())


class TestScalingBehaviour:
    def test_single_accelerator_gain_is_one(self, study):
        rows = study.as_rows()
        assert rows[0]["hypar_gain"] == pytest.approx(1.0)
        assert rows[0]["dp_gain"] == pytest.approx(1.0)

    def test_single_accelerator_has_no_communication(self, study):
        rows = study.as_rows()
        assert rows[0]["hypar_comm_gb"] == 0.0
        assert rows[0]["dp_comm_gb"] == 0.0

    def test_hypar_gain_never_below_dp_gain(self, study):
        for row in study.as_rows():
            assert row["hypar_gain"] >= row["dp_gain"] - 1e-9

    def test_hypar_communication_always_at_most_dp(self, study):
        for row in study.as_rows():
            assert row["hypar_comm_gb"] <= row["dp_comm_gb"] + 1e-12

    def test_communication_grows_with_array_size(self, study):
        dp_comm = [row["dp_comm_gb"] for row in study.as_rows()]
        assert dp_comm == sorted(dp_comm)

    def test_hypar_scales_better_than_dp_at_sixteen(self, study):
        last = study.as_rows()[-1]
        assert last["hypar_gain"] > last["dp_gain"] * 1.5

    def test_hypar_keeps_scaling_where_dp_saturates(self):
        """Figure 11: DP's gain flattens well before HyPar's does."""
        study = run_scalability_study(
            model=get_model("VGG-A"), array_sizes=(1, 8, 16, 32)
        )
        rows = {row["num_accelerators"]: row for row in study.as_rows()}
        dp_growth = rows[32]["dp_gain"] / rows[8]["dp_gain"]
        hypar_growth = rows[32]["hypar_gain"] / rows[8]["hypar_gain"]
        assert hypar_growth > dp_growth
        assert dp_growth < 2.0  # DP is far from the ideal 4x over this range.

    def test_saturation_size_reporting(self, study):
        hypar_saturation = study.hypar.saturation_size(study.single_accelerator_seconds)
        dp_saturation = study.data_parallelism.saturation_size(
            study.single_accelerator_seconds
        )
        assert hypar_saturation >= dp_saturation
        assert hypar_saturation == 16
