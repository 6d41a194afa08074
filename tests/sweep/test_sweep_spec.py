"""Tests for the declarative sweep grid description."""

import json

import pytest

from repro.sweep.spec import PAPER_MODELS, PRESETS, SweepSpec, load_spec


class TestSweepSpec:
    def test_points_expand_the_full_product_deterministically(self):
        spec = SweepSpec(
            name="grid",
            models=("Lenet-c", "AlexNet"),
            batch_sizes=(64, 256),
            topologies=("htree", "torus"),
        )
        points = spec.points()
        assert len(points) == spec.num_points == 8
        assert [point.index for point in points] == list(range(8))
        # Models vary outermost, the later axes innermost.
        assert [point.model for point in points[:4]] == ["Lenet-c"] * 4
        assert [point.topology for point in points[:2]] == ["htree", "torus"]
        assert points == spec.points()

    def test_point_labels_are_unique(self):
        spec = PRESETS["fig12"]
        labels = [point.label() for point in spec.points()]
        assert len(set(labels)) == len(labels)

    def test_rejects_empty_axes(self):
        with pytest.raises(ValueError):
            SweepSpec(name="empty", models=())

    def test_rejects_non_power_of_two_array_sizes(self):
        with pytest.raises(ValueError):
            SweepSpec(name="bad", models=("Lenet-c",), array_sizes=(12,))

    def test_rejects_unknown_topology(self):
        with pytest.raises(ValueError):
            SweepSpec(name="bad", models=("Lenet-c",), topologies=("ring",))

    def test_rejects_unknown_scaling_mode(self):
        with pytest.raises(ValueError):
            SweepSpec(name="bad", models=("Lenet-c",), scaling_modes=("magic",))

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            SweepSpec(name="bad", models=("Lenet-c",), strategy_spaces=("dp,zz",))

    @pytest.mark.parametrize(
        "model, message", [("gpt_s-0", "has no blocks"), ("nope", "unknown model 'nope'")]
    )
    def test_rejects_a_model_the_zoo_cannot_build(self, model, message):
        with pytest.raises(ValueError, match=f"sweep axis 'models': .*{message}"):
            SweepSpec(name="bad", models=("Lenet-c", model))


class TestJsonRoundTrip:
    def test_round_trip(self):
        spec = PRESETS["smoke"]
        assert SweepSpec.from_json(spec.to_json()) == spec

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep spec keys"):
            SweepSpec.from_json({"name": "x", "models": ["Lenet-c"], "surprise": 1})

    def test_bare_string_axis_rejected(self):
        # tuple("VGG-A") would silently explode into single letters.
        with pytest.raises(ValueError, match="must be a list"):
            SweepSpec.from_json({"name": "x", "models": "VGG-A"})
        with pytest.raises(ValueError, match="must be a list"):
            SweepSpec.from_json(
                {"name": "x", "models": ["Lenet-c"], "topologies": "htree"}
            )

    @pytest.mark.parametrize(
        "axes, message",
        [
            ({"models": [5]}, "axis 'models' must hold str values, got 5"),
            ({"models": [None]}, "axis 'models' must hold str values, got None"),
            ({"scaling_modes": [5]}, "axis 'scaling_modes' must hold str values"),
            ({"batch_sizes": [1.5]}, "axis 'batch_sizes' must hold int values, got 1.5"),
            ({"batch_sizes": [True]}, "axis 'batch_sizes' must hold int values, got True"),
            ({"array_sizes": [True]}, "axis 'array_sizes' must hold int values"),
            ({"batch_sizes": (64,)}, "axis 'batch_sizes' must be a list"),
            ({"name": 5}, "'name' must be a string, got 5"),
        ],
    )
    def test_mistyped_axis_values_rejected(self, axes, message):
        with pytest.raises(ValueError, match=message):
            SweepSpec.from_json({"name": "x", "models": ["SFC"], **axes})

    def test_missing_required_keys_rejected(self):
        with pytest.raises(ValueError, match="requires at least"):
            SweepSpec.from_json({"name": "x"})

    def test_from_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(PRESETS["smoke"].to_json()))
        assert SweepSpec.from_file(str(path)) == PRESETS["smoke"]


class TestPresets:
    def test_fig6_is_the_paper_grid(self):
        spec = PRESETS["fig6"]
        assert spec.models == PAPER_MODELS
        assert spec.batch_sizes == (256,)
        assert spec.array_sizes == (16,)
        assert spec.topologies == ("htree",)

    def test_every_preset_expands(self):
        for name, spec in PRESETS.items():
            assert spec.num_points >= 1, name
            assert spec.points()

    def test_load_spec_resolves_presets_and_files(self, tmp_path):
        assert load_spec("smoke") == PRESETS["smoke"]
        path = tmp_path / "mine.json"
        path.write_text(json.dumps({"name": "mine", "models": ["Lenet-c"]}))
        assert load_spec(str(path)).name == "mine"
        with pytest.raises(ValueError, match="unknown sweep preset"):
            load_spec("not-a-preset")


class TestSinglePoint:
    def test_single_builds_a_canonical_validated_point(self):
        from repro.sweep.spec import SweepPoint

        point = SweepPoint.single(
            "Lenet-c",
            batch_size=64,
            num_accelerators=4,
            scaling_mode="UNIFORM",
            strategies="dp,mp,pp",
        )
        assert point.index == 0
        assert point.scaling_mode == "uniform"
        assert point.strategies == "dp,mp,pp"
        assert point.label() == "Lenet-c/b64/n4/htree/uniform/dp,mp,pp"

    def test_single_rejects_bad_axes_like_a_spec(self):
        from repro.sweep.spec import SweepPoint

        with pytest.raises(ValueError, match="num_accelerators must be a power of two"):
            SweepPoint.single("Lenet-c", num_accelerators=12)
        with pytest.raises(ValueError, match="unknown topology"):
            SweepPoint.single("Lenet-c", topology="mesh")

    def test_single_point_evaluates_like_the_grid(self):
        from repro.sweep.runner import evaluate_point, run_sweep
        from repro.sweep.spec import SweepPoint

        spec = SweepSpec(
            name="one",
            models=("SFC",),
            batch_sizes=(64,),
            array_sizes=(4,),
        )
        via_grid = run_sweep(spec).records[0]
        via_single = evaluate_point(
            SweepPoint.single("SFC", batch_size=64, num_accelerators=4)
        )
        assert via_single == via_grid


class TestSimEngineAxis:
    def test_default_grid_is_unchanged_by_the_new_axis(self):
        """One implicit "analytic" engine: same point count, same labels,
        same order as before the axis existed."""
        spec = PRESETS["smoke"]
        assert spec.sim_engines == ("analytic",)
        points = spec.points()
        assert all(point.sim_engine == "analytic" for point in points)
        assert all("/analytic" not in point.label() for point in points)
        assert "sim_engines" in spec.to_json()

    def test_engine_axis_expands_innermost(self):
        spec = SweepSpec(
            name="engines",
            models=("Lenet-c",),
            batch_sizes=(64,),
            array_sizes=(4,),
            sim_engines=("analytic", "network"),
        )
        points = spec.points()
        assert spec.num_points == len(points) == 2
        # The engine is the innermost axis: adjacent points differ only
        # in the engine, so warm cost tables are reused back to back.
        assert [point.sim_engine for point in points] == ["analytic", "network"]
        assert points[1].label() == points[0].label() + "/network"

    def test_json_round_trip_carries_the_axis(self):
        spec = SweepSpec(
            name="engines",
            models=("Lenet-c",),
            sim_engines=("network",),
        )
        payload = spec.to_json()
        assert payload["sim_engines"] == ["network"]
        assert SweepSpec.from_json(payload) == spec

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown sim engine"):
            SweepSpec(name="bad", models=("Lenet-c",), sim_engines=("psychic",))

    def test_single_point_validates_and_labels_the_engine(self):
        from repro.sweep.spec import SweepPoint

        point = SweepPoint.single(
            "Lenet-c", batch_size=64, num_accelerators=4, sim_engine="network"
        )
        assert point.sim_engine == "network"
        assert point.label() == "Lenet-c/b64/n4/htree/parallelism-aware/dp,mp/network"
        with pytest.raises(ValueError, match="unknown sim engine"):
            SweepPoint.single("Lenet-c", sim_engine="psychic")

    def test_rows_carry_the_engine_only_when_it_is_not_the_default(self):
        from repro.sweep.runner import evaluate_point
        from repro.sweep.spec import SweepPoint

        base = dict(batch_size=64, num_accelerators=4)
        analytic = evaluate_point(SweepPoint.single("SFC", **base))
        network = evaluate_point(
            SweepPoint.single("SFC", sim_engine="network", **base)
        )
        assert "sim_engine" not in analytic.to_row()
        assert network.to_row()["sim_engine"] == "network"

    def test_describe_counts_the_engines(self):
        spec = SweepSpec(
            name="engines",
            models=("Lenet-c",),
            sim_engines=("analytic", "network"),
        )
        assert "2 sim engines" in spec.describe()
