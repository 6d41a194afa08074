"""Tests for the DNNModel container and shape inference."""

import pytest

from repro.nn.layers import ConvLayer, FCLayer, PoolSpec
from repro.nn.model import build_model
from repro.nn.shapes import FeatureMapShape, ShapeError


def _small_model():
    return build_model(
        "small",
        (28, 28, 1),
        [
            ConvLayer(name="conv1", out_channels=20, kernel_size=5, pool=PoolSpec(2)),
            ConvLayer(name="conv2", out_channels=50, kernel_size=5, pool=PoolSpec(2)),
            FCLayer(name="fc1", out_features=500),
            FCLayer(name="fc2", out_features=10),
        ],
    )


class TestBuildModel:
    def test_number_of_weighted_layers(self):
        assert _small_model().num_weighted_layers == 4

    def test_layer_indices_are_sequential(self):
        model = _small_model()
        assert [layer.index for layer in model] == [0, 1, 2, 3]

    def test_shapes_chain_through_layers(self):
        model = _small_model()
        # conv1: 28x28x1 -> 24x24x20 -> pool -> 12x12x20
        assert model[0].output_shape == FeatureMapShape(24, 24, 20)
        assert model[0].post_pool_shape == FeatureMapShape(12, 12, 20)
        # conv2 consumes conv1's post-pool shape.
        assert model[1].input_shape == FeatureMapShape(12, 12, 20)
        assert model[1].output_shape == FeatureMapShape(8, 8, 50)

    def test_fc_input_is_flattened(self):
        model = _small_model()
        assert model[2].input_shape.is_vector
        assert model[2].input_shape.elements == 4 * 4 * 50

    def test_weight_counts(self):
        model = _small_model()
        assert model[0].weight_count == 5 * 5 * 1 * 20
        assert model[1].weight_count == 5 * 5 * 20 * 50
        assert model[2].weight_count == 4 * 4 * 50 * 500
        assert model[3].weight_count == 500 * 10

    def test_total_weights_is_sum_of_layers(self):
        model = _small_model()
        assert model.total_weights == sum(layer.weight_count for layer in model)

    def test_input_shape_accepts_tuple(self):
        model = build_model("t", (8, 8, 3), [FCLayer(name="fc", out_features=4)])
        assert model.input_shape == FeatureMapShape(8, 8, 3)

    def test_input_shape_accepts_feature_map_shape(self):
        model = build_model(
            "t", FeatureMapShape(8, 8, 3), [FCLayer(name="fc", out_features=4)]
        )
        assert model.input_shape == FeatureMapShape(8, 8, 3)

    def test_duplicate_layer_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate layer name"):
            build_model(
                "dup",
                (8, 8, 3),
                [FCLayer(name="fc", out_features=4), FCLayer(name="fc", out_features=2)],
            )

    def test_empty_model_rejected(self):
        with pytest.raises(ShapeError):
            build_model("empty", (8, 8, 3), [])

    def test_invalid_shape_propagates(self):
        with pytest.raises(ShapeError):
            build_model(
                "bad",
                (4, 4, 3),
                [ConvLayer(name="conv", out_channels=8, kernel_size=7)],
            )


class TestDNNModelAccessors:
    def test_len_and_iteration(self):
        model = _small_model()
        assert len(model) == 4
        assert len(list(model)) == 4

    def test_getitem(self):
        model = _small_model()
        assert model[0].name == "conv1"
        assert model[-1].name == "fc2"

    def test_layer_by_name(self):
        model = _small_model()
        assert model.layer_by_name("conv2").index == 1

    def test_layer_by_name_missing_raises_keyerror(self):
        with pytest.raises(KeyError):
            _small_model().layer_by_name("does-not-exist")

    def test_layer_names(self):
        assert _small_model().layer_names() == ["conv1", "conv2", "fc1", "fc2"]

    def test_conv_and_fc_counts(self):
        model = _small_model()
        assert model.num_conv_layers == 2
        assert model.num_fc_layers == 2

    def test_is_conv_is_fc_flags(self):
        model = _small_model()
        assert model[0].is_conv and not model[0].is_fc
        assert model[3].is_fc and not model[3].is_conv

    def test_total_macs_scales_with_batch(self):
        model = _small_model()
        assert model.total_macs(64) == 2 * model.total_macs(32)

    def test_total_macs_rejects_non_positive_batch(self):
        with pytest.raises(ValueError):
            _small_model().total_macs(0)

    def test_summary_mentions_every_layer(self):
        summary = _small_model().summary()
        for name in ("conv1", "conv2", "fc1", "fc2"):
            assert name in summary


class TestDagModels:
    def _residual_model(self):
        from repro.nn.shapes import MergeOp

        return build_model(
            "residual",
            (8, 8, 4),
            [
                ConvLayer(name="stem", out_channels=4, kernel_size=3, padding=1),
                ConvLayer(name="body", out_channels=4, kernel_size=3, padding=1),
                FCLayer(
                    name="head",
                    out_features=10,
                    inputs=("stem", "body"),
                    merge=MergeOp.ADD,
                ),
            ],
        )

    def test_chain_models_expose_chain_edges(self):
        model = _small_model()
        assert model.is_chain
        assert model.edges == ((0, 1), (1, 2), (2, 3))
        assert model.consumers(0) == (1,)
        assert model.consumers(3) == ()
        assert model[2].inputs == (1,)

    def test_residual_edges_and_consumers(self):
        model = self._residual_model()
        assert not model.is_chain
        assert model.edges == ((0, 1), (0, 2), (1, 2))
        assert model.consumers(0) == (1, 2)
        assert model[2].is_merge

    def test_add_merge_shape_inference(self):
        model = self._residual_model()
        # ADD keeps the branch shape; the fc head flattens it.
        assert model[2].input_shape == FeatureMapShape(1, 1, 8 * 8 * 4)
        assert model[2].weight_count == 8 * 8 * 4 * 10

    def test_concat_merge_shape_inference(self):
        from repro.nn.shapes import MergeOp

        model = build_model(
            "branchy",
            (8, 8, 4),
            [
                ConvLayer(name="stem", out_channels=4, kernel_size=3, padding=1),
                ConvLayer(name="left", out_channels=6, kernel_size=1, inputs=("stem",)),
                ConvLayer(name="right", out_channels=2, kernel_size=1, inputs=("stem",)),
                ConvLayer(
                    name="join",
                    out_channels=3,
                    kernel_size=1,
                    inputs=("left", "right"),
                    merge=MergeOp.CONCAT,
                ),
            ],
        )
        assert model[3].input_shape == FeatureMapShape(8, 8, 8)
        assert model.edges == ((0, 1), (0, 2), (1, 3), (2, 3))

    def test_unknown_input_name_raises(self):
        with pytest.raises(ValueError, match="unknown or later layer"):
            build_model(
                "bad",
                (8, 8, 4),
                [
                    ConvLayer(name="a", out_channels=4, kernel_size=3, padding=1),
                    ConvLayer(
                        name="b",
                        out_channels=4,
                        kernel_size=3,
                        padding=1,
                        inputs=("missing",),
                    ),
                ],
            )

    def test_mismatched_add_merge_raises(self):
        from repro.nn.shapes import MergeOp

        with pytest.raises(ShapeError):
            build_model(
                "bad-add",
                (8, 8, 4),
                [
                    ConvLayer(name="a", out_channels=4, kernel_size=3, padding=1),
                    ConvLayer(name="b", out_channels=8, kernel_size=3, padding=1),
                    ConvLayer(
                        name="c",
                        out_channels=4,
                        kernel_size=1,
                        inputs=("a", "b"),
                        merge=MergeOp.ADD,
                    ),
                ],
            )

    def test_dangling_layer_raises(self):
        with pytest.raises(ShapeError, match="no consumer"):
            build_model(
                "dangling",
                (8, 8, 4),
                [
                    ConvLayer(name="a", out_channels=4, kernel_size=3, padding=1),
                    ConvLayer(name="b", out_channels=4, kernel_size=3, padding=1),
                    ConvLayer(
                        name="c",
                        out_channels=4,
                        kernel_size=3,
                        padding=1,
                        inputs=("a",),
                    ),
                ],
            )

    def test_first_layer_cannot_name_predecessors(self):
        with pytest.raises(ValueError, match="first layer"):
            build_model(
                "bad-first",
                (8, 8, 4),
                [
                    ConvLayer(
                        name="a",
                        out_channels=4,
                        kernel_size=3,
                        padding=1,
                        inputs=("a",),
                    ),
                ],
            )


def _table_cache_counts_in_a_fresh_process(model):
    """Compile ``model``'s table for an equal model built in this process,
    then look ``model`` (unpickled here) up: ``(hits, misses)``."""
    from repro.core.costs import TableCache
    from repro.nn.model_zoo import get_model

    cache = TableCache()
    cache.get_or_compile(get_model(model.name), 64, 2)
    cache.get_or_compile(model, 64, 2)
    return cache.hits, cache.misses


class TestHashOnce:
    """Models and layers hash once; copies and pickles hash afresh."""

    def test_equal_models_hash_equal(self):
        from repro.nn.model_zoo import get_model

        for name in ("Lenet-c", "resnet_s", "gpt_r-4"):
            first, second = get_model(name), get_model(name)
            assert first is not second
            assert first == second
            assert hash(first) == hash(second)
            assert hash(first.layers[-1]) == hash(second.layers[-1])

    def test_a_second_hash_walks_no_field(self):
        model = _small_model()
        layer = model.layers[0]
        model_hash, layer_hash = hash(model), hash(layer)
        # The generated hash of either would now raise: lists are unhashable.
        object.__setattr__(model, "name", ["renamed"])
        object.__setattr__(layer, "spec", ["respecified"])
        assert hash(model) == model_hash
        assert hash(layer) == layer_hash

    def test_pickles_and_copies_leave_the_hash_out(self):
        import copy
        import pickle

        model = _small_model()
        hash(model)
        for clone in (pickle.loads(pickle.dumps(model)), copy.copy(model), copy.deepcopy(model)):
            assert clone == model
            assert "_hash" not in vars(clone)
            assert "_hash" not in vars(clone.layers[0]) or clone.layers[0] is model.layers[0]
            assert hash(clone) == hash(model)

    def test_a_model_copied_into_a_spawn_worker_hits_its_table(self):
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        from repro.nn.model_zoo import get_model

        model = get_model("gpt_s-4")
        hash(model)  # memoized here, under this process's string hashes
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            hits, misses = pool.submit(_table_cache_counts_in_a_fresh_process, model).result(
                timeout=120
            )
        assert (hits, misses) == (1, 1)
