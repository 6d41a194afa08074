"""Tests for the ten evaluation networks (Table 3 and Section 6.1)."""

import pytest

from repro.nn.layers import LayerType
from repro.nn.model_zoo import (
    MODEL_BUILDERS,
    alexnet,
    all_models,
    cifar_c,
    get_model,
    lenet_c,
    sconv,
    sfc,
    vgg_a,
    vgg_b,
    vgg_c,
    vgg_d,
    vgg_e,
)

#: Weighted-layer counts stated by (or implied by) the paper: "the number of
#: weighted layers of these models range from four to nineteen".
EXPECTED_LAYER_COUNTS = {
    "SFC": 4,
    "SCONV": 4,
    "Lenet-c": 4,
    "Cifar-c": 5,
    "AlexNet": 8,
    "VGG-A": 11,
    "VGG-B": 13,
    "VGG-C": 16,
    "VGG-D": 16,
    "VGG-E": 19,
}


class TestModelZooContents:
    def test_ten_models_available(self):
        assert len(MODEL_BUILDERS) == 10

    def test_all_models_builds_ten(self):
        assert len(all_models()) == 10

    @pytest.mark.parametrize("name,expected", sorted(EXPECTED_LAYER_COUNTS.items()))
    def test_weighted_layer_counts(self, name, expected):
        assert get_model(name).num_weighted_layers == expected

    def test_layer_count_range_matches_paper(self):
        counts = [model.num_weighted_layers for model in all_models()]
        assert min(counts) == 4
        assert max(counts) == 19

    def test_model_names_match_builders(self):
        for name, builder in MODEL_BUILDERS.items():
            assert builder().name == name


class TestSFC:
    def test_is_all_fully_connected(self):
        model = sfc()
        assert model.num_conv_layers == 0
        assert model.num_fc_layers == 4

    def test_table3_dimensions(self):
        """Table 3: 784-8192-8192-8192-10."""
        model = sfc()
        assert model.input_shape.elements == 784
        assert [layer.output_shape.elements for layer in model] == [8192, 8192, 8192, 10]

    def test_weight_counts(self):
        model = sfc()
        assert model[0].weight_count == 784 * 8192
        assert model[1].weight_count == 8192 * 8192
        assert model[3].weight_count == 8192 * 10


class TestSCONV:
    def test_is_all_convolutional(self):
        model = sconv()
        assert model.num_fc_layers == 0
        assert model.num_conv_layers == 4

    def test_table3_channel_progression(self):
        """Table 3: 20@5x5, 50@5x5 (pool), 50@5x5, 10@5x5 (pool)."""
        model = sconv()
        assert [layer.output_shape.channels for layer in model] == [20, 50, 50, 10]

    def test_final_output_is_ten_classes(self):
        model = sconv()
        assert model[-1].post_pool_shape.elements == 10


class TestLenetAndCifar:
    def test_lenet_layer_types(self):
        model = lenet_c()
        assert [layer.layer_type for layer in model] == [
            LayerType.CONV,
            LayerType.CONV,
            LayerType.FC,
            LayerType.FC,
        ]

    def test_lenet_output_classes(self):
        assert lenet_c()[-1].output_shape.elements == 10

    def test_cifar_layer_types(self):
        model = cifar_c()
        assert model.num_conv_layers == 3
        assert model.num_fc_layers == 2

    def test_cifar_input_is_cifar10(self):
        model = cifar_c()
        assert (model.input_shape.height, model.input_shape.width) == (32, 32)
        assert model.input_shape.channels == 3


class TestAlexNet:
    def test_layer_structure(self):
        model = alexnet()
        assert model.num_conv_layers == 5
        assert model.num_fc_layers == 3

    def test_known_shapes(self):
        model = alexnet()
        assert model[0].output_shape.height == 55  # conv1: 227 -> 55 at stride 4
        assert model[4].output_shape.channels == 256  # conv5
        assert model[-1].output_shape.elements == 1000

    def test_total_weights_in_expected_range(self):
        """AlexNet has roughly 60M parameters (we ignore biases)."""
        weights = alexnet().total_weights
        assert 5.0e7 < weights < 7.0e7


class TestVGGFamily:
    @pytest.mark.parametrize(
        "builder,expected_convs",
        [(vgg_a, 8), (vgg_b, 10), (vgg_c, 13), (vgg_d, 13), (vgg_e, 16)],
    )
    def test_conv_counts(self, builder, expected_convs):
        model = builder()
        assert model.num_conv_layers == expected_convs
        assert model.num_fc_layers == 3

    @pytest.mark.parametrize("builder", [vgg_a, vgg_b, vgg_c, vgg_d, vgg_e])
    def test_classifier_dimensions(self, builder):
        model = builder()
        fc_layers = [layer for layer in model if layer.is_fc]
        assert [layer.output_shape.elements for layer in fc_layers] == [4096, 4096, 1000]

    @pytest.mark.parametrize("builder", [vgg_a, vgg_b, vgg_c, vgg_d, vgg_e])
    def test_last_conv_feeds_7x7x512(self, builder):
        model = builder()
        last_conv = [layer for layer in model if layer.is_conv][-1]
        assert last_conv.post_pool_shape.elements == 7 * 7 * 512

    def test_vgg_d_parameter_count(self):
        """VGG-16 has ~138M parameters."""
        weights = vgg_d().total_weights
        assert 1.30e8 < weights < 1.45e8

    def test_vgg_e_is_deepest(self):
        counts = [builder().num_weighted_layers for builder in (vgg_a, vgg_b, vgg_c, vgg_d, vgg_e)]
        assert counts == sorted(counts)
        assert counts[-1] == 19

    def test_vgg_e_conv5_4_shape_matches_trick_analysis(self):
        """Section 6.5.2: conv5 of VGG-E has a 14x14x512 output and 512->512 3x3 kernels."""
        model = vgg_e()
        conv5_4 = model.layer_by_name("conv5_4")
        assert conv5_4.output_shape == type(conv5_4.output_shape)(14, 14, 512)
        assert conv5_4.weight_count == 512 * 512 * 9

    def test_vgg_e_fc3_shape_matches_trick_analysis(self):
        """Section 6.5.2: fc3 is 4096 -> 1000."""
        fc3 = vgg_e().layer_by_name("fc3")
        assert fc3.input_shape.elements == 4096
        assert fc3.output_shape.elements == 1000


class TestGetModel:
    def test_canonical_names(self):
        for name in MODEL_BUILDERS:
            assert get_model(name).name == name

    @pytest.mark.parametrize(
        "alias,expected",
        [
            ("alexnet", "AlexNet"),
            ("vgg16", "VGG-D"),
            ("vgg19", "VGG-E"),
            ("lenet", "Lenet-c"),
            ("VGG_A", "VGG-A"),
            ("sfc", "SFC"),
        ],
    )
    def test_aliases(self, alias, expected):
        assert get_model(alias).name == expected

    def test_unknown_name_raises_keyerror(self):
        with pytest.raises(KeyError, match="unknown model"):
            get_model("resnet-50")


class TestGraphModelZoo:
    def test_graph_builders_are_separate_from_the_paper_ten(self):
        from repro.nn.model_zoo import GRAPH_MODEL_BUILDERS, all_model_builders

        assert len(MODEL_BUILDERS) == 10
        assert set(GRAPH_MODEL_BUILDERS) == {"ResNet-S", "Inception-S"}
        assert len(all_model_builders()) == 15

    def test_resnet_s_structure(self):
        from repro.nn.model_zoo import resnet_s
        from repro.nn.shapes import MergeOp

        model = resnet_s()
        assert not model.is_chain
        assert model.num_weighted_layers == 10
        merges = [layer for layer in model if layer.is_merge]
        assert len(merges) == 3
        assert all(layer.merge is MergeOp.ADD for layer in merges)
        # Residual branches join tensors of identical shape.
        for layer in merges:
            shapes = {model[source].post_pool_shape for source in layer.inputs}
            assert len(shapes) == 1

    def test_inception_s_structure(self):
        from repro.nn.model_zoo import inception_s
        from repro.nn.shapes import MergeOp

        model = inception_s()
        assert not model.is_chain
        assert model.num_weighted_layers == 11
        merges = [layer for layer in model if layer.is_merge]
        assert len(merges) == 2
        assert all(layer.merge is MergeOp.CONCAT for layer in merges)
        # Each merge concatenates three branches channel-wise.
        assert all(len(layer.inputs) == 3 for layer in merges)

    def test_graph_models_execute_in_reference_network(self):
        """Pooling-free and NONE-classifier by design, so execution works."""
        from repro.nn.model_zoo import all_graph_models
        from repro.nn.reference import ReferenceNetwork

        for model in all_graph_models():
            network = ReferenceNetwork(model, seed=0)
            states = network.training_step(
                network.random_batch(2),
                network.random_batch(2, seed=9).reshape(2, -1)[:, :10] * 0 + 1.0,
            )
            assert states[-1].output.shape == (2, 10)
            assert all(state.grad_weight is not None for state in states)


class TestAliasNormalization:
    @pytest.mark.parametrize(
        "alias,expected",
        [
            ("vgg-a", "VGG-A"),
            ("vgg_a", "VGG-A"),
            ("VGG_A", "VGG-A"),
            ("vgga", "VGG-A"),
            ("lenet-c", "Lenet-c"),
            ("lenet_c", "Lenet-c"),
            ("LENETC", "Lenet-c"),
            ("resnet_s", "ResNet-S"),
            ("resnet-s", "ResNet-S"),
            ("ResNetS", "ResNet-S"),
            ("resnet", "ResNet-S"),
            ("inception_s", "Inception-S"),
            ("inception", "Inception-S"),
        ],
    )
    def test_separator_variants_resolve(self, alias, expected):
        assert get_model(alias).name == expected

    def test_error_message_lists_models_and_aliases(self):
        with pytest.raises(KeyError) as excinfo:
            get_model("resnet-50")
        message = str(excinfo.value)
        assert "known models" in message
        assert "VGG-E" in message and "ResNet-S" in message
        assert "aliases" in message
        assert "vgg16" in message and "lenet" in message


class TestLiveModelRegistration:
    def test_registered_builders_resolve_immediately(self):
        from repro.nn.model_zoo import MODEL_BUILDERS, lenet_c

        MODEL_BUILDERS["TestNet-X"] = lenet_c
        try:
            assert get_model("TestNet-X").name == "Lenet-c"
            assert get_model("testnet_x").name == "Lenet-c"
        finally:
            del MODEL_BUILDERS["TestNet-X"]
        with pytest.raises(KeyError):
            get_model("TestNet-X")


class TestParameterizedTransformers:
    def test_families_registered(self):
        from repro.nn.model_zoo import (
            PARAMETERIZED_MODEL_BUILDERS,
            all_model_builders,
        )

        assert set(PARAMETERIZED_MODEL_BUILDERS) == {"gpt_s", "bert_s", "gpt_r"}
        builders = all_model_builders()
        assert "gpt_s" in builders and "bert_s" in builders
        assert "gpt_r" in builders

    def test_default_depth(self):
        from repro.nn.model_zoo import DEFAULT_TRANSFORMER_LAYERS, bert_s, gpt_s

        model = gpt_s()
        assert model.name == f"gpt_s-{DEFAULT_TRANSFORMER_LAYERS}"
        assert len(model) == 4 * DEFAULT_TRANSFORMER_LAYERS + 2
        assert bert_s().name == f"bert_s-{DEFAULT_TRANSFORMER_LAYERS}"

    @pytest.mark.parametrize("blocks", [1, 2, 7, 96])
    def test_depth_controls_layer_count(self, blocks):
        from repro.nn.model_zoo import gpt_s

        model = gpt_s(blocks)
        assert model.is_chain
        assert len(model) == 4 * blocks + 2
        assert model[0].name == "embed"
        assert model[-1].name == "head"

    def test_blocks_are_identical_in_shape(self):
        from repro.nn.model_zoo import gpt_s

        model = gpt_s(5)
        # Per-block layer quads repeat exactly: same weight counts, same
        # output shapes block to block (the repetition the DP memoizes).
        blocks = [model.layers[1 + 4 * i : 1 + 4 * (i + 1)] for i in range(5)]
        signature = [(layer.weight_count, str(layer.output_shape)) for layer in blocks[0]]
        for block in blocks[1:]:
            assert [
                (layer.weight_count, str(layer.output_shape)) for layer in block
            ] == signature

    def test_invalid_depth_raises(self):
        from repro.nn.model_zoo import bert_s, gpt_s

        with pytest.raises(ValueError, match="positive block count"):
            gpt_s(0)
        with pytest.raises(ValueError, match="positive block count"):
            bert_s(-3)

    @pytest.mark.parametrize(
        "spelling,expected",
        [
            ("gpt_s", "gpt_s"),
            ("GPT-S", "gpt_s"),
            ("gpt_s-96", "gpt_s-96"),
            ("GPT_S_96", "gpt_s-96"),
            ("gpts96", "gpt_s-96"),
            ("bert-s-24", "bert_s-24"),
            ("BERTS8", "bert_s-8"),
        ],
    )
    def test_canonical_spellings(self, spelling, expected):
        from repro.nn.model_zoo import canonical_model_name

        assert canonical_model_name(spelling) == expected

    @pytest.mark.parametrize("spelling", ["gpt_s-0", "gpt_s-00", "gpt_r-0", "bert_s-0", "GPTS0"])
    def test_depth_zero_is_an_unknown_model(self, spelling):
        from repro.nn.model_zoo import canonical_model_name

        with pytest.raises(KeyError, match="has no blocks"):
            canonical_model_name(spelling)
        with pytest.raises(KeyError, match="has no blocks"):
            get_model(spelling)

    def test_get_model_depth_forms_agree(self):
        from repro.nn.model_zoo import get_model

        by_suffix = get_model("gpt_s-6")
        by_kwarg = get_model("gpt_s", layers=6)
        assert by_suffix.name == by_kwarg.name == "gpt_s-6"
        assert len(by_suffix) == len(by_kwarg)

    def test_get_model_conflicting_depths_raise(self):
        with pytest.raises(ValueError, match="conflicting depths"):
            get_model("gpt_s-96", layers=12)

    def test_get_model_layers_on_fixed_model_raises(self):
        with pytest.raises(ValueError, match="fixed depth"):
            get_model("AlexNet", layers=4)

    def test_digit_bearing_aliases_still_win(self):
        # "vgg16" must keep resolving through the alias table, not the
        # depth-suffix parser.
        assert get_model("vgg16").name == "VGG-D"

    def test_keyerror_lists_parameterized_families(self):
        with pytest.raises(KeyError) as excinfo:
            get_model("transformer-xl")
        message = str(excinfo.value)
        assert "gpt_s-<N>" in message and "bert_s-<N>" in message

    def test_families_differ_in_width(self):
        from repro.nn.model_zoo import bert_s, gpt_s

        assert bert_s(2).total_weights > gpt_s(2).total_weights


class TestResidualTransformer:
    """``gpt_r``: the DAG-shaped transformer with residual ADD skips."""

    def test_structure(self):
        from repro.nn.model_zoo import gpt_r
        from repro.nn.shapes import MergeOp

        model = gpt_r(4)
        assert model.name == "gpt_r-4"
        assert not model.is_chain
        assert len(model) == 4 * 4 + 2
        assert model[0].name == "embed"
        assert model[-1].name == "head"
        merges = [layer for layer in model if layer.is_merge]
        # Every block after the first starts with a residual join.
        assert len(merges) == 3
        assert all(layer.merge is MergeOp.ADD for layer in merges)
        for layer in merges:
            shapes = {model[source].output_shape for source in layer.inputs}
            assert len(shapes) == 1

    def test_skip_edges_span_two_layers(self):
        from repro.nn.model_zoo import gpt_r

        model = gpt_r(6)
        chain = {(index, index + 1) for index in range(len(model) - 1)}
        skips = sorted(set(model.edges) - chain)
        # proj of block i-1 feeds qkv of block i, skipping up/down.
        assert skips == [(4 * i + 2, 4 * i + 5) for i in range(5)]

    def test_blocks_repeat_identically(self):
        from repro.nn.model_zoo import gpt_r

        model = gpt_r(5)
        blocks = [model.layers[1 + 4 * i : 1 + 4 * (i + 1)] for i in range(5)]
        signature = [
            (layer.weight_count, str(layer.output_shape)) for layer in blocks[0]
        ]
        for block in blocks[1:]:
            assert [
                (layer.weight_count, str(layer.output_shape)) for layer in block
            ] == signature

    def test_name_resolution_and_depth_forms(self):
        from repro.nn.model_zoo import canonical_model_name, get_model

        assert canonical_model_name("GPT-R-48") == "gpt_r-48"
        assert canonical_model_name("gptr12") == "gpt_r-12"
        by_suffix = get_model("gpt_r-3")
        by_kwarg = get_model("gpt_r", layers=3)
        assert by_suffix.name == by_kwarg.name == "gpt_r-3"

    def test_invalid_depth_raises(self):
        from repro.nn.model_zoo import gpt_r

        with pytest.raises(ValueError, match="positive block count"):
            gpt_r(0)
