"""Tests for parallelism types, strategy spaces and assignments."""

import pytest

from repro.core.parallelism import (
    DATA,
    DEFAULT_SPACE,
    FULL_SPACE,
    MODEL,
    PIPELINE,
    HierarchicalAssignment,
    LayerAssignment,
    Parallelism,
    StrategySpace,
)


class TestParallelism:
    def test_three_members(self):
        assert set(Parallelism) == {
            Parallelism.DATA,
            Parallelism.MODEL,
            Parallelism.PIPELINE,
        }

    def test_short_names(self):
        assert Parallelism.DATA.short == "dp"
        assert Parallelism.MODEL.short == "mp"
        assert Parallelism.PIPELINE.short == "pp"

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("dp", DATA),
            ("DP", DATA),
            ("data", DATA),
            ("mp", MODEL),
            ("model", MODEL),
            (" Model_Parallelism ".strip(), MODEL),
            ("0", DATA),
            ("1", MODEL),
            ("pp", PIPELINE),
            ("pipeline", PIPELINE),
            ("2", PIPELINE),
        ],
    )
    def test_parse(self, text, expected):
        assert Parallelism.parse(text) is expected

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            Parallelism.parse("tensor-slicing")

    def test_module_level_aliases(self):
        assert DATA is Parallelism.DATA
        assert MODEL is Parallelism.MODEL
        assert PIPELINE is Parallelism.PIPELINE


class TestStrategySpace:
    def test_default_space_is_binary_dp_mp(self):
        assert DEFAULT_SPACE.members == (DATA, MODEL)
        assert DEFAULT_SPACE.size == 2

    def test_full_space_contains_pipeline(self):
        assert FULL_SPACE.members == (DATA, MODEL, PIPELINE)

    def test_parse_from_string(self):
        space = StrategySpace.parse("dp,mp,pp")
        assert space.members == (DATA, MODEL, PIPELINE)

    def test_parse_none_yields_default(self):
        assert StrategySpace.parse(None) == DEFAULT_SPACE

    def test_parse_is_idempotent(self):
        assert StrategySpace.parse(DEFAULT_SPACE) is DEFAULT_SPACE

    def test_code_roundtrip(self):
        space = StrategySpace.parse("dp,mp,pp")
        for code, member in enumerate(space):
            assert space.code_of(member) == code
            assert space.member(code) is member

    def test_code_of_rejects_non_members(self):
        with pytest.raises(ValueError):
            DEFAULT_SPACE.code_of(PIPELINE)

    def test_member_range_check(self):
        with pytest.raises(ValueError):
            DEFAULT_SPACE.member(2)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            StrategySpace.parse("dp,dp")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            StrategySpace(())

    def test_num_assignments(self):
        assert DEFAULT_SPACE.num_assignments(4) == 16
        assert StrategySpace.parse("dp,mp,pp").num_assignments(3) == 27

    def test_describe(self):
        assert StrategySpace.parse("dp,mp,pp").describe() == "dp,mp,pp"


class TestLayerAssignment:
    def test_of_accepts_mixed_inputs(self):
        assignment = LayerAssignment.of([DATA, "mp", 0, 1])
        assert assignment.choices == (DATA, MODEL, DATA, MODEL)

    def test_of_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            LayerAssignment.of([2.5])

    def test_uniform(self):
        assignment = LayerAssignment.uniform(DATA, 5)
        assert assignment.is_uniform(DATA)
        assert not assignment.is_uniform(MODEL)
        assert len(assignment) == 5

    def test_uniform_rejects_non_positive_length(self):
        with pytest.raises(ValueError):
            LayerAssignment.uniform(DATA, 0)

    def test_empty_assignment_rejected(self):
        with pytest.raises(ValueError):
            LayerAssignment(())

    def test_binary_codes_keep_the_figure_9_10_bit_layout(self):
        """dp/mp codes are the exploration figures' bits: LSB = layer 0, 1 = mp."""
        assignment = LayerAssignment.from_codes(0b0011, 4, DEFAULT_SPACE)
        assert assignment.choices == (MODEL, MODEL, DATA, DATA)
        assert assignment.to_codes(DEFAULT_SPACE) == 0b0011

    def test_codes_roundtrip_base_three(self):
        space = StrategySpace.parse("dp,mp,pp")
        for codes in range(3 ** 3):
            assignment = LayerAssignment.from_codes(codes, 3, space)
            assert assignment.to_codes(space) == codes

    def test_from_codes_layout_is_least_significant_digit_first(self):
        space = StrategySpace.parse("dp,mp,pp")
        # 5 = 2 + 1*3: layer 0 -> code 2 (pp), layer 1 -> code 1 (mp).
        assignment = LayerAssignment.from_codes(5, 3, space)
        assert assignment.choices == (PIPELINE, MODEL, DATA)

    def test_from_codes_range_check(self):
        with pytest.raises(ValueError):
            LayerAssignment.from_codes(27, 3, StrategySpace.parse("dp,mp,pp"))

    def test_count(self):
        assignment = LayerAssignment.of(["dp", "mp", "dp"])
        assert assignment.count(DATA) == 2
        assert assignment.count(MODEL) == 1

    def test_indexing_and_iteration(self):
        assignment = LayerAssignment.of(["dp", "mp"])
        assert assignment[0] is DATA
        assert list(assignment) == [DATA, MODEL]

    def test_as_strings_and_str(self):
        assignment = LayerAssignment.of(["dp", "mp"])
        assert assignment.as_strings() == ["dp", "mp"]
        assert str(assignment) == "dp-mp"


class TestHierarchicalAssignment:
    def _make(self):
        return HierarchicalAssignment.of([["dp", "dp", "mp"], ["dp", "mp", "mp"]])

    def test_shape_properties(self):
        assignment = self._make()
        assert assignment.num_levels == 2
        assert assignment.num_layers == 3
        assert assignment.num_accelerators == 4

    def test_choice_lookup(self):
        assignment = self._make()
        assert assignment.choice(0, 2) is MODEL
        assert assignment.choice(1, 0) is DATA

    def test_layer_choices(self):
        assignment = self._make()
        assert assignment.layer_choices(1) == (DATA, MODEL)

    def test_uniform_factory(self):
        assignment = HierarchicalAssignment.uniform(MODEL, 4, 5)
        assert assignment.is_uniform(MODEL)
        assert assignment.num_accelerators == 16

    def test_mismatched_level_sizes_rejected(self):
        with pytest.raises(ValueError):
            HierarchicalAssignment.of([["dp", "dp"], ["dp"]])

    def test_empty_levels_rejected(self):
        with pytest.raises(ValueError):
            HierarchicalAssignment(())

    def test_replace_level(self):
        assignment = self._make()
        replaced = assignment.replace_level(1, LayerAssignment.uniform(DATA, 3))
        assert replaced[1].is_uniform(DATA)
        # The original is unchanged (immutability).
        assert assignment.choice(1, 2) is MODEL

    def test_replace_level_validates_layer_count(self):
        with pytest.raises(ValueError):
            self._make().replace_level(0, LayerAssignment.uniform(DATA, 2))

    def test_replace_layer(self):
        assignment = self._make()
        replaced = assignment.replace_layer(0, (MODEL, MODEL))
        assert replaced.layer_choices(0) == (MODEL, MODEL)
        assert assignment.layer_choices(0) == (DATA, DATA)

    def test_replace_layer_validates_level_count(self):
        with pytest.raises(ValueError):
            self._make().replace_layer(0, (MODEL,))

    def test_str_mentions_every_level(self):
        text = str(self._make())
        assert "H1" in text and "H2" in text
