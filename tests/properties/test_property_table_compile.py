"""The columnar cost-table compile against the per-entry compile it replaced.

:class:`~repro.core.costs.HierarchicalCostTable` fills every level's
``intra (L, S, K)`` and ``inter (E, S, K, K)`` arrays by calling the
strategy-registry callables on whole ``(L, S)`` tensor-amount columns.
The compile it replaced built one :class:`~repro.core.tensors.LayerTensors`
record per (state, layer) with :func:`~repro.core.tensors.layer_tensors`
and filled the arrays entry by entry.  That per-entry compile lives on
here as the oracle: every stored float (combined, forward and backward
inter arrays) must be byte-identical to it, and the lazily built records
of a gathered level must equal its records -- over random chains and
DAGs, both strategy spaces, all three scaling modes, 1-7 levels, the
analytic model and every shipped profile pack.

The last class pins the laziness itself: a fresh ``/partition`` or
``/simulate`` miss of the service builds no ``LayerTensors`` at all until
a result's ``.breakdown`` is read.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.core.costmodel import resolve_cost_model, shipped_profiles
from repro.core.costs import CostTable, HierarchicalCostTable
from repro.core.hierarchical import HierarchicalPartitioner
from repro.core.parallelism import StrategySpace
from repro.core.strategies import strategy_spec
from repro.core.tensors import LayerTensors, ScalingMode, TensorScale, layer_tensors
from repro.nn.layers import ConvLayer, FCLayer
from repro.nn.model import build_model
from repro.nn.model_zoo import get_model
from repro.nn.shapes import MergeOp
from repro.service.app import HyParService
from repro.sweep.cache import clear_caches, shared_table_cache

COST_MODELS = ["analytic"] + [f"profiled:{name}" for name in sorted(shipped_profiles())]
SPACES = ["dp,mp", "dp,mp,pp"]


# ----------------------------------------------------------------------
# The oracle: per-(state, layer) records and the per-entry fill.
# ----------------------------------------------------------------------


def _oracle_fill(
    records, space, comm, edges, intra, inter, inter_forward=None, inter_backward=None
):
    """Fill one scale state's ``(L, K)`` / ``(E, K, K)`` slices entry by entry.

    The direction splits are filled only when their arrays are given.
    """
    members = space.members
    if comm.is_calibrated:
        for index, record in enumerate(records):
            for code, member in enumerate(members):
                intra[index, code] = comm.intra_layer_bytes(record, member)
        for edge_index, (source, _destination) in enumerate(edges):
            boundary = records[source]
            for q_code, current in enumerate(members):
                for p_code, previous in enumerate(members):
                    entry = (edge_index, p_code, q_code)
                    inter[entry] = comm.inter_layer_bytes(previous, current, boundary)
                    if inter_forward is not None:
                        inter_forward[entry] = comm.inter_layer_forward_bytes(
                            previous, current, boundary
                        )
                    if inter_backward is not None:
                        inter_backward[entry] = comm.inter_layer_backward_bytes(
                            previous, current, boundary
                        )
        return
    bytes_per_element = comm.bytes_per_element
    pair_factor = comm.pair_factor
    specs = [strategy_spec(member) for member in members]
    for index, record in enumerate(records):
        for code, spec in enumerate(specs):
            intra[index, code] = (
                spec.intra_elements(record) * bytes_per_element * pair_factor
            )
    for edge_index, (source, _destination) in enumerate(edges):
        boundary = records[source]
        for q_code, spec in enumerate(specs):
            forward = spec.inter_forward_elements
            backward = spec.inter_backward_elements
            for p_code, previous in enumerate(members):
                entry = (edge_index, p_code, q_code)
                inter[entry] = (
                    (forward(previous, boundary) + backward(previous, boundary))
                    * bytes_per_element
                    * pair_factor
                )
                if inter_forward is not None:
                    inter_forward[entry] = (
                        forward(previous, boundary) * bytes_per_element * pair_factor
                    )
                if inter_backward is not None:
                    inter_backward[entry] = (
                        backward(previous, boundary) * bytes_per_element * pair_factor
                    )


def _oracle_scale(mode: ScalingMode, level: int, batch_halvings: int, weight_halvings: int):
    if mode is ScalingMode.PARALLELISM_AWARE:
        return TensorScale(0.5**batch_halvings, 0.5**weight_halvings)
    if mode is ScalingMode.UNIFORM:
        return TensorScale(0.5**level, 1.0)
    return TensorScale()


def oracle_compile(model, batch_size, table, directions=True):
    """Per level: ``(intra, inter, forward, backward, records[state][layer])``.

    The compile ``table`` replaced, for ``table``'s configuration and
    state layout.  ``directions=False`` skips the forward/backward splits
    (``None`` in the result), which the table also compiles only on
    first use -- the like-for-like timing the search benchmarks take.
    """
    space = table.strategies
    num_strategies = space.size
    num_layers = len(model)
    num_edges = len(model.edges)
    levels = []
    for level, states in enumerate(table._states):
        records = [
            tuple(
                layer_tensors(layer, batch_size, _oracle_scale(table.scaling_mode, level, b, w))
                for layer in model
            )
            for b, w in states
        ]
        intra = np.empty((num_layers, len(states), num_strategies))
        inter, forward, backward = (
            np.zeros((num_edges, len(states), num_strategies, num_strategies))
            if directions or split == 0
            else None
            for split in range(3)
        )
        for state, state_records in enumerate(records):
            _oracle_fill(
                state_records,
                space,
                table.communication_model,
                model.edges,
                intra[:, state],
                inter[:, state],
                None if forward is None else forward[:, state],
                None if backward is None else backward[:, state],
            )
        levels.append((intra, inter, forward, backward, records))
    return levels


def _assert_matches_oracle(model, batch_size, table, draw_states):
    table._ensure_direction_split()
    oracle = oracle_compile(model, batch_size, table)
    assert len(oracle) == table.num_levels
    for level, (intra, inter, forward, backward, records) in enumerate(oracle):
        for compiled, expected in (
            (table._intra[level], intra),
            (table._inter[level], inter),
            (table._inter_forward[level], forward),
            (table._inter_backward[level], backward),
        ):
            assert compiled.shape == expected.shape
            assert compiled.tobytes() == expected.tobytes()
        states = draw_states(len(records))
        gathered = table.level_cost_table(level, states)
        expected_records = tuple(
            records[state][layer] for layer, state in enumerate(states)
        )
        assert tuple(gathered.tensors) == expected_records


# ----------------------------------------------------------------------
# Random models.
# ----------------------------------------------------------------------


@st.composite
def chain_models(draw, max_layers=8):
    """Random conv/fc chains (conv layers first, as shapes require)."""
    num_conv = draw(st.integers(min_value=0, max_value=max_layers - 1), label="conv")
    num_fc = draw(st.integers(min_value=1, max_value=max_layers - num_conv), label="fc")
    specs = [
        ConvLayer(
            name=f"conv{i}",
            out_channels=draw(st.integers(min_value=1, max_value=24)),
            kernel_size=draw(st.sampled_from([1, 3])),
            padding=1,
        )
        for i in range(num_conv)
    ]
    specs += [
        FCLayer(name=f"fc{i}", out_features=draw(st.integers(min_value=1, max_value=300)))
        for i in range(num_fc)
    ]
    return build_model("random-chain", (7, 7, 3), specs)


@st.composite
def dag_models(draw, max_layers=8):
    """Random fc DAGs: every layer past the second may CONCAT in a skip."""
    num_layers = draw(st.integers(min_value=2, max_value=max_layers), label="layers")
    specs = [FCLayer(name="fc0", out_features=draw(st.integers(1, 200)))]
    for layer in range(1, num_layers):
        inputs = None
        if layer >= 2 and draw(st.booleans(), label="skip"):
            skip = draw(st.integers(min_value=0, max_value=layer - 2), label="src")
            inputs = (f"fc{skip}", f"fc{layer - 1}")
        specs.append(
            FCLayer(
                name=f"fc{layer}",
                out_features=draw(st.integers(1, 200)),
                inputs=inputs,
                merge=MergeOp.CONCAT,
            )
        )
    return build_model("random-dag", (1, 1, draw(st.integers(1, 64))), specs)


def _states_drawer(data, num_layers):
    def draw_states(num_states):
        return data.draw(
            st.lists(
                st.integers(min_value=0, max_value=num_states - 1),
                min_size=num_layers,
                max_size=num_layers,
            ),
            label="states",
        )

    return draw_states


class TestColumnarCompileMatchesPerEntryOracle:
    @settings(max_examples=80, deadline=None)
    @given(
        model=st.one_of(chain_models(), dag_models()),
        batch_size=st.sampled_from([1, 3, 32, 256, 1000]),
        num_levels=st.integers(min_value=1, max_value=7),
        mode=st.sampled_from(list(ScalingMode)),
        strategies=st.sampled_from(SPACES),
        cost_model=st.sampled_from(COST_MODELS),
        data=st.data(),
    )
    def test_random_models(
        self, model, batch_size, num_levels, mode, strategies, cost_model, data
    ):
        comm = resolve_cost_model(cost_model).communication_model()
        table = HierarchicalCostTable(
            model,
            batch_size,
            num_levels,
            scaling_mode=mode,
            communication_model=comm,
            strategies=strategies,
        )
        _assert_matches_oracle(model, batch_size, table, _states_drawer(data, len(model)))

    @pytest.mark.parametrize("cost_model", COST_MODELS)
    @pytest.mark.parametrize("strategies", SPACES)
    @pytest.mark.parametrize("name", ["VGG-E", "resnet_s", "inception_s", "gpt_r-3", "gpt_s-3"])
    def test_zoo_models(self, name, strategies, cost_model):
        model = get_model(name)
        comm = resolve_cost_model(cost_model).communication_model()
        table = HierarchicalCostTable(
            model, 64, 4, communication_model=comm, strategies=strategies
        )
        rng = np.random.default_rng(len(model))
        _assert_matches_oracle(
            model,
            64,
            table,
            lambda num_states: rng.integers(0, num_states, len(model)).tolist(),
        )

    @settings(max_examples=60, deadline=None)
    @given(
        model=st.one_of(chain_models(), dag_models()),
        data=st.data(),
        strategies=st.sampled_from(SPACES),
        cost_model=st.sampled_from(COST_MODELS),
    )
    def test_single_level_from_tensors(self, model, data, strategies, cost_model):
        """``CostTable.from_tensors`` runs the same fill on given records."""
        records = [
            LayerTensors(
                layer_index=layer.index,
                layer_name=layer.name,
                is_conv=layer.is_conv,
                feature_in=data.draw(st.floats(0.0, 1e9)),
                feature_out=data.draw(st.floats(0.0, 1e9)),
                weight=data.draw(st.floats(0.0, 1e9)),
                macs=data.draw(st.floats(0.0, 1e9)),
            )
            for layer in model
        ]
        comm = resolve_cost_model(cost_model).communication_model()
        space = StrategySpace.parse(strategies)
        table = CostTable.from_tensors(records, comm, space, edges=model.edges)
        intra = np.empty((len(records), space.size))
        inter = np.zeros((len(model.edges), space.size, space.size))
        _oracle_fill(records, space, comm, model.edges, intra, inter)
        assert table.intra.tobytes() == intra.tobytes()
        assert table.inter.tobytes() == inter.tobytes()
        assert tuple(table.tensors) == tuple(records)


# ----------------------------------------------------------------------
# Laziness: no LayerTensors on the search and simulation paths.
# ----------------------------------------------------------------------


class TestRecordsAreBuiltOnlyForBreakdowns:
    @pytest.fixture
    def built(self, monkeypatch):
        """Counts every LayerTensors constructed while the test runs."""
        count = [0]
        original = LayerTensors.__init__

        def counting_init(self, *args, **kwargs):
            count[0] += 1
            original(self, *args, **kwargs)

        monkeypatch.setattr(LayerTensors, "__init__", counting_init)
        clear_caches()
        yield count
        clear_caches()

    def test_fresh_partition_miss(self, built):
        with HyParService() as service:
            status, _ = service.handle(
                "POST",
                "/partition",
                json.dumps({"model": "gpt_r-6", "num_accelerators": 8}).encode(),
            )
        assert status == 200
        assert shared_table_cache().stats()["misses"] == 1
        assert built[0] == 0

        model = get_model("gpt_r-6")
        table = shared_table_cache().get_or_compile(model, 256, 3)
        result = HierarchicalPartitioner(num_levels=3).partition(model, 256, table=table)
        assert built[0] == 0
        breakdown = result.levels[1].breakdown
        assert len(breakdown) == len(model)
        assert built[0] == len(model)

    def test_fresh_simulate_miss(self, built):
        with HyParService() as service:
            status, _ = service.handle(
                "POST",
                "/simulate",
                json.dumps({"model": "VGG-A", "num_accelerators": 16}).encode(),
            )
        assert status == 200
        assert shared_table_cache().stats()["misses"] == 1
        assert built[0] == 0
