"""Micro-benchmarks of the partition search itself.

Section 4 claims the search is practical because its time complexity is
linear in the number of weighted layers.  These benches measure the search
latency on the smallest and largest evaluation networks and on synthetic
networks of growing depth, so the linearity is visible in the benchmark
table itself.
"""

import importlib.util
import os
import time

import pytest

from repro.core.costmodel import resolve_cost_model
from repro.core.costs import CostTable, HierarchicalCostTable
from repro.core.hierarchical import HierarchicalPartitioner
from repro.core.partitioner import TwoWayPartitioner
from repro.core.tensors import model_tensors
from repro.nn.layers import ConvLayer
from repro.nn.model import build_model
from repro.nn.model_zoo import gpt_r, gpt_s, lenet_c, vgg_e

from conftest import emit


def _table_compile_oracle():
    """The per-entry compile kept as the oracle of the columnar one."""
    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "tests",
        "properties",
        "test_property_table_compile.py",
    )
    spec = importlib.util.spec_from_file_location("table_compile_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.oracle_compile


def _search_oracle():
    """The search steps the proportionate rewrite replaced, kept as oracles."""
    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "tests",
        "core",
        "search_oracle.py",
    )
    spec = importlib.util.spec_from_file_location("search_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _best_seconds(function, calls: int = 20, rounds: int = 5) -> float:
    """Best per-call time of ``function`` over ``rounds`` timed loops."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(calls):
            function()
        best = min(best, (time.perf_counter() - start) / calls)
    return best


def _synthetic_network(depth: int):
    specs = [
        ConvLayer(name=f"conv{i}", out_channels=16, kernel_size=3, padding=1)
        for i in range(depth)
    ]
    return build_model(f"synthetic-{depth}", (32, 32, 16), specs)


def test_two_way_search_lenet(benchmark):
    tensors = model_tensors(lenet_c(), 256)
    partitioner = TwoWayPartitioner()
    result = benchmark(partitioner.partition_tensors, tensors)
    benchmark.extra_info["layers"] = result.num_layers


def test_two_way_search_vgg_e(benchmark):
    tensors = model_tensors(vgg_e(), 256)
    partitioner = TwoWayPartitioner()
    result = benchmark(partitioner.partition_tensors, tensors)
    benchmark.extra_info["layers"] = result.num_layers


def test_hierarchical_search_vgg_e_four_levels(benchmark):
    partitioner = HierarchicalPartitioner(num_levels=4)
    model = vgg_e()
    result = benchmark(partitioner.partition, model, 256)
    benchmark.extra_info["layers"] = result.assignment.num_layers
    benchmark.extra_info["levels"] = result.num_levels


def test_hierarchical_search_gpt_r(benchmark):
    """Warm-table hierarchical search of ``gpt_r-30`` at 64 accelerators.

    The residual transformer is the service's costliest search: six
    levels of the cut-vertex program over 63 cut segments each.  The
    table is compiled once outside the timed calls, as a service cache
    hit on the table would find it.  On every level table the search
    visits, the signature-id detector it replaced (kept in
    ``tests/core/search_oracle.py``) and the row-matrix detector run
    like-for-like in-process, best of five loops each; the ratio of their
    summed times lands in ``extra_info`` as ``detector_speedup`` (floor
    >= 3x, enforced here and by ``scripts/check_bench_regression.py``),
    and both detectors must find the same periodic region.
    """
    oracle = _search_oracle()
    model = gpt_r(30)
    partitioner = HierarchicalPartitioner(num_levels=6)
    table = partitioner.compile_table(model, 256)

    result = benchmark(partitioner.partition, model, 256, table=table)

    signature_seconds = matrix_seconds = 0.0
    descent = table.scale_descent()
    for level in range(table.num_levels):
        level_table = table.level_cost_table(level, descent.states(level))
        blocks = level_table.layout.segments
        assert level_table._detect_periodic_blocks(
            blocks
        ) == oracle.detect_periodic_blocks(level_table, blocks)
        signature_seconds += _best_seconds(
            lambda: oracle.detect_periodic_blocks(level_table, blocks)
        )
        matrix_seconds += _best_seconds(
            lambda: level_table._detect_periodic_blocks(blocks)
        )
        descent.advance(result.assignment[level])

    search_seconds = benchmark.stats.stats.min
    speedup = signature_seconds / matrix_seconds
    benchmark.extra_info["layers"] = len(model)
    benchmark.extra_info["levels"] = table.num_levels
    benchmark.extra_info["search_seconds"] = search_seconds
    benchmark.extra_info["signature_detector_seconds"] = signature_seconds
    benchmark.extra_info["matrix_detector_seconds"] = matrix_seconds
    benchmark.extra_info["detector_speedup"] = speedup
    emit(
        "Hierarchical search: gpt_r-30, 6 levels, warm table",
        f"search             : {search_seconds * 1e3:.2f} ms\n"
        f"signature detector : {signature_seconds * 1e3:.2f} ms per search\n"
        f"row-matrix detector: {matrix_seconds * 1e3:.2f} ms per search\n"
        f"detector speedup   : {speedup:.1f}x",
    )
    assert speedup >= 3.0, (
        f"row-matrix detector must be >= 3x the signature detector, got {speedup:.1f}x"
    )


@pytest.mark.parametrize("depth", [32, 128, 512])
def test_two_way_search_scales_linearly(benchmark, depth):
    """Search latency should grow roughly linearly with network depth."""
    tensors = model_tensors(_synthetic_network(depth), 32)
    partitioner = TwoWayPartitioner()
    benchmark(partitioner.partition_tensors, tensors)
    benchmark.extra_info["layers"] = depth


@pytest.mark.parametrize("blocks", [128, 512, 1024])
def test_deep_transformer_dp_memoized(benchmark, blocks):
    """Chain DP over ``gpt_s`` transformer depths, memoized vs cold.

    The parameterized transformer chains are exactly periodic in their
    interior, so the block-repetition memoizer converges after a handful of
    blocks and replays the rest by translation.  The cold NumPy layer loop
    runs like-for-like inside the bench (best round on both sides, as in
    the gated sweep ratios) and the measured speedup lands in
    ``extra_info``; at 1024 blocks it is recorded as ``deep_dp_speedup``,
    whose >= 10x acceptance floor ``scripts/check_bench_regression.py``
    enforces against the committed baseline.  Bit-exact agreement between
    the two paths is asserted on every run.
    """
    tensors = model_tensors(gpt_s(blocks), 256)
    table = CostTable.from_tensors(tensors)

    result = benchmark(table.dp_partition)

    cold_rounds = []
    for _ in range(3):
        start = time.perf_counter()
        cold = table.dp_partition(memoize=False)
        cold_rounds.append(time.perf_counter() - start)
    assert cold.communication_bytes == result.communication_bytes
    assert cold.assignment.choices == result.assignment.choices

    cold_seconds = min(cold_rounds)
    memoized_seconds = benchmark.stats.stats.min
    speedup = cold_seconds / memoized_seconds
    benchmark.extra_info["layers"] = len(tensors)
    benchmark.extra_info["blocks"] = blocks
    benchmark.extra_info["cold_seconds"] = cold_seconds
    benchmark.extra_info["memoized_seconds"] = memoized_seconds
    # Only the deepest case is gated: the floor protects the regime the
    # acceptance bar names (1024 blocks), while the shallower depths keep
    # an informational measurement in the baseline history.
    key = "deep_dp_speedup" if blocks == 1024 else "memoized_speedup"
    benchmark.extra_info[key] = speedup
    emit(
        f"Deep-chain DP: gpt_s --layers {blocks} ({len(tensors)} layers)",
        f"cold    : {cold_seconds * 1e3:.2f} ms\n"
        f"memoized: {memoized_seconds * 1e3:.2f} ms\n"
        f"speedup : {speedup:.1f}x",
    )
    if blocks == 1024:
        assert speedup >= 10.0, (
            f"memoized deep-chain DP must be >= 10x the cold path, got {speedup:.1f}x"
        )


@pytest.mark.parametrize("strategies", ["dp,mp", "dp,mp,pp"])
def test_hierarchical_table_compile(benchmark, strategies):
    """Columnar hierarchical table compile vs the per-entry oracle.

    ``gpt_s-30`` at 64 accelerators (6 levels) is the largest table a
    service ``/partition`` miss compiles.  The columnar compile evaluates
    every layer and scale state of a level in one array pass; the
    per-entry compile it replaced (``layer_tensors`` per (state, layer)
    plus a scalar fill, kept in
    ``tests/properties/test_property_table_compile.py``) runs
    like-for-like in-process, best of three rounds, without the lazily
    compiled direction splits on either side.  The ratio lands in
    ``extra_info`` as ``table_compile_speedup`` (floor >= 5x, enforced
    here and by ``scripts/check_bench_regression.py``), and byte-identical
    arrays are asserted on every run.
    """
    oracle_compile = _table_compile_oracle()
    model = gpt_s(30)

    table = benchmark(HierarchicalCostTable, model, 256, 6, strategies=strategies)

    oracle_rounds = []
    for _ in range(3):
        start = time.perf_counter()
        oracle = oracle_compile(model, 256, table, directions=False)
        oracle_rounds.append(time.perf_counter() - start)
    for level, (intra, inter, _, _, _) in enumerate(oracle):
        assert table._intra[level].tobytes() == intra.tobytes()
        assert table._inter[level].tobytes() == inter.tobytes()

    oracle_seconds = min(oracle_rounds)
    columnar_seconds = benchmark.stats.stats.min
    speedup = oracle_seconds / columnar_seconds
    benchmark.extra_info["layers"] = len(model)
    benchmark.extra_info["levels"] = table.num_levels
    benchmark.extra_info["oracle_seconds"] = oracle_seconds
    benchmark.extra_info["columnar_seconds"] = columnar_seconds
    benchmark.extra_info["table_compile_speedup"] = speedup
    emit(
        f"Hierarchical table compile: gpt_s-30, 6 levels, {strategies}",
        f"per-entry: {oracle_seconds * 1e3:.2f} ms\n"
        f"columnar : {columnar_seconds * 1e3:.2f} ms\n"
        f"speedup  : {speedup:.1f}x",
    )
    assert speedup >= 5.0, (
        f"columnar table compile must be >= 5x the per-entry compile, got {speedup:.1f}x"
    )


def test_profiled_table_compile_overhead(benchmark):
    """Profiled-provider table compilation vs the columnar analytic path.

    The calibrated provider fills the vectorized tables by dispatching
    per entry through the same byte-level methods the object oracle
    calls, instead of the analytic path's one array pass per level --
    the price of the bit-exactness contract.  This bench compiles the
    ``vgg_e`` hierarchical table (the largest eval network, 4 levels)
    under ``profiled:slow-interconnect`` and runs the analytic compile
    like-for-like in-process; the ratio lands in ``extra_info`` as
    ``profiled_compile_overhead`` (informational, no acceptance floor --
    the compile is a once-per-configuration cost the TableCache
    amortizes across every point that shares the configuration).  The
    ratio rose from ~1.3x to ~8x when the analytic compile it divides by
    went columnar; the calibrated compile itself stayed at ~2 ms.
    """
    model = vgg_e()
    calibrated = resolve_cost_model("profiled:slow-interconnect").communication_model()

    result = benchmark(
        HierarchicalCostTable, model, 256, 4, communication_model=calibrated
    )

    analytic_rounds = []
    for _ in range(3):
        start = time.perf_counter()
        HierarchicalCostTable(model, 256, 4)
        analytic_rounds.append(time.perf_counter() - start)

    analytic_seconds = min(analytic_rounds)
    profiled_seconds = benchmark.stats.stats.min
    overhead = profiled_seconds / analytic_seconds
    benchmark.extra_info["layers"] = len(result.model)
    benchmark.extra_info["levels"] = result.num_levels
    benchmark.extra_info["analytic_seconds"] = analytic_seconds
    benchmark.extra_info["profiled_seconds"] = profiled_seconds
    benchmark.extra_info["profiled_compile_overhead"] = overhead
    emit(
        "Profiled table compile: vgg_e, 4 levels, slow-interconnect pack",
        f"analytic: {analytic_seconds * 1e3:.2f} ms\n"
        f"profiled: {profiled_seconds * 1e3:.2f} ms\n"
        f"overhead: {overhead:.2f}x",
    )

