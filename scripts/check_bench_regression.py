#!/usr/bin/env python
"""Fail when search/sweep benchmarks regress against the committed baseline.

Usage::

    PYTHONPATH=src python -m pytest benchmarks/bench_search_performance.py \
        benchmarks/bench_sweep_throughput.py --benchmark-only \
        --benchmark-json=bench_current.json
    python scripts/check_bench_regression.py BENCH_search.json bench_current.json

Compares the mean latency of every benchmark present in both files and
exits non-zero when any regresses by more than the threshold (20% by
default, overridable with ``--threshold``).  Also re-checks the recorded
speedup extra-info values against their acceptance floors --
``speedup_vs_reference`` >= 20x (the vectorized engine over the object
path), ``warm_vs_cold_speedup`` >= 10x (the service's warm requests over
a cold CLI run), ``deep_dp_speedup`` >= 10x (the memoized chain DP
over the cold layer loop on the 1024-block transformer) and
``table_compile_speedup`` >= 5x (the columnar cost-table compile over
the per-entry one) and ``detector_speedup`` >= 3x (the row-matrix
periodic-block detector over the signature-id one) -- so none can
silently fall below its bar even if it stays self-consistent between
runs.

Both sides accept either the full ``pytest-benchmark`` JSON format or the
slim summary baseline written by ``scripts/slim_bench_baseline.py`` (the
committed ``BENCH_search.json`` is the latter: per-benchmark
mean/stddev/rounds plus ``extra_info``, without the raw samples).

Absolute latencies are machine-specific: the committed baseline is only
meaningful on hardware comparable to the machine that produced it.  On a
different machine, regenerate the baseline once (the pytest command above
with ``--benchmark-json=BENCH_search.json``) and compare subsequent runs
against that.  The ``speedup_vs_reference`` floor is self-relative (both
paths run in the same process) and holds on any machine.
"""

from __future__ import annotations

import argparse
import json
import sys

#: Acceptance floors for speedups recorded in ``benchmark.extra_info``:
#: the vectorized-vs-object-path ratio of bench_sweep_throughput.py and
#: the warm-service-vs-cold-CLI ratio of bench_service_throughput.py.
#: Whenever the committed baseline records one of these keys, the current
#: run must record it too and clear the floor.
SPEEDUP_FLOORS = {
    "speedup_vs_reference": 20.0,
    "warm_vs_cold_speedup": 10.0,
    # Block-repetition memoized chain DP over the gpt_s --layers 1024
    # deep transformer vs the cold NumPy layer loop
    # (bench_search_performance.py::test_deep_transformer_dp_memoized).
    "deep_dp_speedup": 10.0,
    # Columnar HierarchicalCostTable compile vs the per-entry compile it
    # replaced, on gpt_s-30 at 6 levels
    # (bench_search_performance.py::test_hierarchical_table_compile).
    "table_compile_speedup": 5.0,
    # Row-matrix periodic-block detector vs the signature-id detector it
    # replaced, summed over the level tables of a gpt_r-30 search at 6
    # levels (bench_search_performance.py::test_hierarchical_search_gpt_r).
    "detector_speedup": 3.0,
}


def load_benchmarks(path: str, role: str) -> dict[str, dict]:
    """Benchmarks keyed by fullname, from either supported format.

    The full pytest-benchmark payload and the slim summary baseline both
    carry ``benchmarks`` entries with ``fullname``, ``stats.mean`` and
    ``extra_info``, so a single mapping serves both; the ``format`` marker
    merely distinguishes them for error messages.

    A missing, empty or unparseable file -- typically the *current*
    results file when the benchmark run died before ``--benchmark-json``
    wrote anything -- exits non-zero with a message saying so, instead of
    a traceback.
    """
    try:
        with open(path) as handle:
            content = handle.read()
    except OSError as error:
        raise SystemExit(
            f"error: cannot read the {role} results file {path!r} ({error}); "
            "did the benchmark run fail before writing it?"
        )
    if not content.strip():
        raise SystemExit(
            f"error: the {role} results file {path!r} is empty; the benchmark "
            "run was interrupted before pytest-benchmark wrote its JSON"
        )
    try:
        payload = json.loads(content)
    except json.JSONDecodeError as error:
        raise SystemExit(
            f"error: the {role} results file {path!r} is not valid JSON "
            f"({error}); the benchmark run may have been interrupted mid-write"
        )
    benchmarks = payload.get("benchmarks") if isinstance(payload, dict) else None
    if benchmarks is None:
        raise SystemExit(
            f"error: {path} is neither a pytest-benchmark JSON nor a "
            "summary baseline (no 'benchmarks' key)"
        )
    if not benchmarks:
        raise SystemExit(
            f"error: the {role} results file {path!r} contains no benchmarks; "
            "run the benchmark set named in the baseline"
        )
    return {bench["fullname"]: bench for bench in benchmarks}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed baseline JSON (BENCH_search.json)")
    parser.add_argument("current", help="freshly produced --benchmark-json output")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="maximum tolerated relative mean-latency regression (default 0.20)",
    )
    args = parser.parse_args(argv)

    baseline = load_benchmarks(args.baseline, role="baseline")
    current = load_benchmarks(args.current, role="current")
    shared = sorted(set(baseline) & set(current))
    if not shared:
        print("error: the two benchmark files have no benchmarks in common")
        return 2

    failures: list[str] = []
    for name in shared:
        base_mean = baseline[name]["stats"]["mean"]
        new_mean = current[name]["stats"]["mean"]
        ratio = new_mean / base_mean if base_mean > 0 else float("inf")
        status = "ok"
        if ratio > 1.0 + args.threshold:
            status = "REGRESSION"
            failures.append(
                f"{name}: mean {base_mean * 1e3:.3f} ms -> {new_mean * 1e3:.3f} ms "
                f"({ratio:.2f}x, limit {1.0 + args.threshold:.2f}x)"
            )
        print(f"{status:>10}  {name}: {base_mean * 1e3:.3f} ms -> {new_mean * 1e3:.3f} ms ({ratio:.2f}x)")

        # The baseline defines which benchmarks must carry a measured
        # speedup: dropping the extra_info in a refactor must not silently
        # disable the floor check.
        for key, floor in SPEEDUP_FLOORS.items():
            if baseline[name].get("extra_info", {}).get(key) is None:
                continue
            speedup = current[name].get("extra_info", {}).get(key)
            if speedup is None:
                failures.append(
                    f"{name}: baseline records {key} but the current run "
                    "does not — the floor check was skipped"
                )
            elif speedup < floor:
                failures.append(
                    f"{name}: {key} fell to {speedup:.1f}x "
                    f"(floor {floor:.0f}x)"
                )

    # Benchmarks only the current run recorded (any bench newer than the
    # committed baseline) have no latency baseline, but their
    # self-relative speedup floors still bind.
    for name in sorted(set(current) - set(baseline)):
        for key, floor in SPEEDUP_FLOORS.items():
            speedup = current[name].get("extra_info", {}).get(key)
            if speedup is None:
                continue
            if speedup < floor:
                failures.append(
                    f"{name}: {key} fell to {speedup:.1f}x (floor {floor:.0f}x)"
                )
            else:
                print(f"        ok  {name}: {key} {speedup:.1f}x (floor {floor:.0f}x)")

    missing = sorted(set(baseline) - set(current))
    for name in missing:
        print(f"   missing  {name}: present in baseline but not in current run")
        failures.append(
            f"{name}: present in baseline but missing from the current run "
            "(run the full benchmark set named in the baseline)"
        )

    if failures:
        print("\nbenchmark regression check FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"\nbenchmark regression check passed ({len(shared)} benchmarks compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
