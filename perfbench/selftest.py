"""Order and seed invariance self-test of the benchmark.

    python3 perfbench/selftest.py [workload ...]

Runs every workload briefly (one round per session) under two seeds, both
untraced and traced, and asserts that the two seeds give

* the same sorted op list and all output checks passing;
* the same counts: ``core.table_misses``, ``service.hit_ratio`` and
  ``sim.tasks`` (traced) and the service's per-round cache counts;
* at most 63 cost tables in every process, with no flush;

and that every run reports exactly the metrics ``BENCHMARK.json`` declares.

Exits 0 when every assertion holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys

import env
import workloads as wl

SEEDS = (11, 12)
COUNTS = ("core.table_misses", "service.hit_ratio", "sim.tasks")


def brief_run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(env.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=env.ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip().splitlines()
    return json.loads(out[-2])["detail"], json.loads(out[-1])


def invariants(detail: dict, result: dict, trace: int) -> dict:
    summary = {
        "ops": detail["op_keys"],
        "checks": {name: check["value"] for name, check in detail["checks"].items()},
    }
    if trace:
        summary["counts"] = {name: result["metrics"][name]["value"] for name in COUNTS}
    return summary


def main() -> int:
    with open(env.ROOT / "BENCHMARK.json") as handle:
        benchmark = json.load(handle)
    declared = {
        trace: {metric["name"] for metric in benchmark[key]}
        for trace, key in ((0, "end_to_end"), (1, "per_layer"))
    }
    failures = []
    for workload in sys.argv[1:] or wl.WORKLOADS:
        for trace in (0, 1):
            seen = []
            for seed in SEEDS:
                detail, result = brief_run(workload, seed, trace)
                if not result["correct"] or result["failed"]:
                    failures.append(f"{workload} seed {seed} trace {trace}: {detail['failures']} "
                                    f"{detail['checks']}")
                if set(result["metrics"]) != declared[trace]:
                    failures.append(f"{workload} trace {trace}: metrics differ from BENCHMARK.json")
                seen.append(invariants(detail, result, trace))
            same = seen[0] == seen[1]
            print(f"{workload:12s} trace={trace} seeds {SEEDS}: "
                  f"{'identical' if same else 'DIFFERENT'} {json.dumps(seen[0], sort_keys=True)[:300]}")
            if not same:
                failures.append(f"{workload} trace {trace}: {seen[0]} != {seen[1]}")
    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
