"""End-to-end benchmark of three ways users reach HyPar.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (perfbench/README.md says why each was chosen):

* ``cold-cli``    -- one cold ``python -m repro <cmd>`` process per op;
* ``service``     -- a closed-loop client against ``hypar serve``;
* ``large-array`` -- one VGG-A grid point at 512/1024 accelerators per op,
  each in a fresh child process (run by hand; not in BENCHMARK.json).

Run from the root of a checkout; the program is taken from ``src/``.  The
last line of standard output is the result object; the line before it is
a detail object (tail percentile, sample count, set-up samples, checks,
layer shares, host probe and machine record).  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate
traced run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

import env
import workloads as wl

os.environ.update(env.STEADY_ENV)  # before NumPy loads, for the host probe

#: Every run must end within 180 s; leave room for the report.
DEADLINE_SECONDS = 170.0

#: Spans whose self time per op is the per-layer metric ``<name>_ms``.
LAYER_TIMES = (
    "cli.interpreter",
    "cli.import_repro",
    "cli.import_numpy",
    "cli.import_networkx",
    "cli.command",
    "nn.model_build",
    "interconnect.metrics",
    "sim.flow_plans",
    "core.table_compile",
    "core.search",
    "sim.analytic",
    "sim.network",
    "sim.event_loop",
    "sweep.point",
    "sweep.render",
    "service.transport",
    "service.handle",
    "service.schema",
    "service.cache",
    "service.app",
)
#: Counters reported per op.
LAYER_COUNTS = ("core.table_hits", "core.table_misses", "sim.tasks")


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least 10 samples beyond it,
    and that percentile."""
    ordered = sorted(latencies)
    index = max(len(ordered) - 11, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def run_session(args, index: int, first: int, rounds: int, deadline: float) -> dict:
    command = [
        sys.executable, str(env.HERE / "session.py"), args.workload,
        "--seed", str(args.seed), "--first", str(first), "--rounds", str(rounds),
        "--index", str(index), "--trace", str(args.trace),
    ]
    spawned = time.monotonic()
    proc = subprocess.Popen(
        command, env=env.child_env(), cwd=env.ROOT, stdout=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"session {index} of {args.workload} overran the deadline") from None
    finally:
        if proc.poll() is None:  # stop the session and everything it started
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"session {index} of {args.workload} exited {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    if not result["setups"]:  # set-up ends where the first timed op starts
        result["setups"] = [result["first_op_at"] - spawned]
    return result


def machine_record() -> dict:
    probe = (
        "import json, platform, numpy, networkx\n"
        "from repro.core import kernels\n"
        "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__,"
        " 'networkx': networkx.__version__, 'numba_available': kernels.NUMBA_AVAILABLE}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env.child_env(), cwd=env.ROOT,
        capture_output=True, text=True, check=True,
    ).stdout
    record = json.loads(out)
    record["nproc"] = len(os.sched_getaffinity(0))
    with open("/proc/cpuinfo") as cpuinfo:
        record["cpu"] = next(
            (line.split(":", 1)[1].strip() for line in cpuinfo if line.startswith("model name")),
            "unknown",
        )
    return record


def layer_metrics(results: list[dict], ops: int) -> tuple[dict, dict]:
    counts, by_class, self_seconds = Counter(), {}, Counter()
    for result in results:
        counts.update(result["trace"]["counts"])
        for op_class, seconds in result["trace"]["self_seconds"].items():
            by_class.setdefault(op_class, Counter()).update(seconds)
            self_seconds.update(seconds)
    op_seconds = self_seconds.pop("op")
    metrics = {f"{name}_ms": (1e3 * self_seconds.get(name, 0.0) / ops, "ms") for name in LAYER_TIMES}
    for name in LAYER_COUNTS:
        metrics[name] = (counts.get(name, 0) / ops, "count/op")
    hits, misses = counts.get("service.cache_hits", 0), counts.get("service.cache_misses", 0)
    metrics["service.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    covered = op_seconds - self_seconds.get("unattributed", 0.0)
    metrics["trace.coverage"] = (covered / op_seconds, "ratio")
    shares = {
        op_class: {
            name: round(seconds / spans["op"], 4)
            for name, seconds in sorted(spans.items()) if name != "op"
        }
        for op_class, spans in sorted(by_class.items())
    }
    return metrics, {"layer_shares": shares, "counts": dict(counts)}


def _stop(signum, frame):  # noqa: ARG001 - signal API
    raise SystemExit(f"stopped by signal {signum}")  # runs the sessions' cleanup


def main() -> int:
    signal.signal(signal.SIGTERM, _stop)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_SECONDS

    if not (env.SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {env.SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    # The build: byte-compile once, so no session pays for it.
    if not compileall.compile_dir(str(env.SRC / "repro"), quiet=1):
        print("byte-compiling src/repro failed", file=sys.stderr)
        return 2

    probe_start = env.host_probe()
    plan = wl.PLANS[args.workload]
    results = [
        run_session(args, index, first, rounds, deadline)
        for index, (first, rounds) in enumerate(plan.split(args.seconds))
    ]
    probe_end = env.host_probe()

    latencies = [latency for result in results for latency in result["latencies"]]
    failed = sum(result["failed"] for result in results)
    checks = {}
    for index, result in enumerate(results):
        for name, check in result["checks"].items():
            checks[f"s{index}.{name}"] = check
    correct = failed == 0 and all(check["ok"] for check in checks.values())
    tail_ms, percentile = tail(latencies)
    rounds = [seconds for result in results for seconds in result["round_seconds"]]
    setups = [setup for result in results for setup in result["setups"]]
    ops = sorted(op for result in results for op in result["ops"])
    by_op: dict[str, list[float]] = {}
    for result in results:
        for op, latency in zip(result["ops"], result["latencies"]):
            by_op.setdefault(op, []).append(latency)
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(latencies) / sum(rounds), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1e3 * tail_ms, "ms"),
        "peak_rss_mb": (max(result["peak_rss_mb"] for result in results), "MB"),
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops_per_session": [len(result["ops"]) for result in results],
        "samples": len(latencies),
        "rounds": len(rounds),
        "tail_percentile": round(percentile, 2),
        "setup_samples_s": [round(setup, 4) for setup in setups],
        "op_keys": {"distinct": len(set(ops)), "sha256": env.digest("\n".join(ops).encode())},
        "op_median_ms": {
            op: round(1e3 * statistics.median(seconds), 3) for op, seconds in sorted(by_op.items())
        },
        "checks": checks,
        "failures": [failure for result in results for failure in result["failures"]],
        "host_probe_ms": [round(probe_start, 3), round(probe_end, 3)],
        "machine": machine_record(),
        "end_to_end": {name: value for name, (value, _) in values.items()},
    }
    if args.trace:
        metrics, extra = layer_metrics(results, len(latencies))
        detail.update(extra)
        metrics["service.client_retries"] = (
            sum(result["checks"].get("client_retries", {}).get("value", 0) for result in results),
            "count",
        )
        metrics["host.probe_ms"] = ((probe_start + probe_end) / 2, "ms")
        metrics["trace.op_p50_ms"] = (values["op_p50_ms"][0], "ms")
        metrics["trace.ops_per_s"] = (values["ops_per_s"][0], "1/s")
    else:
        metrics = values
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(latencies),
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
