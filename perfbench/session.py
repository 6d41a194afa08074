"""One session of a workload: set up, time whole rounds, check every op.

``run.py`` starts one or more sessions per run, each a fresh interpreter::

    python3 perfbench/session.py <workload> --seed N --first R --rounds K \
        --index I --trace 0|1

The last line of standard output is one JSON object: op latencies and
keys, failures, the wall time of every timed round, set-up timestamps or
samples, peak RSS, invariant checks and, when traced, the span summary.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import subprocess
import sys
import threading
import time
from time import perf_counter

import env
import workloads as wl

sys.path.insert(0, str(env.SRC))

#: Share of a service round's requests that must be result-cache hits
#: (3 of the 4 sends of every distinct request).
SERVICE_HIT_RATIO = (wl.SERVICE_REPEATS - 1) / wl.SERVICE_REPEATS
#: TableCache flushes everything when a 64th table is compiled.
TABLE_LIMIT = 63


class Session:
    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.expected = env.load_expected()[args.workload]
        self.tracer = None
        if args.trace:
            import tracing

            self.tracer = tracing.Tracer()
        self.result = {
            "latencies": [],
            "ops": [],
            "failed": 0,
            "failures": [],
            "round_seconds": [],
            "setups": [],
            "peak_rss_mb": 0.0,
            "checks": {},
        }
        self._op = args.index * 1_000_000

    def rounds(self):
        first = self.args.first
        return range(first, first + self.args.rounds)

    def order(self, round_index: int, keys) -> list:
        return wl.round_order(self.args.workload, self.args.seed, round_index, sorted(keys))

    def start_op(self) -> float:
        self._op += 1
        return self.tracer.begin_op(self._op) if self.tracer else perf_counter()

    def stop_op(self, start: float, end: float | None = None) -> float:
        """The op's latency, measured before its output is checked."""
        end = perf_counter() if end is None else end
        return self.tracer.end_op(start, end) if self.tracer else end - start

    def record(self, key: str, latency: float, ok: bool, why: str) -> None:
        self.result["latencies"].append(latency)
        self.result["ops"].append(key)
        if not ok:
            self.result["failed"] += 1
            if len(self.result["failures"]) < 5:
                self.result["failures"].append(f"{key}: {why}")

    def first_op(self) -> None:
        self.result["first_op_at"] = time.monotonic()

    def check(self, name: str, ok: bool, value) -> None:
        self.result["checks"][name] = {"ok": bool(ok), "value": value}

    def note_rss(self, megabytes: float) -> None:
        self.result["peak_rss_mb"] = max(self.result["peak_rss_mb"], megabytes)

    # ------------------------------------------------------------------
    # cold-cli
    # ------------------------------------------------------------------

    def cold_cli(self) -> None:
        child_env = env.child_env()
        commands = {" ".join(command): command for command in wl.COLD_CLI_COMMANDS}
        python = [sys.executable]
        if self.tracer:
            python += ["-X", "importtime"]
        subprocess.run(
            [sys.executable, "-m", "repro", *wl.COLD_CLI_COMMANDS[0]],
            env=child_env, cwd=env.ROOT, capture_output=True, check=True,
        )
        interpreter = 0.0
        if self.tracer:
            samples = []
            for _ in range(5):
                start = perf_counter()
                subprocess.run([sys.executable, "-c", "pass"], env=child_env, check=True)
                samples.append(perf_counter() - start)
            interpreter = sorted(samples)[2]
        self.first_op()
        for round_index in self.rounds():
            round_start = perf_counter()
            for key in self.order(round_index, commands):
                start = self.start_op()
                proc = subprocess.run(
                    python + ["-m", "repro", *commands[key]],
                    env=child_env, cwd=env.ROOT, capture_output=True,
                )
                end = perf_counter()
                if self.tracer:
                    self._trace_cli(start, end, interpreter, proc.stderr.decode())
                latency = self.stop_op(start, end)
                ok = proc.returncode == 0 and env.digest(proc.stdout) == self.expected[key]
                self.record(key, latency, ok, f"exit {proc.returncode} or stdout digest mismatch")
            self.result["round_seconds"].append(perf_counter() - round_start)
        self.note_rss(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)

    def _trace_cli(self, start: float, end: float, interpreter: float, stderr: str) -> None:
        """Split one command's wall time into interpreter start-up, the
        three import groups ``-X importtime`` reports, and the rest."""
        import tracing

        spans = [("cli.interpreter", interpreter)]
        groups = tracing.importtime_groups(stderr)
        for group in ("repro", "numpy", "networkx"):
            spans.append((f"cli.import_{group}", groups.get(group, 0.0)))
        spans.append(("cli.command", end - start - sum(seconds for _, seconds in spans)))
        at = start
        for name, seconds in spans:
            self.tracer.add(name, at, at + seconds)
            at += seconds

    # ------------------------------------------------------------------
    # large-array
    # ------------------------------------------------------------------

    def large_array(self) -> None:
        import importlib
        import pkgutil

        import repro

        # Import every module up front, so each op's child starts with the
        # imports done and every cache empty.
        for module in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(module.name)
        from repro.sweep.spec import SweepPoint

        points = {
            wl.large_array_key(fields): SweepPoint.single(**fields)
            for fields in wl.LARGE_ARRAY_POINTS
        }
        self._install_tracer()
        self.first_op()
        sizes = []
        for round_index in self.rounds():
            round_start = perf_counter()
            for key in self.order(round_index, points):
                reply, rss = self._forked_op(points[key])
                self.note_rss(rss)
                self.record(key, reply["latency"], reply["row"] == self.expected[key],
                            reply.get("error", "row differs from expected.json"))
                sizes.append(reply["tables"])
                if self.tracer:
                    self.tracer.spans.extend(tuple(span) for span in reply["spans"])
                    self.tracer.counts.update(reply["counts"])
            self.result["round_seconds"].append(perf_counter() - round_start)
        self.check("tables_below_flush", max(sizes, default=0) <= TABLE_LIMIT, max(sizes, default=0))

    def _forked_op(self, point) -> tuple[dict, float]:
        """Run one op in a child forked from this (op-free) session."""
        self._op += 1
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: time the op, reply on the pipe, exit
            os.close(read_end)
            code = 1
            try:
                from repro.sweep import runner
                from repro.sweep.cache import shared_table_cache

                if self.tracer:  # reply with this op's spans only
                    self.tracer.spans.clear()
                    self.tracer.counts.clear()
                start = self.tracer.begin_op(self._op) if self.tracer else perf_counter()
                row = runner.evaluate_point(point).to_row()
                latency = self.stop_op(start)
                reply = {"latency": latency, "row": row, "tables": len(shared_table_cache())}
                if self.tracer:
                    reply["spans"] = self.tracer.spans
                    reply["counts"] = dict(self.tracer.counts)
                code = 0
            except Exception as error:  # reported to the session as a failed op
                reply = {"latency": 0.0, "row": None, "tables": 0, "error": repr(error)}
            finally:
                try:
                    with os.fdopen(write_end, "w") as pipe:
                        json.dump(reply, pipe)
                finally:
                    os._exit(code)
        os.close(write_end)
        with os.fdopen(read_end) as pipe:
            reply = json.load(pipe)
        _, status, usage = os.wait4(pid, 0)
        if status != 0 and "error" not in reply:
            reply["error"] = f"child exit status {status}"
        return reply, usage.ru_maxrss / 1024

    # ------------------------------------------------------------------
    # service
    # ------------------------------------------------------------------

    def service(self) -> None:
        from repro.service.client import ServiceClient

        # Client and daemon share one CPU (the daemon inherits the mask):
        # each request then wakes its peer without a cross-CPU wake-up,
        # whose cost on a shared 2-vCPU host made hit latency swing between
        # runs far more than the hit path itself.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        requests = {wl.service_key(path, body): (path, body) for path, body in wl.SERVICE_REQUESTS}
        keys = [key for key in requests for _ in range(wl.SERVICE_REPEATS)]
        self._install_tracer()
        bodies: dict[str, bytes] = {}
        rounds, retries = [], 0
        for round_index in self.rounds():
            booted = time.monotonic()
            daemon = _EmbeddedDaemon() if self.tracer else DaemonProcess()
            with daemon, ServiceClient("127.0.0.1", daemon.port, retries=1) as client:
                client.healthz()
                for path, body in wl.SERVICE_WARMUP:
                    if client.request("POST", path, body).status != 200:
                        raise RuntimeError(f"warm-up request {path} {body} failed")
                before = client.healthz()
                self.result["setups"].append(time.monotonic() - booted)
                round_start = perf_counter()
                for key in self.order(round_index, keys):
                    path, body = requests[key]
                    start = self.start_op()
                    response = client.request("POST", path, body)
                    latency = self.stop_op(start)
                    ok = response.status == 200 and env.digest(response.body) == self.expected[key]
                    self.record(key, latency, ok, f"status {response.status} or body digest mismatch")
                    if ok:
                        bodies[key] = response.body
                self.result["round_seconds"].append(perf_counter() - round_start)
                rounds.append(_round_counts(before, client.healthz()))
                retries += client.retried
            self.note_rss(daemon.peak_rss_mb)
        self.check(
            "service_rounds",
            all(
                counts["hit_ratio"] == SERVICE_HIT_RATIO
                and counts["tables"] <= TABLE_LIMIT
                and counts["evictions"] == 0
                for counts in rounds
            ),
            rounds,
        )
        self.check("client_retries", retries == 0, retries)
        self._check_partitions_against_oracle(requests, bodies)

    def _check_partitions_against_oracle(self, requests: dict, bodies: dict) -> None:
        """Outside the timed window: every distinct /partition answer (a
        request never answered correctly counts as wrong)."""
        keys = sorted(key for key, (path, _) in requests.items() if path == "/partition")
        wrong = []
        for key in keys:
            answer = json.loads(bodies[key]) if key in bodies else None
            if answer is None or reference_bytes(answer) != answer["total_communication_bytes"]:
                wrong.append(key)
        self.check("partition_oracle", bool(keys) and not wrong, {"checked": len(keys), "wrong": wrong})

    # ------------------------------------------------------------------

    def _install_tracer(self) -> None:
        if self.tracer:
            import tracing

            tracing.install(self.tracer)

    def run(self) -> dict:
        workload = self.args.workload.replace("-", "_")
        getattr(self, workload)()
        if self.tracer:
            root_layer = "service.transport" if self.args.workload == "service" else None
            self.result["trace"] = self.tracer.summary(root_layer)
            env.OUT.mkdir(exist_ok=True)
            self.tracer.write(
                str(env.OUT / f"spans-{self.args.workload}-seed{self.args.seed}-s{self.args.index}.jsonl")
            )
        return self.result


def reference_bytes(answer: dict) -> float:
    """Total bytes of a /partition answer's assignment, recomputed by
    ``HierarchicalPartitioner.evaluate_reference`` -- the object-based
    oracle, not the table-driven search that answered."""
    from repro.core.hierarchical import HierarchicalPartitioner
    from repro.core.parallelism import HierarchicalAssignment
    from repro.nn.model_zoo import get_model

    levels = answer["levels"]
    assignment = HierarchicalAssignment.of([level["assignment"] for level in levels])
    reference = HierarchicalPartitioner(num_levels=len(levels)).evaluate_reference(
        get_model(answer["model"]), assignment, answer["batch_size"]
    )
    return reference.total_communication_bytes


def _round_counts(before: dict, after: dict) -> dict:
    """Result- and table-cache counts of one round, from two ``/healthz``."""
    hits = after["result_cache"]["hits"] - before["result_cache"]["hits"]
    misses = after["result_cache"]["misses"] - before["result_cache"]["misses"]
    return {
        "hit_ratio": hits / (hits + misses),
        "table_misses": after["table_cache"]["misses"] - before["table_cache"]["misses"],
        "tables": after["table_cache"]["size"],
        "evictions": after["table_cache"]["evictions"],
    }


class DaemonProcess:
    """A ``hypar serve --port 0 --workers 1`` subprocess for one round."""

    peak_rss_mb = 0.0

    def __enter__(self) -> "DaemonProcess":
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "1"],
            env=env.child_env(), cwd=env.ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        line = self.proc.stderr.readline()
        match = re.search(r"http://[^:]+:(\d+)", line)
        if match is None:
            self.__exit__()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.port = int(match.group(1))
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            with open(f"/proc/{self.proc.pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        self.peak_rss_mb = int(line.split()[1]) / 1024
        except OSError:
            pass
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stderr.close()


class _EmbeddedDaemon:
    """The traced run's daemon: ``build_server`` on a thread of this process,
    so its calls are wrapped too.  The process-wide caches are cleared first,
    as a fresh daemon would have them."""

    peak_rss_mb = 0.0

    def __enter__(self) -> "_EmbeddedDaemon":
        from repro.service.server import build_server
        from repro.sweep.cache import clear_caches

        clear_caches()
        self.server = build_server(host="127.0.0.1", port=0, workers=1)
        self.port = self.server.port
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self.thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.server.close()
        self.thread.join(timeout=10)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--first", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    result = Session(parser.parse_args()).run()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
