"""The three workloads: their ops, their order and their run plan.

Shared by ``run.py`` (the orchestrator), ``session.py`` (the process that
times a workload), ``pin.py`` (which regenerates ``expected.json``) and
``selftest.py``.  Nothing here imports ``repro``: the cold-cli session
must not pay for it.

Every workload is a fixed *round* of ops.  A run measures whole rounds,
so every op of a round is timed the same number of times under any seed;
the seed only permutes the order of the ops inside each round.  Each
round is built so that its cache hits, compiles and flushes are the same
under every order (see the notes on each workload below).
"""

from __future__ import annotations

import dataclasses
import json
import random

#: The paper's ten evaluation networks (``repro.sweep.spec.PAPER_MODELS``).
PAPER_MODELS = (
    "SFC",
    "SCONV",
    "Lenet-c",
    "Cifar-c",
    "AlexNet",
    "VGG-A",
    "VGG-B",
    "VGG-C",
    "VGG-D",
    "VGG-E",
)

# cold-cli: one cold ``python -m repro <cmd>`` process per op.
COLD_CLI_COMMANDS = (
    ("partition", "VGG-E"),
    ("simulate", "VGG-A"),
    ("simulate", "VGG-A", "--sim-engine", "network", "--topology", "torus"),
    ("sweep", "smoke"),
)

# large-array: one VGG-A grid point per op, each in a fresh child process.
# Run by hand only: on the 2-vCPU reference host its runs of the same code
# spread by a quarter of their median, so BENCHMARK.json does not list it.
# Five of the eight points of {512, 1024} x {htree, torus} x {analytic,
# network}, which still cover both sizes, topologies and engines.  An odd
# number of points, each timed equally often and far apart in cost, puts the
# median on the middle sample of one point (the third cheapest), not halfway
# across the gap between two points.  4096 accelerators is left out: one such
# point costs tens of seconds.
LARGE_ARRAY_POINTS = tuple(
    {"model": "VGG-A", "num_accelerators": n, "topology": topology, "sim_engine": engine}
    for n, topology, engine in (
        (512, "torus", "analytic"),
        (512, "htree", "network"),
        (1024, "torus", "analytic"),
        (1024, "torus", "network"),
        (1024, "htree", "network"),
    )
)


def _service_requests() -> tuple[tuple[str, dict], ...]:
    """The distinct ``/partition`` and ``/simulate`` requests of a round.

    Every deep model is requested at exactly one array size (depths 8, 12,
    ... at 16 accelerators, 10, 14, ... at 64), so its model build always
    lands on the same miss.  The two engines of a paper model simulate
    different batch sizes, so neither borrows the other's cost table.
    That makes each request's miss work independent of order.  Cost tables
    per daemon: 36 + 20 + 1 warm-up = 57, below the flush at 64.
    """
    requests = []
    for family in ("gpt_s", "bert_s", "gpt_r"):
        for depth in range(8, 31, 2):
            size = 16 if depth % 4 == 0 else 64
            requests.append(
                ("/partition", {"model": f"{family}-{depth}", "num_accelerators": size})
            )
    for model in PAPER_MODELS:
        requests.append(("/simulate", {"model": model, "num_accelerators": 16}))
        requests.append(
            (
                "/simulate",
                {"model": model, "num_accelerators": 16, "batch_size": 128, "sim_engine": "network"},
            )
        )
    return tuple(requests)


SERVICE_REQUESTS = _service_requests()
#: Sends of each distinct request per round: 3 of every 4 are cache hits.
SERVICE_REPEATS = 4
#: Untimed first requests after boot.  They build the 16-accelerator
#: simulators of both engines and the 16-accelerator partitioner on a
#: model outside the round (one extra cost table).
SERVICE_WARMUP = (
    ("/partition", {"model": "gpt_s-4", "num_accelerators": 16}),
    ("/simulate", {"model": "gpt_s-4", "num_accelerators": 16}),
    ("/simulate", {"model": "gpt_s-4", "num_accelerators": 16, "sim_engine": "network"}),
)


def service_key(path: str, payload: dict) -> str:
    return f"{path} {json.dumps(payload, sort_keys=True)}"


def large_array_key(point: dict) -> str:
    return "VGG-A/n{num_accelerators}/{topology}/{sim_engine}".format(**point)


@dataclasses.dataclass(frozen=True)
class Plan:
    """How a run of one workload is laid out.

    ``round_seconds`` is the wall time of one round on the reference
    machine (2 vCPUs, see README.md), daemon boots included for the service.
    A run measures ``round(seconds / round_seconds)`` rounds (at least
    ``min_rounds``), so the op count -- and with it the sample each
    percentile lands on -- does not depend on how fast the host is.  The
    rounds are split over ``sessions`` fresh session processes; each
    session's set-up is one ``setup_s`` sample, and sessions left without a
    round only set up.
    """

    sessions: int
    round_seconds: float
    min_rounds: int = 1

    def split(self, seconds: float) -> list[tuple[int, int]]:
        """``(first round, round count)`` of each session."""
        total = max(self.min_rounds, round(seconds / self.round_seconds))
        base, extra = divmod(total, self.sessions)
        spans, start = [], 0
        for index in range(self.sessions):
            count = base + (1 if index < extra else 0)
            spans.append((start, count))
            start += count
        return spans


PLANS = {
    "cold-cli": Plan(sessions=3, round_seconds=2.3),
    # Three rounds (at up to 45 s) put the median on the middle sample of the
    # middle point and the tail (10 samples beyond) on the middle sample of
    # the second; set-up is only imports, so a fourth session just sets up.
    "large-array": Plan(sessions=4, round_seconds=13.0, min_rounds=3),
    # Every service round boots its own daemon: one set-up sample per round.
    "service": Plan(sessions=1, round_seconds=2.2),
}

WORKLOADS = tuple(PLANS)


def round_order(workload: str, seed: int, round_index: int, ops: list) -> list:
    """The ops of one round in the order the seed gives them."""
    ordered = list(ops)
    random.Random(f"{workload}/{seed}/{round_index}").shuffle(ordered)
    return ordered
