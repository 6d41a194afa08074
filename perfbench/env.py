"""Paths, the child-process environment and the host-drift probe."""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Span files of traced runs (listed in the repository's .gitignore).
OUT = ROOT / ".bench_out"
EXPECTED = HERE / "expected.json"

#: One BLAS thread and a fixed hash seed in every process that does work,
#: so the two vCPUs are not shared between a measured process's threads and
#: dict/set iteration orders repeat.
STEADY_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(STEADY_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def load_expected() -> dict:
    with open(EXPECTED) as handle:
        return json.load(handle)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def host_probe() -> float:
    """Milliseconds of a fixed pure-Python plus NumPy loop.

    Diagnostic only: it moves when the host does, not when the program
    does, so a shift between two sets of runs shows host drift.
    """
    import numpy as np

    start = perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    matrix = np.arange(256 * 256, dtype=np.float64).reshape(256, 256) / 65536.0
    for _ in range(20):
        matrix @ matrix
    return (perf_counter() - start) * 1e3
