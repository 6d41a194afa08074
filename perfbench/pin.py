"""Regenerate ``expected.json``: the pinned output of every distinct op.

    python3 perfbench/pin.py

* cold-cli: the SHA-256 of each command's standard output;
* large-array: each point's ``SweepRecord.to_row()``,
  floats included, so simulated statistics must repeat exactly;
* service: the SHA-256 of each distinct response body.  Every
  ``/partition`` answer's ``total_communication_bytes`` is first checked
  against ``HierarchicalPartitioner.evaluate_reference``, the object-based
  oracle, so the pins do not rest only on the code they check.

Re-pin only for a change that is meant to alter outputs, and say so.
"""

from __future__ import annotations

import json
import subprocess
import sys

import env
import workloads as wl

sys.path.insert(0, str(env.SRC))


def cold_cli() -> dict:
    pinned = {}
    for command in wl.COLD_CLI_COMMANDS:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *command],
            env=env.child_env(), cwd=env.ROOT, capture_output=True, check=True,
        )
        pinned[" ".join(command)] = env.digest(proc.stdout)
    return pinned


def large_array() -> dict:
    from repro.sweep.cache import clear_caches
    from repro.sweep.runner import evaluate_point
    from repro.sweep.spec import SweepPoint

    pinned = {}
    for fields in wl.LARGE_ARRAY_POINTS:
        clear_caches()
        pinned[wl.large_array_key(fields)] = evaluate_point(SweepPoint.single(**fields)).to_row()
    return pinned


def service() -> dict:
    from repro.service.client import ServiceClient
    from session import DaemonProcess, reference_bytes

    pinned = {}
    with DaemonProcess() as daemon, ServiceClient("127.0.0.1", daemon.port, retries=1) as client:
        for path, body in wl.SERVICE_WARMUP + wl.SERVICE_REQUESTS:
            response = client.request("POST", path, body)
            if response.status != 200:
                raise SystemExit(f"{path} {body}: status {response.status}")
            if (path, body) in wl.SERVICE_WARMUP:
                continue
            answer = response.json()
            if path == "/partition" and reference_bytes(answer) != answer["total_communication_bytes"]:
                raise SystemExit(f"{path} {body}: search disagrees with the oracle")
            pinned[wl.service_key(path, body)] = env.digest(response.body)
        tables = client.healthz()["table_cache"]
        if tables["evictions"] or tables["size"] > 63:
            raise SystemExit(f"the service round flushes its table cache: {tables}")
    return pinned


def main() -> int:
    expected = {
        "cold-cli": cold_cli(),
        "large-array": large_array(),
        "service": service(),
    }
    with open(env.EXPECTED, "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {env.EXPECTED.name}: " + ", ".join(f"{k} {len(v)}" for k, v in expected.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
