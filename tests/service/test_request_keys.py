"""Golden cache keys of every request schema.

Each case is one ``(path, payload)`` a client could send.  The golden file
records the request's :meth:`~repro.service.schemas.ServiceRequest.canonical_payload`
(values *and* key order), :meth:`~repro.service.schemas.ServiceRequest.cache_key`
and :meth:`~repro.service.schemas.ServiceRequest.coalesce_key`.  A cache
key is the identity of a cached response across processes and restarts,
so the schema internals (canonicalization memos, payload construction)
can be restructured against this file, and any drift fails here.

The cases cover ``/partition``, ``/simulate``, ``/sweep`` and ``/replan``:
model aliases and case/separator variants, zero-padded depth suffixes,
omitted versus explicit defaults, the omitted analytic ``sim_engine``,
profiled cost models, and preset versus inline traces.

Regenerate ``golden_request_keys.json`` only when a key change is
intended::

    PYTHONPATH=src python tests/service/test_request_keys.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.service.schemas import (
    PartitionRequest,
    ReplanRequest,
    SimulateRequest,
    SweepRequest,
)

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_request_keys.json"

SCHEMAS = {
    "/partition": PartitionRequest,
    "/simulate": SimulateRequest,
    "/sweep": SweepRequest,
    "/replan": ReplanRequest,
}

#: Every spelling of one model the schemas must fold together.
MODEL_SPELLINGS = (
    "VGG-A", "vgg_a", "VGG_A", "vgga", " vgg11 ", "VGG-D", "vgg16", "vgg_d",
    "lenet", "Lenet-c", "LENET_C", "cifar", "SFC", "sconv", "AlexNet",
    "resnet", "ResNet-S", "resnet_s", "inception", "Inception-S",
    "gpt_s", "gpt_s-30", "gpt_s-030", "GPT_S-30", "gpts30", "gpt-s-30",
    "bert_s-12", "BERT_S_012", "gpt_r-8", "gpt_r-08", "gptr8",
)

SPOT_TRACE = {"preset": "spot", "seed": 7, "num_events": 6, "num_nodes": 16}


def _spot_events() -> tuple[list, float]:
    from repro.resilience.traces import synthesize_trace

    trace = synthesize_trace("spot", num_nodes=16, seed=7, num_events=6)
    return [event.to_json() for event in trace.events], trace.horizon


def case_list() -> list[tuple[str, dict]]:
    """Every ``(path, payload)`` case, in golden-file order."""
    cases: list[tuple[str, dict]] = []
    for name in MODEL_SPELLINGS:
        cases.append(("/partition", {"model": name}))
        cases.append(("/simulate", {"model": name}))
    partition_variants = (
        {"model": "VGG-A", "batch_size": 256, "num_accelerators": 16,
         "scaling_mode": "parallelism-aware", "strategies": "dp,mp",
         "backend": "numpy", "cost_model": "analytic"},
        {"num_accelerators": 16, "model": "vgg_a", "batch_size": 256,
         "scaling_mode": "PARALLELISM_AWARE"},
        {"model": "Lenet-c", "batch_size": 64, "num_accelerators": 4},
        {"model": "Lenet-c", "batch_size": 64, "num_accelerators": 2},
        {"model": "VGG-E", "num_accelerators": 64, "batch_size": 128},
        {"model": "VGG-A", "scaling_mode": "uniform"},
        {"model": "VGG-A", "scaling_mode": " None "},
        {"model": "VGG-A", "scaling_mode": "Parallelism_Aware"},
        {"model": "VGG-A", "strategies": "dp,mp,pp"},
        {"model": "VGG-A", "strategies": " DP , mp "},
        {"model": "VGG-A", "strategies": "data,model,pipeline"},
        {"model": "VGG-A", "strategies": "pp,dp"},
        {"model": "VGG-A", "strategies": "mp"},
        {"model": "VGG-A", "strategies": "dp,,mp,"},
        {"model": "VGG-A", "cost_model": "profiled:fp16-precision"},
        {"model": "VGG-A", "cost_model": " profiled: slow-interconnect "},
        {"model": "VGG-A", "cost_model": "analytic "},
        {"model": "VGG-A", "cost_model": ""},
        {"model": "gpt_s-8", "num_accelerators": 16},
        {"model": "gpt_r-30", "num_accelerators": 64},
        {"model": "bert_s-10", "num_accelerators": 64, "strategies": "dp,mp,pp"},
    )
    cases.extend(("/partition", payload) for payload in partition_variants)
    simulate_variants = (
        {"model": "SFC", "sim_engine": "analytic"},
        {"model": "SFC", "sim_engine": " ANALYTIC "},
        {"model": "SFC", "sim_engine": "network"},
        {"model": "SFC", "sim_engine": "Network"},
        {"model": "SFC", "topology": "Torus"},
        {"model": "SFC", "topology": " htree "},
        {"model": "SFC", "num_accelerators": 1},
        {"model": "VGG-A", "batch_size": 256, "num_accelerators": 16,
         "topology": "htree", "scaling_mode": "parallelism-aware",
         "strategies": "dp,mp", "cost_model": "analytic",
         "sim_engine": "analytic"},
        {"model": "VGG-A", "num_accelerators": 16, "batch_size": 128,
         "sim_engine": "network"},
        {"model": "VGG-A", "cost_model": "profiled:congested-fabric",
         "sim_engine": "network", "topology": "torus"},
        {"model": "VGG-A", "cost_model": "profiled:hetero-accelerators"},
        {"model": "Lenet-c", "scaling_mode": "uniform", "strategies": "dp,mp,pp"},
        {"model": "gpt_s-4", "num_accelerators": 16, "sim_engine": "network"},
    )
    cases.extend(("/simulate", payload) for payload in simulate_variants)
    sweep_variants = (
        {"preset": "smoke"},
        {"preset": "fig6"},
        {"preset": "fig12"},
        {"preset": "batch"},
        {"spec": {"name": "tiny", "models": ["SFC"], "batch_sizes": [64],
                  "array_sizes": [4]}},
        {"spec": {"name": "mine", "models": ["vgg_a", "lenet"],
                  "scaling_modes": ["UNIFORM"], "strategy_spaces": [" DP,mp,PP "]}},
        {"spec": {"name": "mine", "models": ["VGG-A", "Lenet-c"],
                  "scaling_modes": ["uniform"], "strategy_spaces": ["dp,mp,pp"]}},
        {"spec": {"name": "costs", "models": ["SFC"],
                  "cost_models": ["analytic", "profiled:fp16-precision"]}},
    )
    cases.extend(("/sweep", payload) for payload in sweep_variants)
    events, horizon = _spot_events()
    replan_variants = (
        {"model": "Lenet-c", **SPOT_TRACE, "batch_size": 64},
        {"model": "lenet", **SPOT_TRACE, "batch_size": 64, "policy": "every-event"},
        {"model": "Lenet-c", "trace": events, "num_nodes": 16,
         "horizon": horizon, "batch_size": 64},
        {"model": "Lenet-c", **SPOT_TRACE, "policy": "hysteresis",
         "horizon_steps": 200},
        {"model": "VGG-A", "preset": "rack", "num_nodes": 8},
        {"model": "VGG-A", "preset": "diurnal", "seed": 3, "num_nodes": 32,
         "horizon": 90000.5, "topology": "Torus", "scaling_mode": "UNIFORM",
         "strategies": "dp,mp,pp", "cost_model": "profiled:fp16-precision"},
        {"model": "SFC", "trace": [], "num_nodes": 4},
    )
    cases.extend(("/replan", payload) for payload in replan_variants)
    return cases


def fingerprint(path: str, payload: dict) -> dict:
    """The canonical payload (as JSON text, key order kept) and both keys."""
    request = SCHEMAS[path].from_payload(payload)
    return {
        "canonical": json.dumps(request.canonical_payload()),
        "cache_key": request.cache_key(),
        "coalesce_key": json.dumps(list(request.coalesce_key())),
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_golden_covers_exactly_the_case_list(golden):
    assert [[path, payload] for path, payload in case_list()] == [
        [entry["path"], entry["payload"]] for entry in golden
    ]


@pytest.mark.parametrize("path", sorted(SCHEMAS))
def test_request_keys_are_unchanged(golden, path):
    entries = [entry for entry in golden if entry["path"] == path]
    assert entries
    drifted = [
        entry["payload"]
        for entry in entries
        if fingerprint(path, entry["payload"]) != entry["expected"]
    ]
    assert not drifted, f"{len(drifted)} {path} keys drifted: {drifted[:5]}"


def test_equivalent_spellings_share_one_key(golden):
    """A sanity check of the golden itself: the spellings fold together."""
    keys = {
        entry["payload"]["model"]: entry["expected"]["cache_key"]
        for entry in golden
        if entry["path"] == "/partition" and list(entry["payload"]) == ["model"]
    }
    assert keys["vgg_a"] == keys["VGG-A"] == keys[" vgg11 "] == keys["vgga"]
    assert keys["gpt_s-030"] == keys["gpt_s-30"] == keys["gpts30"] == keys["GPT_S-30"]
    assert keys["gpt_s"] != keys["gpt_s-30"]


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(
            [
                {"path": path, "payload": payload, "expected": fingerprint(path, payload)}
                for path, payload in case_list()
            ],
            handle,
            indent=1,
        )
        handle.write("\n")
