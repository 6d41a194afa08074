"""Golden answers of the hierarchical partition search over a case grid.

Each case runs :meth:`HierarchicalPartitioner.partition` on a compiled
:class:`~repro.core.costs.HierarchicalCostTable` and records every level's
strategy codes (one digit per layer), the total communication as
``float.hex()`` and the change the search made to
:data:`~repro.core.costs.DAG_JUMP_STATS`.  A changed answer, tie-break,
total bit or memoization jump fails here, so the search internals (the
chain and cut-vertex dynamic programs, the repetition detectors, the
scale-state descent) can be restructured against this file.

The grid crosses the transformer depth families ``gpt_s``, ``bert_s`` and
the residual ``gpt_r`` at 8, 10, ..., 30 layers with 16 and 64
accelerators and both strategy spaces, plus the ten paper networks,
``resnet_s`` and ``inception_s`` at 16 accelerators under both spaces and
all three scaling modes.  The paper-network cases are also searched
without a compiled table (levels derived along the scale descent) and
must give the same answers.

Regenerate ``golden_searches.json`` only when a search change is
intended::

    PYTHONPATH=src python tests/core/test_search_golden.py
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest

from repro.core.costs import DAG_JUMP_STATS, HierarchicalCostTable
from repro.core.hierarchical import HierarchicalPartitioner
from repro.nn.model_zoo import MODEL_BUILDERS, get_model

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_searches.json"

BATCH_SIZE = 256
SPACES = ("dp,mp", "dp,mp,pp")
DEPTH_FAMILIES = ("gpt_s", "bert_s", "gpt_r")
DEPTHS = tuple(range(8, 31, 2))
DEPTH_LEVELS = (4, 6)  # 16 and 64 accelerators
ZOO_MODELS = tuple(MODEL_BUILDERS) + ("resnet_s", "inception_s")
SCALING_MODES = ("parallelism-aware", "uniform", "none")


def case_grid() -> list[tuple[str, int, str, str]]:
    """Every ``(model, levels, space, scaling)`` case."""
    cases = [
        (f"{family}-{depth}", levels, space, "parallelism-aware")
        for family in DEPTH_FAMILIES
        for depth in DEPTHS
        for levels in DEPTH_LEVELS
        for space in SPACES
    ]
    cases.extend(
        (model, 4, space, scaling)
        for model in ZOO_MODELS
        for space in SPACES
        for scaling in SCALING_MODES
    )
    return cases


def case_id(case: tuple) -> str:
    return "/".join(str(part) for part in case)


@functools.lru_cache(maxsize=None)
def _model(name: str):
    return get_model(name)


def fingerprint(case: tuple, *, compiled: bool = True) -> dict:
    """Per-level codes, total bits and jump-statistics delta of one search."""
    model_name, levels, space, scaling = case
    model = _model(model_name)
    partitioner = HierarchicalPartitioner(
        num_levels=levels, scaling_mode=scaling, strategies=space
    )
    table = (
        HierarchicalCostTable(
            model, BATCH_SIZE, levels, scaling_mode=scaling, strategies=space
        )
        if compiled
        else None
    )
    before = dict(DAG_JUMP_STATS)
    result = partitioner.partition(model, BATCH_SIZE, table=table)
    jumps = {key: DAG_JUMP_STATS[key] - before[key] for key in before}
    code_of = partitioner.strategies.code_of
    return {
        "codes": [
            "".join(str(code_of(choice)) for choice in level)
            for level in result.assignment
        ],
        "total": result.total_communication_bytes.hex(),
        "jumps": jumps,
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_golden_covers_exactly_the_case_grid(golden):
    assert len(case_grid()) == 144 + 72
    assert sorted(golden) == sorted(case_id(case) for case in case_grid())


@pytest.mark.parametrize("family", DEPTH_FAMILIES + ("zoo",))
def test_searches_are_unchanged(golden, family):
    cases = [
        case
        for case in case_grid()
        if case[0].rsplit("-", 1)[0] == family
        or (family == "zoo" and case[0] in ZOO_MODELS)
    ]
    assert cases
    drifted = [
        case_id(case) for case in cases if fingerprint(case) != golden[case_id(case)]
    ]
    assert not drifted, f"{len(drifted)} searches drifted: {drifted[:10]}"


def test_descent_search_without_a_table_matches(golden):
    drifted = [
        case_id(case)
        for case in case_grid()
        if case[0] in ZOO_MODELS
        and fingerprint(case, compiled=False) != golden[case_id(case)]
    ]
    assert not drifted, f"{len(drifted)} table-free searches drifted: {drifted[:10]}"


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(
            {case_id(case): fingerprint(case) for case in case_grid()},
            handle,
            indent=1,
            sort_keys=True,
        )
        handle.write("\n")
