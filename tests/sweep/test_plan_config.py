"""One platform configuration, one spelling rule on every surface.

:class:`~repro.sweep.spec.PlanConfig` owns the defaults and the canonical
spellings of the seven platform fields.  Each spelling the service
accepts (pinned in ``tests/service/golden_request_keys.json``) goes
through every surface that takes its field -- the request schemas,
``SweepPoint.single``, ``SweepSpec(...).points()``, ``ReplanConfig`` and
the CLI parser -- and every one of them folds it to the same value.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import threading
from pathlib import Path

import pytest

from repro.accelerator.array import ArrayConfig
from repro.cli import build_parser
from repro.core.costmodel import resolve_cost_model
from repro.core.tensors import ScalingMode
from repro.resilience.replan import ReplanConfig
from repro.service.schemas import (
    PartitionRequest,
    ReplanRequest,
    SimulateRequest,
    SweepRequest,
)
from repro.sweep.cache import cached_simulator
from repro.sweep.spec import AXES, PLAN_FIELDS, PlanConfig, SweepPoint, SweepSpec, memoized

GOLDEN_KEYS = Path(__file__).resolve().parents[1] / "service" / "golden_request_keys.json"

#: ``(field, spelling, canonical value)``.
SPELLINGS = (
    ("scaling_mode", " None ", "none"),
    ("scaling_mode", "Parallelism_Aware", "parallelism-aware"),
    ("strategies", " DP , mp ", "dp,mp"),
    ("strategies", "data,model,pipeline", "dp,mp,pp"),
    ("topology", "Torus", "torus"),
    ("topology", " htree ", "htree"),
    ("sim_engine", " ANALYTIC ", "analytic"),
    ("sim_engine", "Network", "network"),
    ("cost_model", " profiled: slow-interconnect ", "profiled:slow-interconnect"),
)

#: Positional arguments a command needs before its options parse.
_POSITIONALS = dict.fromkeys(("partition", "placement", "trace", "simulate"), ["Lenet-c"])


def _schema_values(field: str, spelling: str) -> dict:
    """The canonical value each request schema taking ``field`` stores."""
    payload = {"model": "Lenet-c", field: spelling}
    values = {}
    for path, schema in (("/partition", PartitionRequest), ("/simulate", SimulateRequest)):
        if field in schema._FIELDS:
            values[path] = getattr(schema.from_payload(payload), field)
    if field in ReplanRequest._FIELDS:
        request = ReplanRequest.from_payload({**payload, "trace": [], "num_nodes": 4})
        values["/replan"] = request.canonical_payload()[field]
    axis = dict((field, axis) for axis, field in AXES)[field]
    spec = {"name": "x", "models": ["Lenet-c"], axis: [spelling]}
    values["/sweep"] = SweepRequest.from_payload({"spec": spec}).spec[axis][0]
    return values


def _cli_values(field: str, spelling: str) -> dict:
    """The value every CLI command with an option for ``field`` parses to."""
    parser = build_parser()
    (commands,) = (
        action for action in parser._actions if isinstance(action, argparse._SubParsersAction)
    )
    values = {}
    for command, subparser in commands.choices.items():
        for action in subparser._actions:
            if action.dest == field:
                argv = [command, *_POSITIONALS.get(command, []), action.option_strings[0]]
                args = parser.parse_args([*argv, spelling])
                values[" ".join(argv)] = getattr(args, field)
    return values


def test_the_spellings_are_ones_the_service_pins():
    payloads = [entry["payload"] for entry in json.loads(GOLDEN_KEYS.read_text())]
    for field, spelling, _ in SPELLINGS:
        assert any(payload.get(field) == spelling for payload in payloads), spelling


@pytest.mark.parametrize("field, spelling, canonical", SPELLINGS, ids=lambda v: repr(v))
def test_every_surface_folds_a_spelling_to_one_value(field, spelling, canonical):
    values = {
        **_schema_values(field, spelling),
        "SweepPoint.single": getattr(SweepPoint.single("Lenet-c", **{field: spelling}), field),
        "PlanConfig": getattr(PlanConfig(**{field: spelling}), field),
    }
    axis = dict((field, axis) for axis, field in AXES)[field]
    (point,) = SweepSpec(name="x", models=("Lenet-c",), **{axis: (spelling,)}).points()
    values["SweepSpec.points"] = getattr(point, field)
    if field in {f.name for f in dataclasses.fields(ReplanConfig)}:
        values["ReplanConfig"] = getattr(ReplanConfig(**{field: spelling}), field)
    cli = _cli_values(field, spelling)
    assert cli, f"no CLI command takes {field}"
    values.update(cli)
    assert values == dict.fromkeys(values, canonical)


def test_defaults_are_the_paper_platform():
    assert dataclasses.astuple(PlanConfig()) == (
        256, 16, "htree", "parallelism-aware", "dp,mp", "analytic", "analytic"
    )
    assert tuple(field.name for field in dataclasses.fields(PlanConfig)) == PLAN_FIELDS
    assert SweepPoint(model="Lenet-c") == SweepPoint.single("Lenet-c")
    assert SweepPoint(model="Lenet-c").index == 0


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"batch_size": 0}, "batch_size must be positive, got 0"),
        ({"num_accelerators": 0}, "num_accelerators must be positive, got 0"),
        ({"num_accelerators": 12}, "num_accelerators must be a power of two, got 12"),
        ({"topology": "mesh"}, "unknown topology 'mesh'; known: htree, torus"),
        ({"scaling_mode": "magic"}, "unknown scaling mode 'magic'"),
        ({"strategies": "dp,zz"}, "cannot parse parallelism from 'zz'"),
        ({"cost_model": "empirical"}, "cost model must be 'analytic' or 'profiled:"),
        ({"sim_engine": "psychic"}, "unknown sim engine 'psychic'"),
    ],
)
def test_a_bad_value_is_refused_naming_its_field(fields, message):
    with pytest.raises(ValueError, match=message):
        PlanConfig(**fields)


def test_simulator_is_the_cached_simulator_of_the_platform():
    plan = PlanConfig(
        batch_size=64,
        num_accelerators=4,
        topology=" Torus ",
        scaling_mode="UNIFORM",
        strategies="data,model,pipeline",
        cost_model=" profiled: slow-interconnect ",
        sim_engine="Network",
    )
    assert plan.simulator() is cached_simulator(
        ArrayConfig(num_accelerators=4),
        "torus",
        scaling_mode=ScalingMode.UNIFORM,
        strategies="dp,mp,pp",
        communication_model=resolve_cost_model(
            "profiled:slow-interconnect"
        ).communication_model(),
        sim_engine="network",
    )
    assert PlanConfig().simulator() is cached_simulator(ArrayConfig())
    # The batch size is not part of the platform's simulator.
    assert PlanConfig(batch_size=64).simulator() is PlanConfig().simulator()


def test_the_spelling_memo_stays_bounded_under_threads():
    """Service threads share each memo: eight threads (more than cores)
    canonicalizing 600 spellings never grow it past 256 entries."""

    @memoized
    def upper(text: str) -> str:
        return text.upper()

    spellings = [f"spelling-{index}" for index in range(600)]
    failures = []

    def work(offset: int) -> None:
        for step in range(3000):
            text = spellings[(offset * 37 + step) % len(spellings)]
            if upper(text) != text.upper() or len(upper.memo) > 256:
                failures.append((text, len(upper.memo)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(offset,)) for offset in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures
    assert 0 < len(upper.memo) <= 256
    # Long and non-string values are never memoized.
    assert upper("x" * 65) == "X" * 65 and "x" * 65 not in upper.memo
