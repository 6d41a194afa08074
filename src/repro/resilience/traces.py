"""Node-availability traces: the churn input of elastic re-planning.

A trace describes a fleet of ``num_nodes`` accelerator nodes and a time
series of membership events.  The on-disk format is JSONL, one object per
line:

* an optional *header* line (no ``"event"`` key) carrying fleet metadata::

      {"num_nodes": 16, "horizon": 3600.0, "preset": "spot", "seed": 7}

* one *event* object per subsequent line::

      {"t": 120.5, "event": "leave", "nodes": [3, 7]}
      {"t": 340.0, "event": "join", "nodes": [3]}

Events are validated on construction: timestamps non-negative and
non-decreasing, node ids inside the fleet, and the membership replay
consistent (only live nodes leave, only dead nodes join).  The synthetic
generator :func:`synthesize_trace` produces deterministic traces from a
seed for three churn archetypes -- independent spot preemption, correlated
whole-rack failure, and a periodic diurnal drain -- so goldens and the
churn study are byte-reproducible.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from typing import Iterator, Mapping, Sequence

from repro.sweep.artifacts import ensure_parent

#: Membership event kinds, in the order the format documents them.
EVENT_KINDS = ("leave", "join")

#: Synthetic churn archetypes :func:`synthesize_trace` understands.
PRESET_NAMES = ("spot", "rack", "diurnal")

#: Header keys accepted on the optional first JSONL line.
_HEADER_KEYS = ("num_nodes", "horizon", "preset", "seed")

#: Event keys; anything else on an event line is an error.
_EVENT_KEYS = ("t", "event", "nodes")


def _seconds(value) -> float:
    """``float(value)``, with an int beyond the float range as infinity."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


@dataclasses.dataclass(frozen=True)
class TraceEvent:
    """One membership change: ``nodes`` leave or join at time ``t``."""

    t: float
    event: str
    nodes: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.event not in EVENT_KINDS:
            raise ValueError(
                f"unknown trace event {self.event!r}; known: {', '.join(EVENT_KINDS)}"
            )
        if not isinstance(self.t, (int, float)) or isinstance(self.t, bool):
            raise ValueError(f"event time must be a number, got {self.t!r}")
        t = _seconds(self.t)
        if not math.isfinite(t) or t < 0:
            raise ValueError(f"event time must be finite and >= 0, got {self.t!r}")
        object.__setattr__(self, "t", t)
        nodes = tuple(self.nodes)
        if not nodes:
            raise ValueError("a trace event needs at least one node")
        for node in nodes:
            if not isinstance(node, int) or isinstance(node, bool) or node < 0:
                raise ValueError(f"node ids must be integers >= 0, got {node!r}")
        if len(set(nodes)) != len(nodes):
            raise ValueError(f"duplicate node ids in event: {sorted(nodes)}")
        object.__setattr__(self, "nodes", tuple(sorted(nodes)))

    def to_json(self) -> dict:
        return {"t": self.t, "event": self.event, "nodes": list(self.nodes)}

    @classmethod
    def from_json(cls, payload: Mapping) -> "TraceEvent":
        unknown = sorted(set(payload) - set(_EVENT_KEYS))
        if unknown:
            raise ValueError(
                f"unknown trace event keys: {', '.join(unknown)}; "
                f"known: {', '.join(_EVENT_KEYS)}"
            )
        missing = sorted(set(_EVENT_KEYS) - set(payload))
        if missing:
            raise ValueError(f"trace event missing keys: {', '.join(missing)}")
        nodes = payload["nodes"]
        if isinstance(nodes, (str, bytes)) or not isinstance(nodes, Sequence):
            raise ValueError(f"event 'nodes' must be a list, got {nodes!r}")
        return cls(t=payload["t"], event=payload["event"], nodes=tuple(nodes))


@dataclasses.dataclass(frozen=True)
class AvailabilityTrace:
    """A validated churn timeline over a fleet of ``num_nodes`` nodes.

    ``horizon`` closes the final timeline segment (defaults to the last
    event time when ``None``); ``preset``/``seed`` are provenance
    annotations written back into the JSONL header when present.
    """

    num_nodes: int
    events: tuple[TraceEvent, ...]
    horizon: float | None = None
    preset: str | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.num_nodes, int) or self.num_nodes < 1:
            raise ValueError(f"num_nodes must be an integer >= 1, got {self.num_nodes!r}")
        events = tuple(self.events)
        object.__setattr__(self, "events", events)
        if self.horizon is not None:
            horizon = _seconds(self.horizon)
            if not math.isfinite(horizon) or horizon < 0:
                raise ValueError(f"horizon must be finite and >= 0, got {self.horizon!r}")
            object.__setattr__(self, "horizon", horizon)
        previous = 0.0
        alive = set(range(self.num_nodes))
        for index, event in enumerate(events):
            if event.t < previous:
                raise ValueError(
                    f"event {index} at t={event.t} precedes t={previous}; "
                    "trace times must be non-decreasing"
                )
            previous = event.t
            out_of_range = [node for node in event.nodes if node >= self.num_nodes]
            if out_of_range:
                raise ValueError(
                    f"event {index} references nodes {out_of_range} outside "
                    f"the fleet of {self.num_nodes}"
                )
            members = set(event.nodes)
            if event.event == "leave":
                dead = sorted(members - alive)
                if dead:
                    raise ValueError(
                        f"event {index} at t={event.t}: nodes {dead} leave "
                        "but are not alive"
                    )
                alive -= members
            else:
                live = sorted(members & alive)
                if live:
                    raise ValueError(
                        f"event {index} at t={event.t}: nodes {live} join "
                        "but are already alive"
                    )
                alive |= members
        if self.horizon is not None and events and self.horizon < events[-1].t:
            raise ValueError(
                f"horizon {self.horizon} precedes the last event at t={events[-1].t}"
            )

    # ------------------------------------------------------------------
    # Replay.
    # ------------------------------------------------------------------

    @property
    def end_time(self) -> float:
        """The closing time of the timeline (horizon, else the last event)."""
        if self.horizon is not None:
            return self.horizon
        return self.events[-1].t if self.events else 0.0

    def replay(self) -> Iterator[tuple[TraceEvent, tuple[int, ...]]]:
        """Yield ``(event, alive_after)`` pairs in time order."""
        alive = set(range(self.num_nodes))
        for event in self.events:
            if event.event == "leave":
                alive -= set(event.nodes)
            else:
                alive |= set(event.nodes)
            yield event, tuple(sorted(alive))

    # ------------------------------------------------------------------
    # JSONL round trip.
    # ------------------------------------------------------------------

    def to_jsonl(self) -> str:
        """Render the trace as JSONL (header line + one line per event)."""
        header: dict = {"num_nodes": self.num_nodes}
        if self.horizon is not None:
            header["horizon"] = self.horizon
        if self.preset is not None:
            header["preset"] = self.preset
        if self.seed is not None:
            header["seed"] = self.seed
        lines = [json.dumps(header, sort_keys=True)]
        lines.extend(
            json.dumps(event.to_json(), sort_keys=True) for event in self.events
        )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str, num_nodes: int | None = None) -> "AvailabilityTrace":
        """Parse JSONL text; ``num_nodes`` is required if no header line."""
        header: dict = {}
        events: list[TraceEvent] = []
        for line_number, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(f"trace line {line_number} is not JSON: {error}") from None
            if not isinstance(payload, dict):
                raise ValueError(
                    f"trace line {line_number} must be a JSON object, got {payload!r}"
                )
            if "event" in payload:
                events.append(TraceEvent.from_json(payload))
                continue
            if events or header:
                raise ValueError(
                    f"trace line {line_number}: header must be the first line"
                )
            unknown = sorted(set(payload) - set(_HEADER_KEYS))
            if unknown:
                raise ValueError(
                    f"unknown trace header keys: {', '.join(unknown)}; "
                    f"known: {', '.join(_HEADER_KEYS)}"
                )
            header = payload
        if "num_nodes" not in header and num_nodes is None:
            raise ValueError(
                "trace has no header line; pass num_nodes= explicitly"
            )
        return cls(
            num_nodes=header.get("num_nodes", num_nodes),
            events=tuple(events),
            horizon=header.get("horizon"),
            preset=header.get("preset"),
            seed=header.get("seed"),
        )

    def save(self, path: str) -> None:
        ensure_parent(path)
        with open(path, "w") as handle:
            handle.write(self.to_jsonl())

    @classmethod
    def load(cls, path: str, num_nodes: int | None = None) -> "AvailabilityTrace":
        with open(path) as handle:
            return cls.from_jsonl(handle.read(), num_nodes=num_nodes)

    def describe(self) -> str:
        leaves = sum(1 for event in self.events if event.event == "leave")
        return (
            f"{self.num_nodes} nodes, {len(self.events)} events "
            f"({leaves} leave / {len(self.events) - leaves} join) "
            f"over {self.end_time:.3f}s"
            + (f" [{self.preset} seed={self.seed}]" if self.preset else "")
        )


# ----------------------------------------------------------------------
# Synthetic generators.
# ----------------------------------------------------------------------


def synthesize_trace(
    preset: str,
    num_nodes: int = 16,
    seed: int = 0,
    num_events: int = 12,
    horizon: float | None = None,
) -> AvailabilityTrace:
    """A deterministic synthetic churn trace for one of the presets.

    * ``spot`` -- independent spot-instance preemption: one or two nodes
      leave at random intervals, dead nodes rejoin with moderate
      probability.  At least one node always stays alive.
    * ``rack`` -- correlated failure: the fleet splits into contiguous
      racks and whole racks drop and return together; at least one rack
      always stays up.
    * ``diurnal`` -- a periodic drain: the upper half of the fleet leaves
      every "night" and rejoins every "morning", with small jitter on the
      transition times.

    All randomness comes from ``random.Random(seed)`` (an integer seed, so
    the stream is stable across processes and Python versions) and every
    timestamp is rounded to milliseconds; the same arguments always yield
    a byte-identical trace.
    """
    if preset not in PRESET_NAMES:
        raise ValueError(
            f"unknown trace preset {preset!r}; known: {', '.join(PRESET_NAMES)}"
        )
    if num_nodes < 2:
        raise ValueError(f"synthetic traces need at least 2 nodes, got {num_nodes}")
    if num_events < 1:
        raise ValueError(f"num_events must be >= 1, got {num_events}")
    rng = random.Random(seed)
    if preset == "spot":
        events = _spot_events(rng, num_nodes, num_events)
    elif preset == "rack":
        events = _rack_events(rng, num_nodes, num_events)
    else:
        events = _diurnal_events(rng, num_nodes, num_events)
    if horizon is None:
        horizon = round((events[-1].t if events else 0.0) + 300.0, 3)
    return AvailabilityTrace(
        num_nodes=num_nodes,
        events=tuple(events),
        horizon=horizon,
        preset=preset,
        seed=seed,
    )


def _spot_events(rng: random.Random, num_nodes: int, num_events: int) -> list[TraceEvent]:
    t = 0.0
    alive = set(range(num_nodes))
    events: list[TraceEvent] = []
    while len(events) < num_events:
        t = round(t + 30.0 + rng.random() * 300.0, 3)
        dead = sorted(set(range(num_nodes)) - alive)
        rejoin = bool(dead) and (rng.random() < 0.45 or len(alive) <= 1)
        if rejoin:
            count = 1 + rng.randrange(min(2, len(dead)))
            nodes = sorted(rng.sample(dead, count))
            events.append(TraceEvent(t, "join", tuple(nodes)))
            alive |= set(nodes)
        else:
            candidates = sorted(alive)
            count = 1 + rng.randrange(min(2, max(1, len(candidates) - 1)))
            count = min(count, len(candidates) - 1)
            if count < 1:
                continue
            nodes = sorted(rng.sample(candidates, count))
            events.append(TraceEvent(t, "leave", tuple(nodes)))
            alive -= set(nodes)
    return events


def _rack_events(rng: random.Random, num_nodes: int, num_events: int) -> list[TraceEvent]:
    num_racks = 4 if num_nodes >= 8 else 2
    bounds = [num_nodes * rack // num_racks for rack in range(num_racks + 1)]
    racks = {
        rack: tuple(range(bounds[rack], bounds[rack + 1]))
        for rack in range(num_racks)
        if bounds[rack] < bounds[rack + 1]
    }
    t = 0.0
    down: dict[int, tuple[int, ...]] = {}
    events: list[TraceEvent] = []
    while len(events) < num_events:
        t = round(t + 60.0 + rng.random() * 600.0, 3)
        up = [rack for rack in sorted(racks) if rack not in down]
        recover = bool(down) and (rng.random() < 0.5 or len(up) <= 1)
        if recover:
            rack = sorted(down)[rng.randrange(len(down))]
            events.append(TraceEvent(t, "join", down.pop(rack)))
        else:
            rack = up[rng.randrange(len(up))]
            down[rack] = racks[rack]
            events.append(TraceEvent(t, "leave", racks[rack]))
    return events


def _diurnal_events(
    rng: random.Random, num_nodes: int, num_events: int
) -> list[TraceEvent]:
    period = 720.0
    drained = tuple(range(num_nodes // 2, num_nodes))
    events: list[TraceEvent] = []
    cycle = 0
    while len(events) < num_events:
        night = round(cycle * period + period / 2 + rng.random() * 30.0, 3)
        events.append(TraceEvent(night, "leave", drained))
        if len(events) >= num_events:
            break
        morning = round((cycle + 1) * period + rng.random() * 30.0, 3)
        events.append(TraceEvent(morning, "join", drained))
        cycle += 1
    return events
