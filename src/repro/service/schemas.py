"""Request schemas and canonicalization for the ``hypar serve`` daemon.

Every POST endpoint validates its JSON body against a small frozen
dataclass here.  Validation is strict (unknown fields are rejected with a
message naming the known ones) and canonicalizing: model names resolve to
their canonical zoo spelling, scaling modes and strategy spaces to their
canonical short forms, and missing fields fill with the paper's defaults.
Two payloads describing the same work -- fields reordered, aliases used,
defaults spelled out or omitted -- therefore canonicalize to *equal*
requests and hash to the same cache key.

The cache key itself is :meth:`ServiceRequest.cache_key`: the SHA-256 of
the endpoint kind plus the canonical payload serialized with sorted keys
and fixed separators, so it is deterministic across processes and
restarts.

A warm request spends most of its in-process time here, so the flat
schemas (``/partition``, ``/simulate``) build their canonical payload
from their fields directly, scaling modes and strategy spaces are
canonicalized through bounded memos, and model names resolve through a
lookup table memoized on the zoo's current names.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from typing import Mapping

from repro.core import kernels
from repro.core.costmodel import ANALYTIC_SPEC, canonical_cost_model, shipped_profiles
from repro.core.hierarchical import DEFAULT_BATCH_SIZE
from repro.core.parallelism import StrategySpace
from repro.core.tensors import ScalingMode
from repro.nn.model_zoo import canonical_model_name
from repro.sim.backend import DEFAULT_SIM_ENGINE, validate_sim_engine
from repro.sweep.spec import PRESETS, TOPOLOGY_NAMES, SweepSpec

#: Default array size (the paper's sixteen-accelerator platform).
DEFAULT_NUM_ACCELERATORS = 16


class SchemaError(ValueError):
    """A request payload failed validation; the message is user-facing."""


def _require_mapping(payload, what: str) -> Mapping:
    if not isinstance(payload, Mapping):
        raise SchemaError(
            f"{what} must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def _reject_unknown(payload: Mapping, known: tuple[str, ...], what: str) -> None:
    unknown = sorted(set(payload) - set(known))
    if unknown:
        raise SchemaError(
            f"unknown {what} field(s): {', '.join(unknown)}; "
            f"known fields: {', '.join(known)}"
        )


def _int_field(payload: Mapping, name: str, default: int) -> int:
    value = payload.get(name, default)
    # bool is an int subclass; "batch_size": true must not pass as 1.
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"field {name!r} must be an integer, got {value!r}")
    return value


def _str_field(payload: Mapping, name: str, default: str) -> str:
    value = payload.get(name, default)
    if not isinstance(value, str):
        raise SchemaError(f"field {name!r} must be a string, got {value!r}")
    return value


def _canonical_model(payload: Mapping) -> str:
    if "model" not in payload:
        raise SchemaError("field 'model' is required (e.g. \"VGG-A\")")
    name = payload["model"]
    if not isinstance(name, str):
        raise SchemaError(f"field 'model' must be a string, got {name!r}")
    try:
        return canonical_model_name(name)
    except KeyError as error:
        raise SchemaError(str(error.args[0])) from None


def _canonical_batch(payload: Mapping) -> int:
    batch = _int_field(payload, "batch_size", DEFAULT_BATCH_SIZE)
    if batch <= 0:
        raise SchemaError(f"field 'batch_size' must be positive, got {batch}")
    return batch


def _canonical_accelerators(payload: Mapping, minimum: int) -> int:
    count = _int_field(payload, "num_accelerators", DEFAULT_NUM_ACCELERATORS)
    if count < minimum or count & (count - 1):
        raise SchemaError(
            f"field 'num_accelerators' must be a power of two >= {minimum}, "
            f"got {count}"
        )
    return count


def _memoized(canonicalize):
    """``canonicalize`` behind a memo of the spellings clients send.

    The memo is bounded in both directions: at most 256 spellings, and
    only those of at most 64 characters (longer, padded ones are parsed
    afresh).  A spelling that raises is never memoized.
    """
    memo = functools.lru_cache(maxsize=256)(canonicalize)

    @functools.wraps(canonicalize)
    def canonical(text: str) -> str:
        return memo(text) if len(text) <= 64 else canonicalize(text)

    return canonical


@_memoized
def _scaling_value(text: str) -> str:
    return ScalingMode.parse(text).value


@_memoized
def _space_value(text: str) -> str:
    return StrategySpace.parse(text).describe()


def _canonical_scaling(payload: Mapping) -> str:
    text = _str_field(payload, "scaling_mode", ScalingMode.PARALLELISM_AWARE.value)
    try:
        return _scaling_value(text)
    except ValueError as error:
        raise SchemaError(str(error)) from None


def _canonical_strategies(payload: Mapping) -> str:
    text = _str_field(payload, "strategies", "dp,mp")
    try:
        return _space_value(text)
    except ValueError as error:
        raise SchemaError(str(error)) from None


def _canonical_backend(payload: Mapping) -> str:
    # The daemon's canonical default is the concrete "numpy", not the
    # process default, so request hashes cannot drift with server flags.
    text = _str_field(payload, "backend", "numpy")
    try:
        kernels.validate_backend(text)
    except ValueError as error:
        raise SchemaError(str(error)) from None
    return text


def _canonical_cost_model_spec(text: str) -> str:
    """Canonicalize one cost-model spec string, shipped packs only.

    The daemon never opens caller-named files: a profiled spec must name a
    pack shipped under ``repro/core/profiles`` (the CLI may pass paths,
    the service may not).
    """
    try:
        spec = canonical_cost_model(text)
    except ValueError as error:
        raise SchemaError(str(error)) from None
    if spec != ANALYTIC_SPEC:
        pack = spec.split(":", 1)[1]
        shipped = shipped_profiles()
        if pack not in shipped:
            raise SchemaError(
                f"unknown profile pack {pack!r}; shipped packs: "
                f"{', '.join(sorted(shipped))}"
            )
    return spec


def _canonical_cost_model(payload: Mapping) -> str:
    return _canonical_cost_model_spec(
        _str_field(payload, "cost_model", ANALYTIC_SPEC)
    )


def _canonical_sim_engine(payload: Mapping) -> str:
    text = _str_field(payload, "sim_engine", DEFAULT_SIM_ENGINE)
    try:
        return validate_sim_engine(text.strip().lower())
    except ValueError as error:
        raise SchemaError(str(error)) from None


def _canonical_topology(payload: Mapping) -> str:
    name = _str_field(payload, "topology", "htree").strip().lower()
    if name not in TOPOLOGY_NAMES:
        raise SchemaError(
            f"unknown topology {name!r}; known: {', '.join(TOPOLOGY_NAMES)}"
        )
    return name


class ServiceRequest:
    """Canonical-payload and cache-key behaviour shared by every schema."""

    #: Endpoint kind mixed into the cache key ("partition", ...).
    kind = ""

    def canonical_payload(self) -> dict:
        """The canonicalized request as a JSON-ready dict."""
        return dataclasses.asdict(self)  # type: ignore[call-overload]

    def cache_key(self) -> str:
        """Deterministic hash identifying this request across processes."""
        rendered = json.dumps(
            {"kind": self.kind, **self.canonical_payload()},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(rendered.encode()).hexdigest()

    def coalesce_key(self) -> tuple:
        """The key *different* requests sharing heavy state serialize on.

        ``/partition`` and ``/simulate`` requests for the same
        (model, batch, array, scaling, strategies) configuration need the
        same compiled cost table; computing them concurrently would
        compile it twice (the response cache only single-flights
        byte-identical requests).  The default is per-request (no
        cross-request coalescing).
        """
        return (self.kind, self.cache_key())


class _FlatRequest(ServiceRequest):
    """A schema whose fields are all ``str`` or ``int``, listed in
    ``_FIELDS`` in declaration order.

    Its canonical payload is a flat copy of the fields: the dict
    ``dataclasses.asdict`` returns, without its deep-copy walk.
    """

    def canonical_payload(self) -> dict:
        return {name: getattr(self, name) for name in self._FIELDS}


@dataclasses.dataclass(frozen=True)
class PartitionRequest(_FlatRequest):
    """``POST /partition``: search HyPar's assignment for one network."""

    model: str
    batch_size: int = DEFAULT_BATCH_SIZE
    num_accelerators: int = DEFAULT_NUM_ACCELERATORS
    scaling_mode: str = ScalingMode.PARALLELISM_AWARE.value
    strategies: str = "dp,mp"
    backend: str = "numpy"
    cost_model: str = ANALYTIC_SPEC

    kind = "partition"
    _FIELDS = (
        "model",
        "batch_size",
        "num_accelerators",
        "scaling_mode",
        "strategies",
        "backend",
        "cost_model",
    )

    def coalesce_key(self) -> tuple:
        # Shared with /simulate: same table-relevant configuration.  The
        # backend is part of the table cache key, so it serializes too.
        return (
            "table",
            self.model,
            self.batch_size,
            self.num_accelerators,
            self.scaling_mode,
            self.strategies,
            self.backend,
            self.cost_model,
        )

    @classmethod
    def from_payload(cls, payload) -> "PartitionRequest":
        payload = _require_mapping(payload, "a /partition request")
        _reject_unknown(payload, cls._FIELDS, "/partition")
        return cls(
            model=_canonical_model(payload),
            batch_size=_canonical_batch(payload),
            num_accelerators=_canonical_accelerators(payload, minimum=2),
            scaling_mode=_canonical_scaling(payload),
            strategies=_canonical_strategies(payload),
            backend=_canonical_backend(payload),
            cost_model=_canonical_cost_model(payload),
        )


@dataclasses.dataclass(frozen=True)
class SimulateRequest(_FlatRequest):
    """``POST /simulate``: search + simulate one grid point (MP/DP/HyPar)."""

    model: str
    batch_size: int = DEFAULT_BATCH_SIZE
    num_accelerators: int = DEFAULT_NUM_ACCELERATORS
    topology: str = "htree"
    scaling_mode: str = ScalingMode.PARALLELISM_AWARE.value
    strategies: str = "dp,mp"
    cost_model: str = ANALYTIC_SPEC
    sim_engine: str = DEFAULT_SIM_ENGINE

    kind = "simulate"
    _FIELDS = (
        "model",
        "batch_size",
        "num_accelerators",
        "topology",
        "scaling_mode",
        "strategies",
        "cost_model",
        "sim_engine",
    )

    def canonical_payload(self) -> dict:
        # The canonical "analytic" default is *omitted* so every request
        # hash minted before the field existed stays valid; only network
        # requests carry (and hash) the engine.
        payload = super().canonical_payload()
        if payload["sim_engine"] == DEFAULT_SIM_ENGINE:
            del payload["sim_engine"]
        return payload

    def coalesce_key(self) -> tuple:
        # Topology affects the simulated schedule but not the compiled
        # table, so it is deliberately absent: a /partition and /simulate
        # pair (or two /simulate topologies) serialize their compile.
        return (
            "table",
            self.model,
            self.batch_size,
            self.num_accelerators,
            self.scaling_mode,
            self.strategies,
            self.cost_model,
        )

    @classmethod
    def from_payload(cls, payload) -> "SimulateRequest":
        payload = _require_mapping(payload, "a /simulate request")
        _reject_unknown(payload, cls._FIELDS, "/simulate")
        return cls(
            model=_canonical_model(payload),
            batch_size=_canonical_batch(payload),
            # 1 is allowed: the single-accelerator baseline point.
            num_accelerators=_canonical_accelerators(payload, minimum=1),
            topology=_canonical_topology(payload),
            scaling_mode=_canonical_scaling(payload),
            strategies=_canonical_strategies(payload),
            cost_model=_canonical_cost_model(payload),
            sim_engine=_canonical_sim_engine(payload),
        )


@dataclasses.dataclass(frozen=True)
class SweepRequest(ServiceRequest):
    """``POST /sweep``: run a whole grid through the warm engine.

    The body carries either ``{"preset": "smoke"}`` or ``{"spec": {...}}``
    (the :class:`~repro.sweep.spec.SweepSpec` JSON format).  Axis values
    canonicalize exactly like the single-point endpoints, so a spec naming
    ``vgg_a`` and one naming ``VGG-A`` share a cache entry -- and the
    response bytes match a ``hypar sweep`` CLI run of the canonical spec.
    """

    spec: dict

    kind = "sweep"
    _FIELDS = ("preset", "spec")

    @classmethod
    def from_payload(cls, payload) -> "SweepRequest":
        payload = _require_mapping(payload, "a /sweep request")
        _reject_unknown(payload, cls._FIELDS, "/sweep")
        has_preset = "preset" in payload
        has_spec = "spec" in payload
        if has_preset == has_spec:
            raise SchemaError(
                "a /sweep request needs exactly one of 'preset' "
                f"(one of: {', '.join(sorted(PRESETS))}) or 'spec' "
                "(a sweep-spec JSON object)"
            )
        if has_preset:
            name = payload["preset"]
            if not isinstance(name, str) or name not in PRESETS:
                raise SchemaError(
                    f"unknown sweep preset {name!r}; "
                    f"presets: {', '.join(sorted(PRESETS))}"
                )
            spec = PRESETS[name]
        else:
            spec_payload = _require_mapping(payload["spec"], "the 'spec' field")
            try:
                spec = SweepSpec.from_json(spec_payload)
            except (ValueError, TypeError) as error:
                raise SchemaError(f"invalid sweep spec: {error}") from None
        return cls(spec=_canonical_spec(spec).to_json())

    def to_spec(self) -> SweepSpec:
        return SweepSpec.from_json(self.spec)


@dataclasses.dataclass(frozen=True)
class ReplanRequest(ServiceRequest):
    """``POST /replan``: elastic re-planning over an availability trace.

    The body names a model/policy configuration plus the trace to replay,
    either inline (``"trace": [{"t": ..., "event": ..., "nodes": [...]}]``)
    or as a named generator (``"preset": "spot"`` with optional ``seed`` /
    ``num_events``).  Presets are synthesized *server-side during
    canonicalization* and the canonical payload stores only the
    materialized events -- a preset request and the equivalent inline
    trace therefore hash to the same cache key, and the trace's
    provenance metadata (preset name, seed) never leaks into the
    deterministic response bytes.
    """

    model: str
    trace: tuple
    num_nodes: int
    horizon: float | None
    batch_size: int = DEFAULT_BATCH_SIZE
    policy: str = "every-event"
    topology: str = "htree"
    scaling_mode: str = ScalingMode.PARALLELISM_AWARE.value
    strategies: str = "dp,mp"
    horizon_steps: int = 500
    cost_model: str = ANALYTIC_SPEC

    kind = "replan"
    _FIELDS = (
        "model",
        "batch_size",
        "num_nodes",
        "policy",
        "topology",
        "scaling_mode",
        "strategies",
        "horizon_steps",
        "horizon",
        "trace",
        "preset",
        "seed",
        "num_events",
        "cost_model",
    )

    @classmethod
    def from_payload(cls, payload) -> "ReplanRequest":
        from repro.resilience.replan import POLICIES
        from repro.resilience.traces import (
            PRESET_NAMES,
            AvailabilityTrace,
            TraceEvent,
            synthesize_trace,
        )

        payload = _require_mapping(payload, "a /replan request")
        _reject_unknown(payload, cls._FIELDS, "/replan")
        has_trace = "trace" in payload
        has_preset = "preset" in payload
        if has_trace == has_preset:
            raise SchemaError(
                "a /replan request needs exactly one of 'trace' (a list of "
                "availability events) or 'preset' "
                f"(one of: {', '.join(PRESET_NAMES)})"
            )
        if has_trace:
            for field in ("seed", "num_events"):
                if field in payload:
                    raise SchemaError(
                        f"field {field!r} only applies to preset traces; "
                        "drop it when providing 'trace' inline"
                    )

        num_nodes = _int_field(payload, "num_nodes", DEFAULT_NUM_ACCELERATORS)
        if num_nodes < 2:
            raise SchemaError(
                f"field 'num_nodes' must be >= 2, got {num_nodes}"
            )
        policy = _str_field(payload, "policy", "every-event")
        if policy not in POLICIES:
            raise SchemaError(
                f"unknown policy {policy!r}; known: {', '.join(POLICIES)}"
            )
        horizon_steps = _int_field(payload, "horizon_steps", 500)
        if horizon_steps <= 0:
            raise SchemaError(
                f"field 'horizon_steps' must be positive, got {horizon_steps}"
            )
        horizon = payload.get("horizon")
        if horizon is not None:
            if isinstance(horizon, bool) or not isinstance(horizon, (int, float)):
                raise SchemaError(
                    f"field 'horizon' must be a number, got {horizon!r}"
                )
            horizon = float(horizon)

        if has_preset:
            preset = payload["preset"]
            if not isinstance(preset, str) or preset not in PRESET_NAMES:
                raise SchemaError(
                    f"unknown trace preset {preset!r}; "
                    f"presets: {', '.join(PRESET_NAMES)}"
                )
            seed = _int_field(payload, "seed", 0)
            num_events = _int_field(payload, "num_events", 12)
            try:
                trace = synthesize_trace(
                    preset,
                    num_nodes=num_nodes,
                    seed=seed,
                    num_events=num_events,
                    horizon=horizon,
                )
            except ValueError as error:
                raise SchemaError(str(error)) from None
        else:
            entries = payload["trace"]
            if not isinstance(entries, (list, tuple)):
                raise SchemaError(
                    f"field 'trace' must be a list of events, got {entries!r}"
                )
            try:
                events = tuple(TraceEvent.from_json(entry) for entry in entries)
                trace = AvailabilityTrace(
                    num_nodes=num_nodes, events=events, horizon=horizon
                )
            except (ValueError, TypeError) as error:
                raise SchemaError(str(error)) from None

        return cls(
            model=_canonical_model(payload),
            trace=tuple(
                (event.t, event.event, tuple(event.nodes))
                for event in trace.events
            ),
            num_nodes=num_nodes,
            horizon=trace.horizon,
            batch_size=_canonical_batch(payload),
            policy=policy,
            topology=_canonical_topology(payload),
            scaling_mode=_canonical_scaling(payload),
            strategies=_canonical_strategies(payload),
            horizon_steps=horizon_steps,
            cost_model=_canonical_cost_model(payload),
        )

    def to_trace(self):
        """The canonical :class:`~repro.resilience.traces.AvailabilityTrace`."""
        from repro.resilience.traces import AvailabilityTrace, TraceEvent

        return AvailabilityTrace(
            num_nodes=self.num_nodes,
            events=tuple(
                TraceEvent(t=t, event=kind, nodes=tuple(nodes))
                for t, kind, nodes in self.trace
            ),
            horizon=self.horizon,
        )

    def to_config(self):
        """The matching :class:`~repro.resilience.replan.ReplanConfig`."""
        from repro.resilience.replan import ReplanConfig

        return ReplanConfig(
            model=self.model,
            batch_size=self.batch_size,
            policy=self.policy,
            topology=self.topology,
            scaling_mode=self.scaling_mode,
            strategies=self.strategies,
            horizon_steps=self.horizon_steps,
            cost_model=self.cost_model,
        )


def _canonical_spec(spec: SweepSpec) -> SweepSpec:
    """The spec with every axis value in canonical spelling.

    ``SweepSpec`` validates but preserves the caller's spellings; the
    service normalizes them so equivalent specs share one cache entry and
    one deterministic artifact.
    """
    try:
        models = tuple(canonical_model_name(name) for name in spec.models)
    except KeyError as error:
        raise SchemaError(str(error.args[0])) from None
    return dataclasses.replace(
        spec,
        models=models,
        scaling_modes=tuple(_scaling_value(mode) for mode in spec.scaling_modes),
        strategy_spaces=tuple(_space_value(space) for space in spec.strategy_spaces),
        cost_models=tuple(
            _canonical_cost_model_spec(model) for model in spec.cost_models
        ),
    )
