"""Request schemas and canonicalization for the ``hypar serve`` daemon.

Every POST endpoint validates its JSON body against a small frozen
dataclass here.  Validation is strict (unknown fields are rejected with a
message naming the known ones, mistyped values with one naming the field)
and canonicalizing: model names resolve to their canonical zoo spelling,
and the platform fields take the defaults and canonical spellings of
:class:`~repro.sweep.spec.PlanConfig`, the one owner every other surface
shares.  On top of that each schema keeps its own rules: ``/partition``
searches at least two accelerators, cost models name shipped packs only,
and ``backend`` takes one value.
Two payloads describing the same work -- fields reordered, aliases used,
defaults spelled out or omitted -- therefore canonicalize to *equal*
requests and hash to the same cache key.

The cache key itself is :meth:`ServiceRequest.cache_key`: the SHA-256 of
the endpoint kind plus the canonical payload serialized with sorted keys
and fixed separators, so it is deterministic across processes and
restarts.

A warm request spends most of its in-process time here, so the flat
schemas (``/partition``, ``/simulate``) build their canonical payload
from their fields directly, each platform field is canonicalized once,
through ``PlanConfig``'s bounded spelling memos, and model names resolve
through a lookup table memoized on the zoo's current names.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import TYPE_CHECKING, Mapping

from repro.core.costmodel import ANALYTIC_SPEC, shipped_profiles
from repro.nn.model_zoo import canonical_model_name
from repro.sweep.spec import (
    AXES,
    PLAN_FIELDS,
    PRESETS,
    PlanConfig,
    SweepPoint,
    SweepSpec,
    canonicalize_plan,
    memoized,
)

if TYPE_CHECKING:
    from repro.resilience.replan import ReplanConfig


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


#: The JSON type of each field a schema hands to its configuration as
#: sent (``_reject_unknown`` has already refused the fields it lacks).
_FIELD_TYPES = {
    "batch_size": int,
    "num_accelerators": int,
    "topology": str,
    "scaling_mode": str,
    "strategies": str,
    "cost_model": str,
    "sim_engine": str,
    "policy": str,
    "horizon_steps": int,
}


def _construct(cls, payload: Mapping, **fields):
    """``cls`` from ``fields`` plus the configuration fields ``payload``
    sets, each of its JSON type; a value ``cls`` rejects is a SchemaError."""
    for name, value in payload.items():
        kind = _FIELD_TYPES.get(name)
        if kind is None:
            continue
        # bool is an int subclass; "batch_size": true must not pass as 1.
        if type(value) is not kind and (
            isinstance(value, bool) or not isinstance(value, kind)
        ):
            article = "an integer" if kind is int else "a string"
            raise SchemaError(f"field {name!r} must be {article}, got {value!r}")
        fields[name] = value
    if "cost_model" in fields:
        fields["cost_model"] = _canonical_cost_model_spec(fields["cost_model"])
    try:
        return cls(**fields)
    except ValueError as error:
        raise SchemaError(str(error)) from None


def _canonical_backend(payload: Mapping) -> str:
    # The search has one implementation.  The field stays, with its one
    # value, because every /partition response echoes the canonical
    # payload and every /partition cache key hashes it.
    value = payload.get("backend", "numpy")
    if value != "numpy":
        raise SchemaError(f"field 'backend' must be 'numpy', got {value!r}")
    return value


# Shipped packs do not change while the process runs, so the listing of
# the profile directory is read once per spelling, not once per request.
@memoized
def _canonical_cost_model_spec(text: str) -> str:
    """Canonicalize one cost-model spec string, shipped packs only.

    The daemon never opens caller-named files: a profiled spec must name a
    pack shipped under ``repro/core/profiles`` (the CLI may pass paths,
    the service may not).
    """
    try:
        spec = PlanConfig.canonical("cost_model", text)
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
    """A ``/partition`` or ``/simulate`` schema: its fields are all
    ``str`` or ``int``, listed in ``_FIELDS`` in declaration order.

    Its canonical payload is a flat copy of the fields: the dict
    ``dataclasses.asdict`` returns, without its deep-copy walk.
    """

    def canonical_payload(self) -> dict:
        return {name: getattr(self, name) for name in self._FIELDS}

    def coalesce_key(self) -> tuple:
        # One compiled table per configuration: topology and engine change
        # the simulated schedule, not the table, so they are left out.
        return (
            "table",
            self.model,
            self.batch_size,
            self.num_accelerators,
            self.scaling_mode,
            self.strategies,
            self.cost_model,
        )


@dataclasses.dataclass(frozen=True)
class PartitionRequest(_FlatRequest):
    """``POST /partition``: search HyPar's assignment for one network
    (five of the platform's fields; see :meth:`plan`)."""

    model: str
    batch_size: int = PlanConfig.batch_size
    num_accelerators: int = PlanConfig.num_accelerators
    scaling_mode: str = PlanConfig.scaling_mode
    strategies: str = PlanConfig.strategies
    backend: str = "numpy"
    cost_model: str = PlanConfig.cost_model

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
    _PLAN_FIELDS = (
        "batch_size",
        "num_accelerators",
        "scaling_mode",
        "strategies",
        "cost_model",
    )

    def __post_init__(self) -> None:
        canonicalize_plan(self, self._PLAN_FIELDS)

    def plan(self) -> PlanConfig:
        """The platform this request searches."""
        return PlanConfig(**{name: getattr(self, name) for name in self._PLAN_FIELDS})

    @classmethod
    def from_payload(cls, payload) -> "PartitionRequest":
        payload = _require_mapping(payload, "a /partition request")
        _reject_unknown(payload, cls._FIELDS, "/partition")
        request = _construct(
            cls,
            payload,
            model=_canonical_model(payload),
            backend=_canonical_backend(payload),
        )
        if request.num_accelerators < 2:
            # A single accelerator has no pair to split work across.
            raise SchemaError(
                "num_accelerators must be a power of two >= 2, "
                f"got {request.num_accelerators}"
            )
        return request


@dataclasses.dataclass(frozen=True)
class SimulateRequest(PlanConfig, _FlatRequest):
    """``POST /simulate``: search + simulate one grid point (MP/DP/HyPar):
    a platform (one accelerator allowed) plus a model."""

    model: str = dataclasses.field(kw_only=True)

    kind = "simulate"
    _FIELDS = ("model", *PLAN_FIELDS)

    def canonical_payload(self) -> dict:
        # The canonical "analytic" default is *omitted* so every request
        # hash minted before the field existed stays valid; only network
        # requests carry (and hash) the engine.
        payload = super().canonical_payload()
        if payload["sim_engine"] == PlanConfig.sim_engine:
            del payload["sim_engine"]
        return payload

    def to_point(self) -> SweepPoint:
        """The grid point (index 0) this request evaluates."""
        return SweepPoint(
            model=self.model, **{name: getattr(self, name) for name in PLAN_FIELDS}
        )

    @classmethod
    def from_payload(cls, payload) -> "SimulateRequest":
        payload = _require_mapping(payload, "a /simulate request")
        _reject_unknown(payload, cls._FIELDS, "/simulate")
        return _construct(cls, payload, model=_canonical_model(payload))


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

    config: ReplanConfig
    trace: tuple
    num_nodes: int
    horizon: float | None

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

    def canonical_payload(self) -> dict:
        # The model, the trace, then the rest of the configuration: the
        # key order every /replan cache key was minted with.
        config = dataclasses.asdict(self.config)
        return {
            "model": config.pop("model"),
            "trace": self.trace,
            "num_nodes": self.num_nodes,
            "horizon": self.horizon,
            **config,
        }

    @classmethod
    def from_payload(cls, payload) -> "ReplanRequest":
        from repro.resilience.replan import ReplanConfig
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

        config = _construct(ReplanConfig, payload, model=_canonical_model(payload))
        # The fleet defaults to the platform's array size.
        num_nodes = _int_field(payload, "num_nodes", PlanConfig.num_accelerators)
        if num_nodes < 2:
            raise SchemaError(
                f"field 'num_nodes' must be >= 2, got {num_nodes}"
            )
        horizon = payload.get("horizon")
        if isinstance(horizon, bool) or not isinstance(horizon, (int, float, type(None))):
            raise SchemaError(f"field 'horizon' must be a number, got {horizon!r}")

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
            config=config,
            trace=tuple(
                (event.t, event.event, tuple(event.nodes))
                for event in trace.events
            ),
            num_nodes=num_nodes,
            horizon=trace.horizon,
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
        """The :class:`~repro.resilience.replan.ReplanConfig` to replay under."""
        return self.config


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
    axes = {
        axis: tuple(PlanConfig.canonical(field, value) for value in getattr(spec, axis))
        for axis, field in AXES[1:]
    }
    axes["cost_models"] = tuple(map(_canonical_cost_model_spec, spec.cost_models))
    return dataclasses.replace(spec, models=models, **axes)
