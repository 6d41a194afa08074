"""Pluggable cost-model providers for the Table-1/2 analytics.

Every number the planner, simulator, sweep engine, and service reason
about descends from the paper's idealized Table-1/2 formulas.  This
module makes the *source* of those numbers a first-class parameter:

* :class:`AnalyticCostModel` -- the paper's formulas, the default, and
  **byte-identical** to the historical hard-coded path (it hands out the
  plain :class:`~repro.core.communication.CommunicationModel`).
* :class:`ProfiledCostModel` -- ingests a profile JSON of measured
  samples (per-layer step times, link bandwidth/latency), fits the
  cost-table parameters with outlier-filtered medians in the style of
  Varuna's ``profile.py``, and hands out a
  :class:`~repro.core.communication.CalibratedCommunicationModel`
  carrying the fitted deviations.  Fit residuals (relative median
  absolute deviation of the kept samples) are reported so callers can
  judge how trustworthy a calibration is.

Profile JSON schema (``hypar-profile/v1``)::

    {
      "schema": "hypar-profile/v1",
      "name": "slow-interconnect",
      "description": "...",
      "precision_bytes": 4,              # measured element size (2 = fp16)
      "reference_bandwidth": 1.0e9,      # bytes/s the analytic model assumes
      "links": {
        "intra": {"bandwidth": [...], "latency": [...]},   # bytes/s, seconds
        "inter": {"bandwidth": [...], "latency": [...]}
      },
      "layers": {                         # optional per-layer step times
        "conv1": {"time_ms": [...]}       # milliseconds; may be {}
      }
    }

Every sample list needs at least :data:`MIN_SAMPLES` entries; the fit
drops Tukey-fence outliers (1.5 IQR) before taking medians, so a single
contended measurement cannot skew a calibration.  All of it is
deterministic: the same profile file always fits to the same model.

Cost-model *specs* are the strings threaded through CLI flags, sweep
axes, and service requests: ``"analytic"`` or ``"profiled:<pack>"``
where ``<pack>`` is a shipped pack name (see :func:`shipped_profiles`)
or a path to a profile JSON.
"""

from __future__ import annotations

import os
from typing import Mapping, Sequence

from repro.core.communication import (
    CalibratedCommunicationModel,
    CommunicationModel,
)

#: Schema tag every profile payload must carry.
PROFILE_SCHEMA = "hypar-profile/v1"

#: Minimum samples per measured quantity -- a median of fewer is noise.
MIN_SAMPLES = 3

#: The canonical spec string of the analytic default.
ANALYTIC_SPEC = "analytic"

_PROFILED_PREFIX = "profiled:"

_PROFILE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "profiles")

#: Fitted models for shipped pack names, keyed by canonical spec.  Packs
#: are immutable package data, so one fit per process is safe to share.
_RESOLVED: dict[str, "CostModel"] = {}


# ----------------------------------------------------------------------
# Spec strings.
# ----------------------------------------------------------------------


def canonical_cost_model(spec: object) -> str:
    """Normalize a cost-model spec to its canonical string form.

    ``None``/empty means the analytic default.  Raises ``ValueError`` for
    anything that is neither ``"analytic"`` nor ``"profiled:<target>"``
    with a non-empty target.
    """
    if spec is None:
        return ANALYTIC_SPEC
    text = str(spec).strip()
    if not text or text == ANALYTIC_SPEC:
        return ANALYTIC_SPEC
    if text.startswith(_PROFILED_PREFIX):
        target = text[len(_PROFILED_PREFIX) :].strip()
        if target:
            return _PROFILED_PREFIX + target
    raise ValueError(
        "cost model must be 'analytic' or 'profiled:<pack-or-path>', "
        f"got {spec!r}"
    )


def shipped_profiles() -> dict[str, str]:
    """Shipped profile packs: ``{pack_name: absolute_path}``."""
    packs: dict[str, str] = {}
    if os.path.isdir(_PROFILE_DIR):
        for entry in sorted(os.listdir(_PROFILE_DIR)):
            if entry.endswith(".json"):
                packs[entry[: -len(".json")]] = os.path.join(_PROFILE_DIR, entry)
    return packs


def resolve_cost_model(spec: object) -> "CostModel":
    """Resolve a spec string (or ``None``) to a :class:`CostModel`.

    Shipped pack names are fitted once per process and shared; explicit
    file paths are re-read on every call.  Raises ``ValueError`` for an
    unknown pack / unreadable file / invalid profile.
    """
    if isinstance(spec, CostModel):
        return spec
    canonical = canonical_cost_model(spec)
    if canonical == ANALYTIC_SPEC:
        return AnalyticCostModel()
    cached = _RESOLVED.get(canonical)
    if cached is not None:
        return cached
    target = canonical[len(_PROFILED_PREFIX) :]
    shipped = shipped_profiles()
    if target in shipped:
        model = ProfiledCostModel.load(shipped[target], spec=canonical)
        _RESOLVED[canonical] = model
        return model
    if os.path.exists(target):
        return ProfiledCostModel.load(target, spec=canonical)
    raise ValueError(
        f"unknown profile pack {target!r}: not a shipped pack "
        f"({', '.join(sorted(shipped)) or 'none shipped'}) and not a file"
    )


# ----------------------------------------------------------------------
# Profile validation.
# ----------------------------------------------------------------------


def _check_samples(
    errors: list[str],
    where: str,
    values: object,
    *,
    minimum: float,
    inclusive: bool,
) -> None:
    """Validate one sample list: length, numeric type, and lower bound."""
    if not isinstance(values, (list, tuple)):
        errors.append(f"{where} must be a list of numbers")
        return
    if len(values) < MIN_SAMPLES:
        errors.append(
            f"{where} needs at least {MIN_SAMPLES} samples, got {len(values)}"
        )
    for index, value in enumerate(values):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            errors.append(f"{where}[{index}] must be a number, got {value!r}")
        elif value < minimum or (not inclusive and value == minimum):
            bound = ">=" if inclusive else ">"
            errors.append(f"{where}[{index}] must be {bound} {minimum}, got {value}")


def validate_profile_payload(payload: object) -> list[str]:
    """Schema-check a profile payload; returns a list of error strings.

    An empty list means the payload is a valid ``hypar-profile/v1``
    document that :class:`ProfiledCostModel` will accept.
    """
    if not isinstance(payload, Mapping):
        return ["profile must be a JSON object"]
    errors: list[str] = []
    if payload.get("schema") != PROFILE_SCHEMA:
        errors.append(
            f"schema must be {PROFILE_SCHEMA!r}, got {payload.get('schema')!r}"
        )
    name = payload.get("name")
    if not isinstance(name, str) or not name.strip():
        errors.append("name must be a non-empty string")
    precision = payload.get("precision_bytes")
    if isinstance(precision, bool) or not isinstance(precision, int) or precision <= 0:
        errors.append(f"precision_bytes must be a positive integer, got {precision!r}")
    reference = payload.get("reference_bandwidth")
    if (
        isinstance(reference, bool)
        or not isinstance(reference, (int, float))
        or reference <= 0
    ):
        errors.append(
            f"reference_bandwidth must be a positive number, got {reference!r}"
        )
    links = payload.get("links")
    if not isinstance(links, Mapping):
        errors.append("links must be an object with 'intra' and 'inter' entries")
    else:
        for link_name in ("intra", "inter"):
            link = links.get(link_name)
            if not isinstance(link, Mapping):
                errors.append(f"links.{link_name} must be an object")
                continue
            _check_samples(
                errors,
                f"links.{link_name}.bandwidth",
                link.get("bandwidth"),
                minimum=0.0,
                inclusive=False,
            )
            _check_samples(
                errors,
                f"links.{link_name}.latency",
                link.get("latency"),
                minimum=0.0,
                inclusive=True,
            )
    layers = payload.get("layers", {})
    if not isinstance(layers, Mapping):
        errors.append("layers must be an object mapping layer names to samples")
    else:
        for layer_name, entry in layers.items():
            if not isinstance(entry, Mapping):
                errors.append(f"layers.{layer_name} must be an object")
                continue
            _check_samples(
                errors,
                f"layers.{layer_name}.time_ms",
                entry.get("time_ms"),
                minimum=0.0,
                inclusive=False,
            )
    return errors


# ----------------------------------------------------------------------
# Outlier-filtered median fitting.
# ----------------------------------------------------------------------


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    count = len(ordered)
    middle = count // 2
    if count % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def _quartiles(ordered: Sequence[float]) -> tuple[float, float]:
    """Linear-interpolated (Q1, Q3) of an ascending sequence."""

    def at(fraction: float) -> float:
        position = fraction * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        weight = position - low
        return ordered[low] * (1.0 - weight) + ordered[high] * weight

    return at(0.25), at(0.75)


def tukey_filtered(samples: Sequence[float]) -> list[float]:
    """Drop samples outside the 1.5-IQR Tukey fences.

    With fewer than four samples the quartiles are meaningless, so the
    input passes through untouched.  The fences never reject everything:
    the median itself always survives.
    """
    ordered = sorted(float(value) for value in samples)
    if len(ordered) < 4:
        return ordered
    q1, q3 = _quartiles(ordered)
    fence = 1.5 * (q3 - q1)
    return [value for value in ordered if q1 - fence <= value <= q3 + fence]


def _fit_quantity(samples: Sequence[float]) -> tuple[float, float, int, int]:
    """Outlier-filtered median of one measured quantity.

    Returns ``(median, residual, kept, total)`` where ``residual`` is the
    relative median absolute deviation of the kept samples -- 0.0 for a
    perfectly repeatable measurement, growing with spread.
    """
    kept = tukey_filtered(samples)
    center = _median(kept)
    if center == 0.0:
        residual = 0.0
    else:
        residual = _median([abs(value - center) for value in kept]) / abs(center)
    return center, residual, len(kept), len(samples)


# ----------------------------------------------------------------------
# Providers.
# ----------------------------------------------------------------------


class CostModel:
    """Provider protocol: where the planner's cost numbers come from.

    A provider owns exactly one thing -- the
    :class:`~repro.core.communication.CommunicationModel` every table
    compilation, simulation, and migration pricing evaluates.  Provider
    identity participates in that model's ``cache_key``, so two providers
    can never share a compiled :class:`~repro.core.costs.CostTable`, a
    :class:`~repro.core.costs.TableCache` slot, or a service result hash.
    """

    #: Provider kind tag (``"analytic"`` / ``"profiled"``).
    kind: str = "abstract"

    @property
    def spec(self) -> str:
        """The canonical spec string that resolves back to this provider."""
        raise NotImplementedError

    def communication_model(self) -> CommunicationModel:
        """Build the communication model carrying this provider's costs."""
        raise NotImplementedError

    def describe(self) -> dict:
        """A JSON-friendly summary (for ``/healthz`` and CLI output)."""
        return {"kind": self.kind, "spec": self.spec}


class AnalyticCostModel(CostModel):
    """The paper's Table-1/2 formulas, exactly as always.

    Hands out the plain :class:`CommunicationModel`, so every byte it
    produces -- and every golden study, CLI golden, and benchmark floor
    derived from it -- is identical to the pre-provider code path.
    """

    kind = "analytic"

    def __init__(self, bytes_per_element: int | None = None) -> None:
        self._bytes_per_element = bytes_per_element

    @property
    def spec(self) -> str:
        return ANALYTIC_SPEC

    def communication_model(self) -> CommunicationModel:
        if self._bytes_per_element is None:
            return CommunicationModel()
        return CommunicationModel(bytes_per_element=self._bytes_per_element)


class ProfiledCostModel(CostModel):
    """Cost tables fitted from measured hardware samples.

    The constructor validates the payload (raising ``ValueError`` with
    every schema problem listed), then fits:

    * ``intra_scale`` / ``inter_scale`` = ``reference_bandwidth`` over the
      outlier-filtered median of the measured link bandwidth -- a link
      half as fast as the reference doubles its traffic cost;
    * ``inter_latency_bytes`` = median inter-link latency expressed as
      equivalent bytes at the reference bandwidth, charged once per
      non-zero directional Table-2 transfer;
    * ``layer_scales`` = each layer's median step time relative to the
      median layer (heterogeneous accelerators make some layers' partial
      sum exchanges relatively pricier);
    * ``bytes_per_element`` = the measured ``precision_bytes``.

    The fit happens once, here; planning against the provider afterwards
    costs the same as planning analytically.
    """

    kind = "profiled"

    def __init__(
        self,
        payload: Mapping,
        source: str = "<memory>",
        spec: str | None = None,
    ) -> None:
        errors = validate_profile_payload(payload)
        if errors:
            raise ValueError(
                f"invalid profile {source}: " + "; ".join(errors)
            )
        self.source = str(source)
        self.name = str(payload["name"]).strip()
        self.description = str(payload.get("description", ""))
        self.precision_bytes = int(payload["precision_bytes"])
        self.reference_bandwidth = float(payload["reference_bandwidth"])
        self._spec = spec if spec is not None else _PROFILED_PREFIX + self.source
        self._fit(payload)

    @classmethod
    def load(cls, path: str, spec: str | None = None) -> "ProfiledCostModel":
        """Read and fit a profile JSON file."""
        # Imported here: every command parses a cost-model spec, few load one.
        import json

        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError as error:
            raise ValueError(f"cannot read profile {path!r}: {error}") from error
        except json.JSONDecodeError as error:
            raise ValueError(f"profile {path!r} is not valid JSON: {error}") from error
        return cls(payload, source=path, spec=spec)

    def _fit(self, payload: Mapping) -> None:
        links = payload["links"]
        residuals: dict[str, float] = {}
        samples: dict[str, dict[str, int]] = {}

        def fit(key: str, values: Sequence[float]) -> float:
            center, residual, kept, total = _fit_quantity(values)
            residuals[key] = residual
            samples[key] = {"kept": kept, "total": total}
            return center

        intra_bandwidth = fit("intra_bandwidth", links["intra"]["bandwidth"])
        inter_bandwidth = fit("inter_bandwidth", links["inter"]["bandwidth"])
        fit("intra_latency", links["intra"]["latency"])
        inter_latency = fit("inter_latency", links["inter"]["latency"])

        self.intra_scale = self.reference_bandwidth / intra_bandwidth
        self.inter_scale = self.reference_bandwidth / inter_bandwidth
        self.inter_latency_bytes = inter_latency * self.reference_bandwidth

        layer_medians: dict[str, float] = {}
        for layer_name, entry in payload.get("layers", {}).items():
            layer_medians[str(layer_name)] = fit(
                f"layers.{layer_name}", entry["time_ms"]
            )
        self.layer_scales: dict[str, float] = {}
        if layer_medians:
            typical = _median(list(layer_medians.values()))
            self.layer_scales = {
                name: median / typical for name, median in layer_medians.items()
            }

        self._residuals = residuals
        self._samples = samples
        self._model = CalibratedCommunicationModel(
            self.name,
            bytes_per_element=self.precision_bytes,
            intra_scale=self.intra_scale,
            inter_scale=self.inter_scale,
            inter_latency_bytes=self.inter_latency_bytes,
            layer_scales=self.layer_scales,
        )

    @property
    def spec(self) -> str:
        return self._spec

    def communication_model(self) -> CalibratedCommunicationModel:
        return self._model

    def fit_report(self) -> dict:
        """The fitted parameters with per-quantity residuals and counts."""
        return {
            "name": self.name,
            "source": self.source,
            "precision_bytes": self.precision_bytes,
            "reference_bandwidth": self.reference_bandwidth,
            "intra_scale": self.intra_scale,
            "inter_scale": self.inter_scale,
            "inter_latency_bytes": self.inter_latency_bytes,
            "layer_scales": dict(sorted(self.layer_scales.items())),
            "residuals": dict(sorted(self._residuals.items())),
            "samples": dict(sorted(self._samples.items())),
        }

    def describe(self) -> dict:
        summary = super().describe()
        summary.update(
            name=self.name,
            precision_bytes=self.precision_bytes,
            intra_scale=self.intra_scale,
            inter_scale=self.inter_scale,
            inter_latency_bytes=self.inter_latency_bytes,
            max_residual=max(self._residuals.values(), default=0.0),
        )
        return summary
