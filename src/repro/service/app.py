"""Endpoint logic of the ``hypar serve`` daemon (HTTP-agnostic).

:class:`HyParService` maps ``(method, path, body)`` to
``(status, response bytes)`` without touching sockets, so the whole
request surface is unit-testable in-process; the thin HTTP layer lives in
:mod:`repro.service.server`.

Endpoints
---------
``POST /partition``
    HyPar's hierarchical partition search for one network.
``POST /simulate``
    One sweep grid point: search HyPar, simulate it next to the Model/Data
    Parallelism baselines (via :func:`repro.sweep.runner.evaluate_point`).
``POST /sweep``
    A whole grid (``{"preset": ...}`` or ``{"spec": {...}}``) through the
    service's persistent :class:`~repro.sweep.engine.SweepEngine`.  The
    response bytes equal the ``<name>.json`` artifact a ``hypar sweep``
    CLI run of the same canonical spec writes.
``POST /replan``
    Elastic re-planning over an availability trace (inline events or a
    named preset; see :mod:`repro.resilience`).  The response bytes equal
    the ``replan.json`` artifact of the matching ``hypar replan`` run
    except the trace's provenance: the service synthesizes a preset while
    it canonicalizes the request, so its ``trace.preset`` and
    ``trace.seed`` are ``null`` where the CLI writes the preset and seed.
``GET /models`` / ``GET /strategies``
    The model zoo and the strategy registry.
``GET /healthz``
    Liveness plus observability: result-cache and compiled-table-cache
    counters, request totals, worker-pool state.

POST responses are cached as rendered bytes in a
:class:`~repro.service.cache.ResultCache` keyed by the canonical request
hash; misses compile cost tables through the process-wide
:func:`~repro.sweep.cache.shared_table_cache`, so a warm daemon answers
repeated traffic without recompiling anything.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Callable, Mapping

from repro.core.costmodel import shipped_profiles
from repro.core.result import HierarchicalResult
from repro.core.strategies import registered_strategies
from repro.nn.model_zoo import all_model_builders
from repro.resilience.replan import run_replan
from repro.service.cache import DEFAULT_CACHE_SIZE, KeyedLocks, ResultCache
from repro.sim.backend import SIM_ENGINES
from repro.service.schemas import (
    PartitionRequest,
    ReplanRequest,
    SchemaError,
    ServiceRequest,
    SimulateRequest,
    SweepRequest,
    _canonical_cost_model_spec,
)
from repro.sweep.artifacts import payload_to_json
from repro.sweep.cache import shared_table_cache
from repro.sweep.engine import SweepEngine
from repro.sweep.runner import _model_for, evaluate_point, run_sweep
from repro.sweep.spec import PlanConfig

#: Method and one-line summary per path, also served on 404s.
ENDPOINTS: Mapping[str, tuple[str, str]] = {
    "/partition": ("POST", "hierarchical partition search for one network"),
    "/simulate": ("POST", "search + simulate one grid point (MP/DP/HyPar)"),
    "/sweep": ("POST", "run a sweep grid (preset name or inline spec)"),
    "/replan": ("POST", "elastic re-planning over an availability trace"),
    "/models": ("GET", "the evaluation-network zoo"),
    "/strategies": ("GET", "the registered per-layer parallelism strategies"),
    "/healthz": ("GET", "liveness and cache/request counters"),
}

JSON_CONTENT_TYPE = "application/json"


class RequestError(Exception):
    """An error with a definite HTTP status and a user-facing message."""

    def __init__(self, status: int, message: str, **extra) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.extra = dict(extra)


def _render(payload) -> bytes:
    """Deterministic response bytes (the sweep artifact serialization)."""
    return payload_to_json(payload).encode()


class HyParService:
    """The daemon's endpoint logic and long-lived warm state.

    Parameters
    ----------
    workers:
        Worker processes of the persistent sweep engine ``POST /sweep``
        fans grid points into (``1`` = in-process serial).
    cache_size:
        Capacity of the LRU response cache (``--cache-size``).
    engine:
        Optional externally owned engine (tests); by default the service
        creates one and :meth:`close` shuts it down.
    fault_injector:
        Optional :class:`~repro.resilience.faults.FaultInjector` whose
        compute/store faults fire inside the request path (chaos tests
        and ``hypar serve --fault-preset``); ``None`` disables the seams.
    default_cost_model:
        Cost-model spec applied to ``/partition``, ``/simulate`` and
        ``/replan`` requests that omit the ``cost_model`` field
        (``hypar serve --cost-model``).  Must be ``"analytic"`` or a
        shipped profile pack; the effective default is surfaced in
        ``/healthz``.  Requests naming their own provider are untouched.
    """

    def __init__(
        self,
        workers: int = 1,
        cache_size: int = DEFAULT_CACHE_SIZE,
        engine: SweepEngine | None = None,
        fault_injector=None,
        default_cost_model: str = PlanConfig.cost_model,
    ) -> None:
        # Canonicalize (and reject unknown packs) at startup, not per
        # request; raises the same SchemaError a bad request field would.
        self.default_cost_model = _canonical_cost_model_spec(default_cost_model)
        self.result_cache = ResultCache(cache_size)
        # Coalesces compiles across *different* requests sharing one cost
        # table (e.g. /partition + /simulate of the same configuration).
        self._config_locks = KeyedLocks()
        self._owns_engine = engine is None
        self.engine = engine if engine is not None else SweepEngine(workers=workers)
        self.fault_injector = fault_injector
        self._started = time.monotonic()
        self._counter_lock = threading.Lock()
        self.requests_served = 0
        self.request_errors = 0
        self.timeouts = 0
        self.stale_served = 0
        self._static: dict[str, bytes] = {}

    def note_timeout(self) -> None:
        """Called by the HTTP layer when a request overran its deadline."""
        with self._counter_lock:
            self.timeouts += 1

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release the worker pool (idempotent; see SweepEngine.close)."""
        if self._owns_engine:
            self.engine.close()

    def __enter__(self) -> "HyParService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Dispatch.
    # ------------------------------------------------------------------

    def handle(self, method: str, path: str, body: bytes | None) -> tuple[int, bytes]:
        """One request in, ``(status, response bytes)`` out."""
        try:
            status, response = self._dispatch(method, path.split("?", 1)[0], body)
        except RequestError as error:
            with self._counter_lock:
                self.request_errors += 1
            return error.status, _render({"error": error.message, **error.extra})
        except Exception as error:  # noqa: BLE001 - the daemon must not die
            with self._counter_lock:
                self.request_errors += 1
            return 500, _render(
                {"error": f"internal error: {type(error).__name__}: {error}"}
            )
        with self._counter_lock:
            self.requests_served += 1
        return status, response

    def _dispatch(self, method: str, path: str, body: bytes | None) -> tuple[int, bytes]:
        if path not in ENDPOINTS:
            raise RequestError(
                404,
                f"unknown path {path!r}",
                endpoints={p: f"{m} - {summary}" for p, (m, summary) in ENDPOINTS.items()},
            )
        expected, _ = ENDPOINTS[path]
        if method != expected:
            raise RequestError(
                405, f"{path} expects {expected}, got {method}", allow=expected
            )
        if method == "GET":
            handlers: dict[str, Callable[[], bytes]] = {
                "/models": self._models_body,
                "/strategies": self._strategies_body,
                "/healthz": self._healthz_body,
            }
            return 200, handlers[path]()
        payload = self._parse_body(path, body)
        request = self._parse_request(path, payload)
        computes: dict[str, Callable[[ServiceRequest], bytes]] = {
            "/partition": self._partition_body,
            "/simulate": self._simulate_body,
            "/sweep": self._sweep_body,
            "/replan": self._replan_body,
        }
        compute = computes[path]
        injector = self.fault_injector

        def guarded() -> bytes:
            if injector is not None:
                # May raise FaultInjected (scheduled compute failure) --
                # which then exercises the stale-serving path below.
                delay = injector.on_compute()
                if delay:
                    time.sleep(delay)
            with self._config_locks.holding(request.coalesce_key()):
                return compute(request)

        key = request.cache_key()
        try:
            response, hit = self.result_cache.get_or_compute(key, guarded)
        except RequestError:
            raise
        except Exception:
            # Graceful degradation: prefer a previously served (possibly
            # since-evicted) response for this exact canonical request
            # over a 500 while the stack is unhealthy.
            stale = self.result_cache.get_stale(key)
            if stale is None:
                raise
            with self._counter_lock:
                self.stale_served += 1
            return 200, stale
        if not hit and injector is not None:
            injector.note_store(self.result_cache, key)
        return 200, response

    @staticmethod
    def _parse_body(path: str, body: bytes | None):
        if not body:
            raise RequestError(
                400, f"{path} requires a JSON request body (got an empty body)"
            )
        try:
            return json.loads(body)
        except json.JSONDecodeError as error:
            raise RequestError(
                400, f"request body is not valid JSON: {error}"
            ) from None

    def _parse_request(self, path: str, payload) -> ServiceRequest:
        schemas: dict[str, Callable] = {
            "/partition": PartitionRequest.from_payload,
            "/simulate": SimulateRequest.from_payload,
            "/sweep": SweepRequest.from_payload,
            "/replan": ReplanRequest.from_payload,
        }
        if (
            self.default_cost_model != PlanConfig.cost_model
            and path in ("/partition", "/simulate", "/replan")
            and isinstance(payload, Mapping)
            and "cost_model" not in payload
        ):
            # The server-wide default fills the omitted field *before*
            # canonicalization, so the cache hash reflects the provider
            # actually used and can never cross-serve an analytic result.
            payload = {**payload, "cost_model": self.default_cost_model}
        try:
            return schemas[path](payload)
        except SchemaError as error:
            raise RequestError(400, str(error)) from None

    # ------------------------------------------------------------------
    # POST endpoints (computed once per canonical request, then cached).
    # ------------------------------------------------------------------

    def _partition_body(self, request: PartitionRequest) -> bytes:
        # The /simulate runtime of the same configuration: one simulator,
        # and the partitioner it derives, per platform.
        simulator = request.plan().simulator()
        model = _model_for(request.model)
        table = simulator.cost_table(model, request.batch_size)
        result = simulator.partitioner.partition(model, request.batch_size, table=table)
        return _render(self._partition_payload(request, model, result))

    @staticmethod
    def _partition_payload(
        request: PartitionRequest, model, result: HierarchicalResult
    ) -> dict:
        return {
            "request": request.canonical_payload(),
            "model": result.model_name,
            "batch_size": result.batch_size,
            "num_accelerators": result.num_accelerators,
            "layers": [layer.name for layer in model],
            "levels": [
                {
                    "level": level.level + 1,
                    "assignment": [choice.short for choice in level.assignment],
                    "pair_communication_bytes": level.communication_bytes,
                    "num_pairs": level.num_pairs,
                    "total_bytes": level.total_bytes,
                }
                for level in result.levels
            ],
            "total_communication_bytes": result.total_communication_bytes,
            "total_communication_gb": result.total_communication_bytes / 1e9,
        }

    def _simulate_body(self, request: SimulateRequest) -> bytes:
        point = request.to_point()
        record = evaluate_point(point)
        return _render(
            {
                "request": request.canonical_payload(),
                "label": point.label(),
                "row": record.to_row(),
            }
        )

    def _sweep_body(self, request: SweepRequest) -> bytes:
        result = run_sweep(request.to_spec(), engine=self.engine)
        # Byte-for-byte the artifact `hypar sweep <spec> --out DIR` writes.
        return payload_to_json(result.to_payload()).encode()

    def _replan_body(self, request: ReplanRequest) -> bytes:
        report = run_replan(request.to_trace(), request.to_config())
        # The `replan.json` artifact `hypar replan` writes for the same
        # trace and configuration, except that the canonical trace carries
        # no provenance: `trace.preset` and `trace.seed` are null.
        return payload_to_json(report.to_payload()).encode()

    # ------------------------------------------------------------------
    # GET endpoints.
    # ------------------------------------------------------------------

    def _models_body(self) -> bytes:
        body = self._static.get("/models")
        if body is None:
            models = [builder() for builder in all_model_builders().values()]
            body = _render(
                {
                    "models": [
                        {
                            "name": model.name,
                            "num_weighted_layers": model.num_weighted_layers,
                            "num_conv_layers": model.num_conv_layers,
                            "num_fc_layers": model.num_fc_layers,
                            "total_weights": model.total_weights,
                            "is_chain": model.is_chain,
                            "num_edges": model.num_edges,
                        }
                        for model in models
                    ]
                }
            )
            self._static["/models"] = body
        return body

    def _strategies_body(self) -> bytes:
        body = self._static.get("/strategies")
        if body is None:
            body = _render(
                {
                    "strategies": [
                        {
                            "short": spec.short,
                            "parallelism": spec.parallelism.name.lower(),
                            "halves": spec.halves,
                            "stage_local": spec.stage_local,
                            "description": spec.description,
                        }
                        for spec in registered_strategies()
                    ]
                }
            )
            self._static["/strategies"] = body
        return body

    def _healthz_body(self) -> bytes:
        with self._counter_lock:
            served = self.requests_served
            errors = self.request_errors
            timeouts = self.timeouts
            stale_served = self.stale_served
        payload = {
            "status": "ok",
            "service": "hypar-serve",
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "workers": self.engine.workers,
            "pool_active": self.engine.pool_active,
            # True once the sweep engine fell back to serial (pool lost
            # or never came up); results stay correct, throughput drops.
            "degraded": self.engine.pool_degraded,
            "endpoints": {
                path: f"{method} - {summary}"
                for path, (method, summary) in ENDPOINTS.items()
            },
            "result_cache": self.result_cache.stats(),
            "table_cache": shared_table_cache().stats(),
            # Cost-model providers a request's "cost_model" field may name
            # (the server's default plus every shipped profile pack).
            "cost_models": {
                "default": self.default_cost_model,
                "profiles": sorted(shipped_profiles()),
            },
            # Simulation engines a request's "sim_engine" field may name.
            "sim_engines": {
                "default": PlanConfig.sim_engine,
                "valid": list(SIM_ENGINES),
            },
            "requests": {
                "served": served,
                "errors": errors,
                "timeouts": timeouts,
                "stale_served": stale_served,
            },
        }
        if self.fault_injector is not None:
            payload["faults"] = self.fault_injector.stats()
        return _render(payload)
