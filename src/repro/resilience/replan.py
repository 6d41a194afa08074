"""Elastic re-planning of the hierarchical partition under node churn.

The paper's array is fixed at ``2**H`` accelerators; this module replays a
node-availability trace against it.  At every membership event the
replanner decides whether to keep the current plan, *remap* (refill holes
left by departed nodes without changing the assignment), or *re-plan*
(re-run the hierarchical search on the largest power-of-two sub-array the
survivors support).  Re-sharding is not free: the bytes each node must
fetch to take over its new shard -- weights plus optimizer state for the
weight interval it did not already hold, resident activations for the
batch interval it did not already hold -- are valued through the existing
Table-2 transfer machinery (:class:`~repro.core.communication
.CommunicationModel.bytes_per_element`) and divided by the array's link
bandwidth to get a migration stall.

Two policies are compared:

* ``every-event`` re-plans at every membership change (the Varuna-style
  "always reconfigure" baseline);
* ``hysteresis`` re-plans when *forced* (a used node left) but adopts a
  voluntary grow-replan only when the projected step-time gain over
  ``horizon_steps`` steps exceeds the migration stall.

The timeline is summarized as utilization-over-time segments plus one
decision record per event; :meth:`ReplanReport.to_payload` renders it all
deterministically (see :func:`repro.sweep.artifacts.payload_to_json`), so
serial and process-parallel churn studies and the ``/replan`` endpoint are
byte-identical and golden-pinnable.  Every hierarchical solve of a run
shares one :class:`~repro.core.hierarchical.HierarchicalWarmStart`, so
shrinking and regrowing the array reuses DP prefix state instead of
re-solving from scratch.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping

from repro.accelerator.array import ArrayConfig
from repro.core.hierarchical import HierarchicalWarmStart
from repro.core.placement import Interval, TensorPlacement
from repro.nn.model_zoo import canonical_model_name
from repro.sweep import artifacts
from repro.sweep.spec import PlanConfig, canonicalize_plan
from repro.resilience.traces import AvailabilityTrace

#: Re-planning policies ``hypar replan --policy`` accepts.
POLICIES = ("every-event", "hysteresis")

#: Decision labels recorded per trace event.
ACTIONS = ("replan", "remap", "none", "down")


@dataclasses.dataclass(frozen=True)
class ReplanConfig:
    """One elastic re-planning scenario (canonicalized on construction).

    Its platform fields are :class:`~repro.sweep.spec.PlanConfig`'s but the
    array size, which the survivors set per solve (:meth:`plan`), and the
    engine, which is analytic.
    """

    model: str = "Lenet-c"
    batch_size: int = PlanConfig.batch_size
    policy: str = "every-event"
    topology: str = PlanConfig.topology
    scaling_mode: str = PlanConfig.scaling_mode
    strategies: str = PlanConfig.strategies
    #: Steps the hysteresis policy amortizes a migration stall over.
    horizon_steps: int = 500
    #: Cost-model spec (``"analytic"`` / ``"profiled:<pack>"``) every
    #: per-depth solve and migration pricing evaluates under.
    cost_model: str = PlanConfig.cost_model

    _PLAN_FIELDS = ("batch_size", "topology", "scaling_mode", "strategies", "cost_model")

    def __post_init__(self) -> None:
        object.__setattr__(self, "model", canonical_model_name(self.model))
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown replan policy {self.policy!r}; known: {', '.join(POLICIES)}"
            )
        if self.horizon_steps < 1:
            raise ValueError(f"horizon_steps must be >= 1, got {self.horizon_steps}")
        canonicalize_plan(self, self._PLAN_FIELDS)

    def plan(self, num_accelerators: int) -> PlanConfig:
        """The platform of a ``num_accelerators`` sub-array."""
        return PlanConfig(
            num_accelerators=num_accelerators,
            **{name: getattr(self, name) for name in self._PLAN_FIELDS},
        )

    def to_payload(self) -> dict:
        payload = dataclasses.asdict(self)
        # The analytic default serializes exactly as it always has (the
        # replan golden pins the historical seven-key config payload);
        # only calibrated scenarios carry the extra field.
        if payload["cost_model"] == PlanConfig.cost_model:
            del payload["cost_model"]
        return payload


@dataclasses.dataclass(frozen=True)
class MigrationCost:
    """Bytes a plan transition must move, split by tensor class."""

    weight_bytes: float
    feature_bytes: float

    @property
    def total_bytes(self) -> float:
        return self.weight_bytes + self.feature_bytes

    def seconds(self, bandwidth_bytes: float) -> float:
        """Stall time when every target node restores over its own link."""
        if self.total_bytes == 0.0:
            return 0.0
        return self.total_bytes / bandwidth_bytes


@dataclasses.dataclass(frozen=True)
class _Plan:
    """The running configuration between two trace events."""

    num_levels: int | None  # None when the fleet is fully down
    used: tuple[int, ...]  # node ids in slot order (len == 2**num_levels)
    assignment_levels: tuple[str, ...]
    step_seconds: float | None
    communication_gb: float | None
    placement: "TensorPlacement | None"

    @property
    def is_down(self) -> bool:
        return self.num_levels is None


def _capacity_levels(alive_count: int) -> int | None:
    """Hierarchy depth of the largest power-of-two sub-array available."""
    if alive_count < 1:
        return None
    return alive_count.bit_length() - 1


def _select_nodes(
    levels: int, alive: tuple[int, ...], old_used: tuple[int, ...]
) -> tuple[int, ...]:
    """Deterministic node-to-slot mapping for the next plan.

    Same capacity: survivors keep their exact slots and departed slots are
    refilled from the spare pool in id order (so unaffected shards move
    zero bytes).  Different capacity: survivors keep their relative slot
    order, then spares fill the remainder in id order.
    """
    count = 1 << levels
    alive_set = set(alive)
    if old_used and len(old_used) == count:
        spares = iter(node for node in alive if node not in set(old_used))
        return tuple(
            node if node in alive_set else next(spares) for node in old_used
        )
    keep = [node for node in old_used if node in alive_set][:count]
    spares = [node for node in alive if node not in set(keep)]
    return tuple((keep + spares)[:count])


class ElasticReplanner:
    """Replays an :class:`AvailabilityTrace` and emits a :class:`ReplanReport`."""

    def __init__(self, config: ReplanConfig) -> None:
        self.config = config
        self._array = ArrayConfig()
        # Per-run state, reset by :meth:`run`.
        self._warm: HierarchicalWarmStart | None = None
        self._solves: dict = {}

    # ------------------------------------------------------------------
    # Per-depth solves (shared within one run, warm-started across depths).
    # ------------------------------------------------------------------

    def _solve(self, num_levels: int) -> tuple[tuple[str, ...], float, float, "TensorPlacement | None"]:
        """(assignment levels, step seconds, communication GB, placement)."""
        cached = self._solves.get(num_levels)
        if cached is not None:
            return cached
        from repro.sweep.runner import HYPAR, _model_for

        model = _model_for(self.config.model)
        simulator = self.config.plan(1 << num_levels).simulator()
        if num_levels == 0:
            report = simulator.simulate(
                model, None, self.config.batch_size, strategy_name="single"
            )
            solved = ((), report.step_seconds, report.communication_gb, None)
        else:
            table = simulator.cost_table(model, self.config.batch_size)
            result = simulator.partitioner.partition(
                model, self.config.batch_size, table=table, warm=self._warm
            )
            report = simulator.simulate(
                model, result.assignment, self.config.batch_size, HYPAR, cost_table=table
            )
            placement = TensorPlacement(model, result.assignment)
            solved = (
                tuple(str(level) for level in result.assignment.levels),
                report.step_seconds,
                report.communication_gb,
                placement,
            )
        self._solves[num_levels] = solved
        return solved

    def _make_plan(
        self, num_levels: int | None, alive: tuple[int, ...], old_used: tuple[int, ...]
    ) -> _Plan:
        if num_levels is None:
            return _Plan(None, (), (), None, None, None)
        levels, step_seconds, communication_gb, placement = self._solve(num_levels)
        used = _select_nodes(num_levels, alive, old_used)
        return _Plan(num_levels, used, levels, step_seconds, communication_gb, placement)

    # ------------------------------------------------------------------
    # Migration costing through the Table-2 transfer machinery.
    # ------------------------------------------------------------------

    def _shard_intervals(
        self, plan: _Plan, slot: int, layer_index: int
    ) -> tuple[bool, Interval, Interval]:
        """(owned, batch interval, weight interval) of one slot and layer."""
        if plan.num_levels == 0:
            return True, Interval(), Interval()
        shard = plan.placement.shard(slot, layer_index)
        return shard.owned, shard.batch_interval, shard.weight_interval

    @staticmethod
    def _moved_fraction(new: Interval, old: "Interval | None") -> float:
        """Length of ``new`` not covered by ``old`` (dyadic intervals)."""
        if old is None:
            return new.length
        lower = max(new.start, old.start)
        upper = min(new.stop, old.stop)
        return new.length - max(0.0, upper - lower)

    def _migration(self, old: "_Plan | None", new: _Plan) -> MigrationCost:
        """Bytes every node of ``new`` must fetch that it did not hold.

        Weight shards count kernel plus optimizer (gradient-shaped) state
        -- twice the weight elements of the uncovered weight interval.
        Feature shards count the resident activations of the uncovered
        batch interval (batch rows x output elements), the same one-copy
        accounting as :meth:`TensorPlacement.memory_footprint`.  Elements
        convert to bytes through the communication model's Table-2 word
        size.  Nodes whose shard is unchanged contribute zero.
        """
        if new.is_down:
            return MigrationCost(0.0, 0.0)
        from repro.sweep.runner import _model_for

        model = _model_for(self.config.model)
        simulator = self.config.plan(1 << new.num_levels).simulator()
        bytes_per_element = simulator.communication_model.bytes_per_element
        old_slot_of: dict[int, int] = (
            {} if old is None or old.is_down else {node: slot for slot, node in enumerate(old.used)}
        )
        weight_elements = 0.0
        feature_elements = 0.0
        for slot, node in enumerate(new.used):
            old_slot = old_slot_of.get(node)
            for layer_index, layer in enumerate(model.layers):
                owned, batch_new, weight_new = self._shard_intervals(new, slot, layer_index)
                if not owned:
                    continue
                if old_slot is None:
                    batch_old: Interval | None = None
                    weight_old: Interval | None = None
                else:
                    old_owned, batch_old, weight_old = self._shard_intervals(
                        old, old_slot, layer_index
                    )
                    if not old_owned:
                        batch_old = weight_old = None
                moved_weight = self._moved_fraction(weight_new, weight_old)
                moved_batch = self._moved_fraction(batch_new, batch_old)
                weight_elements += 2.0 * layer.weight_count * moved_weight
                feature_elements += (
                    self.config.batch_size * layer.output_shape.elements * moved_batch
                )
        return MigrationCost(
            weight_bytes=weight_elements * bytes_per_element,
            feature_bytes=feature_elements * bytes_per_element,
        )

    def _migration_bandwidth(self, new: _Plan) -> float:
        """Aggregate restore bandwidth: one link per participating node."""
        return self._array.link_bandwidth_bytes * max(1, len(new.used))

    # ------------------------------------------------------------------
    # The timeline.
    # ------------------------------------------------------------------

    def run(self, trace: AvailabilityTrace) -> "ReplanReport":
        """Replay ``trace`` under the configured policy."""
        self._warm = HierarchicalWarmStart()
        self._solves = {}
        fleet = trace.num_nodes
        alive = tuple(range(fleet))
        plan = self._make_plan(_capacity_levels(fleet), alive, ())
        segments: list[dict] = []
        events: list[dict] = []
        t_previous = 0.0
        for event, alive in trace.replay():
            if event.t > t_previous:
                segments.append(self._segment(t_previous, event.t, fleet, plan))
            t_previous = event.t
            plan, record = self._decide(event, alive, plan)
            events.append(record)
        end = trace.end_time
        if end > t_previous or not segments:
            segments.append(self._segment(t_previous, max(end, t_previous), fleet, plan))
        return ReplanReport(
            config=self.config,
            trace_meta={
                "num_nodes": trace.num_nodes,
                "num_events": len(trace.events),
                "horizon": trace.end_time,
                "preset": trace.preset,
                "seed": trace.seed,
            },
            segments=tuple(segments),
            events=tuple(events),
            warm_stats=self._warm.stats(),
        )

    def _segment(self, t_start: float, t_end: float, fleet: int, plan: _Plan) -> dict:
        return {
            "t_start": t_start,
            "t_end": t_end,
            "used": len(plan.used),
            "num_levels": plan.num_levels,
            "assignment": list(plan.assignment_levels),
            "step_seconds": plan.step_seconds,
            "communication_gb": plan.communication_gb,
            "utilization": len(plan.used) / fleet,
        }

    def _decide(
        self, event, alive: tuple[int, ...], plan: _Plan
    ) -> tuple[_Plan, dict]:
        capacity = _capacity_levels(len(alive))
        policy = self.config.policy
        lost_used = sorted(set(plan.used) - set(alive))
        action = "none"
        migration = MigrationCost(0.0, 0.0)
        migration_seconds = 0.0
        projected_gain_seconds = None
        new_plan = plan

        if capacity is None:
            new_plan = self._make_plan(None, alive, plan.used)
            action = "down"
        elif plan.is_down:
            new_plan = self._make_plan(capacity, alive, ())
            action = "replan"
            migration = self._migration(None, new_plan)
            migration_seconds = migration.seconds(self._migration_bandwidth(new_plan))
        elif lost_used:
            if policy == "hysteresis" and capacity == plan.num_levels:
                # Keep the assignment; only the refilled slots restore state.
                used = _select_nodes(plan.num_levels, alive, plan.used)
                new_plan = dataclasses.replace(plan, used=used)
                action = "remap"
            else:
                new_plan = self._make_plan(capacity, alive, plan.used)
                action = "replan"
            migration = self._migration(plan, new_plan)
            migration_seconds = migration.seconds(self._migration_bandwidth(new_plan))
        elif capacity != plan.num_levels and capacity > (plan.num_levels or 0):
            candidate = self._make_plan(capacity, alive, plan.used)
            gain = (plan.step_seconds or 0.0) - (candidate.step_seconds or 0.0)
            candidate_migration = self._migration(plan, candidate)
            candidate_seconds = candidate_migration.seconds(
                self._migration_bandwidth(candidate)
            )
            projected_gain_seconds = gain * self.config.horizon_steps
            if policy == "every-event" or projected_gain_seconds > candidate_seconds:
                new_plan = candidate
                action = "replan"
                migration = candidate_migration
                migration_seconds = candidate_seconds
            else:
                action = "none"
        elif policy == "every-event":
            # Re-running the search reproduces the same plan; record the
            # no-op replan so the policies' decision counts are comparable.
            new_plan = self._make_plan(capacity, alive, plan.used)
            action = "replan"
            migration = self._migration(plan, new_plan)
            migration_seconds = migration.seconds(self._migration_bandwidth(new_plan))

        record = {
            "t": event.t,
            "event": event.event,
            "nodes": list(event.nodes),
            "alive": len(alive),
            "action": action,
            "num_levels": new_plan.num_levels,
            "used": len(new_plan.used),
            "migration_weight_gb": migration.weight_bytes / 1e9,
            "migration_feature_gb": migration.feature_bytes / 1e9,
            "migration_seconds": migration_seconds,
            "projected_gain_seconds": projected_gain_seconds,
        }
        return new_plan, record


@dataclasses.dataclass(frozen=True)
class ReplanReport:
    """The utilization-over-time outcome of one trace replay."""

    config: ReplanConfig
    trace_meta: Mapping
    segments: tuple[dict, ...]
    events: tuple[dict, ...]
    warm_stats: Mapping

    def totals(self) -> dict:
        duration = 0.0
        weighted_utilization = 0.0
        weighted_throughput = 0.0
        for segment in self.segments:
            dt = segment["t_end"] - segment["t_start"]
            duration += dt
            weighted_utilization += dt * segment["utilization"]
            if segment["step_seconds"]:
                weighted_throughput += dt * (
                    self.config.batch_size / segment["step_seconds"]
                )
        actions = {action: 0 for action in ACTIONS}
        migration_weight_gb = 0.0
        migration_feature_gb = 0.0
        migration_seconds = 0.0
        for event in self.events:
            actions[event["action"]] += 1
            migration_weight_gb += event["migration_weight_gb"]
            migration_feature_gb += event["migration_feature_gb"]
            migration_seconds += event["migration_seconds"]
        return {
            "duration_seconds": duration,
            "mean_utilization": weighted_utilization / duration if duration else 0.0,
            "effective_samples_per_second": (
                weighted_throughput / duration if duration else 0.0
            ),
            "replans": actions["replan"],
            "remaps": actions["remap"],
            "deferred": actions["none"],
            "downtime_events": actions["down"],
            "migration_weight_gb": migration_weight_gb,
            "migration_feature_gb": migration_feature_gb,
            "migration_gb": migration_weight_gb + migration_feature_gb,
            "migration_seconds": migration_seconds,
            "warm_start": dict(self.warm_stats),
        }

    def to_payload(self) -> dict:
        return {
            "config": self.config.to_payload(),
            "trace": dict(self.trace_meta),
            "segments": [dict(segment) for segment in self.segments],
            "events": [dict(event) for event in self.events],
            "totals": self.totals(),
        }

    def to_rows(self) -> list[dict]:
        """Flat per-segment rows (the CSV artifact)."""
        rows = []
        for segment in self.segments:
            row = {
                "model": self.config.model,
                "policy": self.config.policy,
                **{
                    key: segment[key]
                    for key in (
                        "t_start",
                        "t_end",
                        "used",
                        "num_levels",
                        "step_seconds",
                        "communication_gb",
                        "utilization",
                    )
                },
            }
            row["assignment"] = " | ".join(segment["assignment"])
            rows.append(row)
        return rows

    def write_artifacts(self, directory: str, name: str = "replan") -> dict[str, str]:
        """Write ``<name>.json`` and ``<name>.csv`` under ``directory``."""
        import os

        json_path = os.path.join(directory, f"{name}.json")
        csv_path = os.path.join(directory, f"{name}.csv")
        artifacts.write_json(json_path, self.to_payload())
        artifacts.write_csv(csv_path, self.to_rows())
        return {"json": json_path, "csv": csv_path}

    def describe(self) -> str:
        totals = self.totals()
        lines = [
            f"{self.config.model}: {self.config.policy} policy over "
            f"{self.trace_meta['num_events']} events on "
            f"{self.trace_meta['num_nodes']} nodes",
        ]
        for event in self.events:
            lines.append(
                f"  t={event['t']:10.3f} {event['event']:<5} "
                f"{str(event['nodes']):<14} alive={event['alive']:<3} "
                f"{event['action']:<6} used={event['used']:<3} "
                f"migration {event['migration_weight_gb'] + event['migration_feature_gb']:.4f} GB "
                f"({event['migration_seconds']:.3f} s)"
            )
        lines.append(
            f"  mean utilization {totals['mean_utilization']:.3f}, "
            f"effective {totals['effective_samples_per_second']:.1f} samples/s"
        )
        lines.append(
            f"  {totals['replans']} replans / {totals['remaps']} remaps / "
            f"{totals['deferred']} deferred; migration "
            f"{totals['migration_gb']:.4f} GB ({totals['migration_seconds']:.3f} s)"
        )
        warm = totals["warm_start"]
        lines.append(
            f"  warm-start DP: {warm['full_hits']} full hits, "
            f"{warm['reused_layers']} layers reused / {warm['solved_layers']} solved"
        )
        return "\n".join(lines)


def run_replan(trace: AvailabilityTrace, config: ReplanConfig) -> ReplanReport:
    """Convenience wrapper: one replanner, one run."""
    return ElasticReplanner(config).run(trace)
