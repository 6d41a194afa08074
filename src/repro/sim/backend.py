"""The simulation-engine names shared by every surface that spells one.

Two engines simulate a training step from the same compiled per-level
communication records, through one task-graph builder
(:class:`~repro.sim.training.TrainingSimulator`) that differs only in its
*fabric*, the mapping of tasks onto resources:

* ``"analytic"`` -- the aggregate model: all compute serializes on one
  array-wide PU resource and each hierarchy level is one aggregate link
  resource, so the step time is a closed-form chain with no intra-level
  contention.
* ``"network"`` -- the contention-aware model (:mod:`repro.sim.network`):
  compute on the same lock-step PU resource, exchanges routed over the
  physical links of the :class:`~repro.interconnect.Topology`, with real
  link occupancy/queueing and compute/communication overlap.

This module stays free of imports because the CLI parser reads it before
any simulation runs.
"""

from __future__ import annotations

#: Engine names accepted everywhere a ``sim_engine`` is spelled (CLI,
#: service, sweep specs, :class:`~repro.sim.api.SimulationSpec`).
SIM_ENGINES = ("analytic", "network")

#: The engine used when none is requested; keeps every historical caller,
#: cache key and golden artifact on the analytic model.
DEFAULT_SIM_ENGINE = "analytic"


def validate_sim_engine(name: str | None = None) -> str:
    """Canonicalize a sim-engine spelling (``None`` means the default)."""
    if name is None:
        return DEFAULT_SIM_ENGINE
    if name not in SIM_ENGINES:
        raise ValueError(
            f"unknown sim engine {name!r}; known engines: {', '.join(SIM_ENGINES)}"
        )
    return name
