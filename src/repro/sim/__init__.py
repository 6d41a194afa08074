"""Event-driven simulation of DNN training steps on the accelerator array.

* :mod:`repro.sim.engine` -- a generic discrete-event scheduling engine
  (resources, dependent tasks, event queue).
* :mod:`repro.sim.api` -- the unified entry point: :func:`simulate` over a
  :class:`SimulationSpec`, with keyword-only engine selection.
* :mod:`repro.sim.backend` -- the engine names (``"analytic"`` /
  ``"network"``) and their validation.
* :mod:`repro.sim.training` -- builds the task graph of one training step
  (forward, error backward, gradient computation, weight update, and every
  tensor exchange dictated by the communication model) on either engine's
  fabric and runs it.
* :mod:`repro.sim.network` -- the routed flow plans behind the
  contention-aware engine: exchanges queue on the physical links, held
  as one resource per link class.
* :mod:`repro.sim.metrics` -- the report records (time, energy, traffic).
* :mod:`repro.sim.trace` -- explicit point-to-point transfer lists derived
  from a partitioned network (for link-load studies and export).
"""

from repro._exports import lazy_exports

#: Public name -> defining submodule, imported on first access.
_EXPORTS = {
    "TraceBuilder": "trace",
    "CommunicationTrace": "trace",
    "Transfer": "trace",
    "EventDrivenEngine": "engine",
    "Resource": "engine",
    "Schedule": "engine",
    "ScheduledTask": "engine",
    "SimulationError": "engine",
    "TrainingSimulator": "training",
    "SimulationSpec": "api",
    "SimulationResult": "api",
    "simulate": "api",
    "SIM_ENGINES": "backend",
    "validate_sim_engine": "backend",
    "PHASES": "training",
    "TrainingStepReport": "metrics",
    "PhaseBreakdown": "metrics",
    "EnergyBreakdown": "metrics",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
