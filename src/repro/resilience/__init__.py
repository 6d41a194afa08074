"""Resilience layer: availability traces, elastic re-planning, fault injection.

The paper assumes a fixed, fully available ``2**H`` array; this package
replays node churn against it (:mod:`~repro.resilience.traces`,
:mod:`~repro.resilience.replan`) and injects deterministic faults into the
sweep/service stack (:mod:`~repro.resilience.faults`) to exercise the
degradation paths.  See the "Resilience layer" section of DESIGN.md.
"""

from repro._exports import lazy_exports

#: Public name -> defining submodule, imported on first access.
_EXPORTS = {
    "AvailabilityTrace": "traces",
    "ElasticReplanner": "replan",
    "EVENT_KINDS": "traces",
    "FAULT_PRESET_NAMES": "faults:PRESET_NAMES",
    "FaultInjected": "faults",
    "FaultInjector": "faults",
    "FaultPlan": "faults",
    "MigrationCost": "replan",
    "POLICIES": "replan",
    "ReplanConfig": "replan",
    "ReplanReport": "replan",
    "TRACE_PRESET_NAMES": "traces:PRESET_NAMES",
    "TraceEvent": "traces",
    "faulty_map": "faults",
    "faulty_sweep_task": "faults",
    "run_replan": "replan",
    "synthesize_trace": "traces",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
