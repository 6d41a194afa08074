"""Experiment drivers that regenerate every table and figure of the paper.

* :mod:`repro.analysis.experiments` -- Figures 5-8 (optimised parallelism,
  performance, energy efficiency, communication).
* :mod:`repro.analysis.exploration` -- Figures 9-10 (parallelism-space
  exploration for Lenet-c and VGG-A).
* :mod:`repro.analysis.scalability` -- Figure 11 (1-64 accelerators).
* :mod:`repro.analysis.topology_study` -- Figure 12 (H tree vs torus).
* :mod:`repro.analysis.trick_study` -- Figure 13 ("one weird trick").
* :mod:`repro.analysis.churn_study` -- re-planning policies under node
  churn (beyond the paper; see the resilience layer).
* :mod:`repro.analysis.congestion_study` -- analytic vs network-engine
  strategy rankings under link contention (beyond the paper; see the
  network simulator).
* :mod:`repro.analysis.report` -- table/series formatting helpers.
"""

from repro._exports import lazy_exports

#: Public name -> defining submodule, imported on first access.
_EXPORTS = {
    "ChurnPoint": "churn_study",
    "ChurnStudy": "churn_study",
    "run_churn_study": "churn_study",
    "CongestionComparison": "congestion_study",
    "CongestionConfig": "congestion_study",
    "CongestionStudy": "congestion_study",
    "run_congestion_study": "congestion_study",
    "ExperimentRunner": "experiments",
    "EvaluationTable": "experiments",
    "ModelComparison": "experiments",
    "MODEL_PARALLELISM": "experiments",
    "DATA_PARALLELISM": "experiments",
    "HYPAR": "experiments",
    "ONE_WEIRD_TRICK": "experiments",
    "ParallelismExplorer": "exploration",
    "ExplorationResult": "exploration",
    "ExplorationPoint": "exploration",
    "describe_point": "exploration",
    "bit_string": "exploration",
    "run_scalability_study": "scalability",
    "ScalabilityStudy": "scalability",
    "ScalabilityCurve": "scalability",
    "ScalabilityPoint": "scalability",
    "DEFAULT_ARRAY_SIZES": "scalability",
    "run_topology_study": "topology_study",
    "TopologyStudy": "topology_study",
    "TopologyComparison": "topology_study",
    "run_trick_study": "trick_study",
    "TrickStudy": "trick_study",
    "TrickComparison": "trick_study",
    "DEFAULT_CONFIGS": "trick_study",
    "FOCUS_LAYERS": "trick_study",
    "focus_subnetwork": "trick_study",
    "geometric_mean": "report",
    "format_table": "report",
    "format_series": "report",
    "format_value": "report",
    "batch_size_sensitivity": "sensitivity",
    "link_bandwidth_sensitivity": "sensitivity",
    "precision_sensitivity": "sensitivity",
    "SensitivityStudy": "sensitivity",
    "SensitivityPoint": "sensitivity",
    "DEFAULT_BATCH_SIZES": "sensitivity",
    "DEFAULT_LINK_BANDWIDTHS": "sensitivity",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
