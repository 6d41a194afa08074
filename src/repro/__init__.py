"""repro -- a reproduction of HyPar (Song et al., HPCA 2019).

HyPar decides, per weighted layer and per hierarchy level of an accelerator
array, whether DNN training should use data parallelism or model
parallelism, by minimising the total inter-accelerator communication with a
linear-time dynamic program.  This package provides:

* :mod:`repro.nn` -- layer/model descriptions and the ten evaluation networks;
* :mod:`repro.core` -- the communication model and the partition search
  (the paper's contribution), plus baselines and an exhaustive validator;
* :mod:`repro.accelerator` -- the HMC-based accelerator and energy models;
* :mod:`repro.interconnect` -- H-tree and torus topologies;
* :mod:`repro.sim` -- the event-driven training-step simulator;
* :mod:`repro.analysis` -- drivers that regenerate every figure of the
  paper's evaluation;
* :mod:`repro.cli` -- a command-line interface (``hypar ...``).

Quickstart
----------

>>> from repro import get_model, HierarchicalPartitioner
>>> model = get_model("AlexNet")
>>> result = HierarchicalPartitioner(num_levels=4).partition(model, batch_size=256)
>>> print(result.describe())  # doctest: +SKIP
"""

from repro._exports import lazy_exports

__version__ = "1.0.0"

#: Public name -> defining subpackage, imported on first access.
_EXPORTS = {
    "Parallelism": "core",
    "LayerAssignment": "core",
    "HierarchicalAssignment": "core",
    "CommunicationModel": "core",
    "TwoWayPartitioner": "core",
    "HierarchicalPartitioner": "core",
    "ScalingMode": "core",
    "DNNModel": "nn",
    "build_model": "nn",
    "get_model": "nn",
    "ArrayConfig": "accelerator",
    "EnergyModel": "accelerator",
    "HTreeTopology": "interconnect",
    "TorusTopology": "interconnect",
    "build_topology": "interconnect",
    "TrainingSimulator": "sim",
    "PlanConfig": "sweep",
    "SimulationResult": "sim",
    "simulate": "sim",
    "ExperimentRunner": "analysis",
}

__all__ = ["__version__", *_EXPORTS]
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
