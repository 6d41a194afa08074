"""HyPar's core contribution: the communication model and the partition search.

The package is organised around three ideas from the paper:

1. **Communication model** (:mod:`repro.core.communication`): for a layer
   assigned data or model parallelism, where communication comes from and
   how much of it there is (Tables 1 and 2).
2. **Partition between two accelerator groups**
   (:mod:`repro.core.partitioner`): Algorithm 1, a linear-time dynamic
   program minimising total communication.
3. **Hierarchical partition** (:mod:`repro.core.hierarchical`): Algorithm 2,
   which applies the two-way partition recursively to an array of ``2**H``
   accelerators.

Baselines (default Data/Model Parallelism and "one weird trick"), an
exhaustive-search validator and the result records round out the package.

The hot paths run on the **vectorized cost-table engine**
(:mod:`repro.core.costs`): :class:`CostTable` /
:class:`HierarchicalCostTable` compile the communication model into NumPy
arrays once per (model, batch, scales) and the searches, brute-force
validators and restricted sweeps score whole batches of candidate
bit-patterns against them, materializing breakdown objects lazily for the
winners only.  The object-based path remains in-tree as the bit-exact
oracle (``*_reference`` entry points).
"""

from repro._exports import lazy_exports

#: Public name -> defining submodule, imported on first access.
_EXPORTS = {
    "Parallelism": "parallelism",
    "DATA": "parallelism",
    "MODEL": "parallelism",
    "PIPELINE": "parallelism",
    "StrategySpace": "parallelism",
    "DEFAULT_SPACE": "parallelism",
    "FULL_SPACE": "parallelism",
    "StrategySpec": "strategies",
    "register_strategy": "strategies",
    "registered_strategies": "strategies",
    "strategy_spec": "strategies",
    "LayerAssignment": "parallelism",
    "HierarchicalAssignment": "parallelism",
    "CommunicationModel": "communication",
    "LayerCommunication": "communication",
    "PAIR_FACTOR": "communication",
    "BYTES_PER_ELEMENT": "tensors",
    "LayerTensors": "tensors",
    "TensorScale": "tensors",
    "ScalingMode": "tensors",
    "layer_tensors": "tensors",
    "model_tensors": "tensors",
    "descend_scales": "tensors",
    "initial_scales": "tensors",
    "elements_to_bytes": "tensors",
    "TwoWayPartitioner": "partitioner",
    "HierarchicalPartitioner": "hierarchical",
    "DEFAULT_NUM_LEVELS": "hierarchical",
    "DEFAULT_BATCH_SIZE": "hierarchical",
    "PartitionResult": "result",
    "LevelResult": "result",
    "HierarchicalResult": "result",
    "data_parallelism": "baselines",
    "model_parallelism": "baselines",
    "one_weird_trick": "baselines",
    "pipeline_parallelism": "baselines",
    "random_assignment": "baselines",
    "get_strategy": "baselines",
    "STRATEGIES": "baselines",
    "all_layer_assignments": "exhaustive",
    "exhaustive_two_way": "exhaustive",
    "exhaustive_two_way_reference": "exhaustive",
    "exhaustive_hierarchical": "exhaustive",
    "exhaustive_hierarchical_reference": "exhaustive",
    "enumerate_restricted": "exhaustive",
    "enumerate_restricted_communication": "exhaustive",
    "restricted_assignment": "exhaustive",
    "SearchSpaceTooLarge": "exhaustive",
    "CostTable": "costs",
    "HierarchicalCostTable": "costs",
    "compile_cost_table": "costs",
    "TensorPlacement": "placement",
    "LayerShard": "placement",
    "Interval": "placement",
    "AcceleratorFootprint": "placement",
    "placement_summary": "placement",
    "TwoGroupExecutor": "execution",
    "PartitionedStepResult": "execution",
    "CommunicationEvent": "execution",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
