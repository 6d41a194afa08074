"""Process-global caches shared by sweep tasks.

Sweep task functions are module-level (picklable) and receive only their
point's description, so everything heavy -- compiled
:class:`~repro.core.costs.HierarchicalCostTable` arrays, simulators with
their warmed pass caches and the partitioners they derive -- lives in
per-process caches this module owns:

* :func:`shared_table_cache` -- the one
  :class:`~repro.core.costs.TableCache` of the process, keyed by
  ``(model, strategy space, scaling mode, batch, num_levels)`` (see
  :func:`repro.core.costs.table_cache_key`).  Every simulator
  :func:`cached_simulator` builds is wired to it, so
  ``HierarchicalCostTable`` compilation happens once per configuration per
  process instead of once per sweep point.
* :func:`cached_simulator` -- the one
  :class:`~repro.sim.training.TrainingSimulator` per platform; its
  :attr:`~repro.sim.training.TrainingSimulator.partitioner` searches that
  same platform, so a searched assignment and its simulation cannot
  disagree on it.
* :func:`runtime_cached` -- memoizes arbitrary per-configuration runtime
  objects (simulators, zoo models) under hashable keys.

Under the default ``fork`` start method worker processes inherit whatever
the parent process had already cached; either way each worker warms its own
copy with the first task of a configuration it sees.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from repro.accelerator.array import ArrayConfig
from repro.core.communication import CommunicationModel
from repro.core.costs import TableCache
from repro.core.parallelism import StrategySpace
from repro.core.tensors import ScalingMode
from repro.interconnect import build_topology
from repro.sim.backend import validate_sim_engine
from repro.sim.training import TrainingSimulator

Value = TypeVar("Value")

#: Upper bound on memoized runtime objects; a sweep touches a handful of
#: (array, topology, scaling, strategies) configurations, so this is only a
#: leak guard for pathological callers.
_RUNTIME_LIMIT = 256

_TABLE_CACHE = TableCache()
_RUNTIME: dict = {}


def shared_table_cache() -> TableCache:
    """The process-wide compiled-table cache."""
    return _TABLE_CACHE


def runtime_cached(key: tuple, factory: Callable[[], Value]) -> Value:
    """The memoized ``factory()`` result for ``key`` (per process)."""
    try:
        return _RUNTIME[key]
    except KeyError:
        pass
    if len(_RUNTIME) >= _RUNTIME_LIMIT:
        _RUNTIME.clear()
    value = factory()
    _RUNTIME[key] = value
    return value


def cached_simulator(
    array: ArrayConfig,
    topology: str = "htree",
    scaling_mode: ScalingMode | str = ScalingMode.PARALLELISM_AWARE,
    strategies: StrategySpace | str | None = None,
    communication_model: CommunicationModel | None = None,
    sim_engine: str | None = None,
) -> TrainingSimulator:
    """The process's simulator for one platform, built on first use.

    Equal platforms share one simulator however they are spelled: the key
    holds the parsed scaling mode and strategy space, the communication
    model's :attr:`~repro.core.communication.CommunicationModel.cache_key`
    and the canonical engine name.  ``topology`` names an interconnect for
    :func:`~repro.interconnect.build_topology`; a single accelerator has
    none, whatever the name.  Every simulator compiles into
    :func:`shared_table_cache`.
    """
    communication_model = communication_model or CommunicationModel()
    scaling_mode = ScalingMode.parse(scaling_mode)
    strategies = StrategySpace.parse(strategies)
    sim_engine = validate_sim_engine(sim_engine)
    if array.num_accelerators == 1:
        topology = None

    def build() -> TrainingSimulator:
        return TrainingSimulator(
            array,
            None
            if topology is None
            else build_topology(topology, array.num_accelerators, array.link_bandwidth_bytes),
            communication_model=communication_model,
            scaling_mode=scaling_mode,
            strategies=strategies,
            table_cache=_TABLE_CACHE,
            sim_engine=sim_engine,
        )

    key = (
        "simulator",
        array,
        topology,
        scaling_mode,
        strategies,
        communication_model.cache_key,
        sim_engine,
    )
    return runtime_cached(key, build)


def clear_caches() -> None:
    """Reset both caches (tests; also a fresh-measurement hook for benches)."""
    _TABLE_CACHE.clear()
    _RUNTIME.clear()
