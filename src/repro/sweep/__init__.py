"""Sweep orchestration: one cached, process-parallel runner for every study.

The paper's evaluation (Figures 6-13) is a grid of independent
search-plus-simulate jobs.  This package factors the machinery every
`repro.analysis` study shares:

* :class:`~repro.sweep.engine.SweepEngine` -- deterministic, chunked
  mapping of task functions over task lists, in-process by default and
  process-parallel on request, with byte-identical results either way;
* :class:`~repro.sweep.spec.SweepSpec` / presets -- declarative grid
  descriptions (models x strategy spaces x topologies x scaling modes x
  batch sizes x array sizes) runnable as ``hypar sweep <spec.json|preset>``;
* :mod:`~repro.sweep.cache` -- the process-global shared compiled-table
  cache (`repro.core.costs.TableCache`) and runtime-object memoization the
  task functions warm;
* :mod:`~repro.sweep.runner` -- the generic grid runner producing flat
  figure rows;
* :mod:`~repro.sweep.artifacts` -- deterministic JSON/CSV writers.

See the "Sweep orchestration engine" section of DESIGN.md for the design
notes (spec format, cache keys, worker model).
"""

from repro._exports import lazy_exports

#: Public name -> defining submodule, imported on first access.
_EXPORTS = {
    "DATA_PARALLELISM": "runner",
    "HYPAR": "runner",
    "MODEL_PARALLELISM": "runner",
    "PAPER_MODELS": "spec",
    "PRESETS": "spec",
    "StrategyMetrics": "runner",
    "SweepEngine": "engine",
    "SweepPoint": "spec",
    "SweepRecord": "runner",
    "SweepResult": "runner",
    "SweepSpec": "spec",
    "chunk_tasks": "engine",
    "clear_caches": "cache",
    "default_workers": "engine",
    "evaluate_point": "runner",
    "load_spec": "spec",
    "resolve_engine": "engine",
    "rows_to_csv": "artifacts",
    "run_sweep": "runner",
    "runtime_cached": "cache",
    "shared_table_cache": "cache",
    "write_csv": "artifacts",
    "write_json": "artifacts",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
