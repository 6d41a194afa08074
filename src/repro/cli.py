"""Command-line interface for the HyPar reproduction.

Installed as the ``hypar`` console script (also runnable with
``python -m repro``).  Sub-commands:

``hypar partition <model>``
    Run the hierarchical partition search for one network and print the
    per-level parallelism lists (the content of Figure 5).

``hypar compare [<model> ...]``
    Simulate Model Parallelism, Data Parallelism and HyPar and print the
    normalised performance / energy-efficiency / communication tables
    (Figures 6-8).

``hypar scalability``
    Sweep the array size (Figure 11).

``hypar topology``
    Compare the H-tree and torus interconnects (Figure 12).

``hypar trick``
    Compare HyPar with "one weird trick" (Figure 13).

``hypar placement <model>``
    Show which slice of every tensor each accelerator holds under HyPar's
    searched assignment, plus per-accelerator memory footprints.

``hypar trace <model>``
    Summarise the point-to-point communication trace of one training step
    (per phase, per hierarchy level, per layer).

``hypar simulate <model> [--sim-engine analytic|network]``
    Simulate one training step through the unified ``repro.sim.simulate``
    entry point: search HyPar's assignment (or simulate a uniform
    baseline via ``--strategy``), then report the step time, energy and
    per-phase breakdown.  ``--sim-engine network`` routes the step
    through the contention-aware discrete-event network simulator
    (per-physical-link occupancy and queueing) instead of the analytic
    engine (see the "Network simulator" section of DESIGN.md).

``hypar models [<model> ...] [--format table|json]``
    List the available networks.  With model names given, print the
    per-layer shape/weight/MACs table plus the layer-graph edge list;
    ``--format json`` emits the same information as JSON.

``hypar strategies``
    List the registered per-layer parallelism strategies.

``hypar sweep <spec.json|preset>``
    Run a declarative sweep grid (models x strategy spaces x topologies x
    scaling modes x batch sizes x array sizes x sim engines) through the
    shared sweep engine.  ``--workers N`` fans the points out over N
    worker processes (byte-identical to the serial run); ``--out DIR``
    writes the JSON/CSV artifacts; ``--sim-engine network`` runs the
    whole grid under the network simulator.  ``hypar sweep --list`` names
    the built-in presets.

``hypar replan [<model>] [--trace t.jsonl | --preset spot] [--policy P]``
    Replay an availability trace (node churn) against the partitioner:
    at every membership change, re-partition the surviving sub-array
    (warm-started DP), cost the re-shard migration traffic, and report
    utilization over time under the chosen re-planning policy
    (``every-event`` or ``hysteresis``).  See the "Resilience layer"
    section of DESIGN.md.

``hypar serve [--port P] [--workers N] [--cache-size M]``
    Run the long-lived partition service: an HTTP daemon answering
    ``POST /partition``, ``POST /simulate``, ``POST /sweep``,
    ``POST /replan``, ``GET /models``, ``GET /strategies`` and
    ``GET /healthz`` from a warm LRU response cache over the shared
    compiled-table cache, with a persistent ``--workers N`` pool behind
    ``/sweep``.  ``--request-timeout S`` bounds each request server-side
    (504 on overrun).  The one-shot commands above remain the batch path;
    the daemon serves repeated traffic at steady-state latencies (see the
    "Service layer" section of DESIGN.md).  Stops cleanly on
    SIGTERM/SIGINT.

Most sub-commands accept ``--strategies dp,mp,pp`` to widen the per-layer
search axis beyond the paper's binary dp/mp choice (the default, which
reproduces the paper exactly).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

# Every command builds the whole parser, whose choices, defaults and
# validators come from these modules.  Anything else is imported by the
# handler that runs it, so a command loads only what it uses.
from repro.accelerator.array import ArrayConfig
from repro.core.strategies import registered_strategies
from repro.core.tensors import ScalingMode
from repro.nn.model_zoo import all_model_builders, get_model
from repro.sim.backend import SIM_ENGINES
from repro.sweep.spec import TOPOLOGY_NAMES, PlanConfig


def _model_name(name: str) -> str:
    """``type=`` of model-name arguments: a name :func:`get_model` accepts."""
    try:
        get_model(name)
    except (KeyError, ValueError) as error:
        # KeyError reprs with quotes around the message; unwrap it.
        raise argparse.ArgumentTypeError(error.args[0]) from None
    return name


def _plan_option(field: str, convert=str):
    """``type=`` of the option setting platform ``field``: the ``convert``-ed
    text in :class:`~repro.sweep.spec.PlanConfig`'s canonical spelling."""

    def parse(text: str):
        value = convert(text)
        try:
            return PlanConfig.canonical(field, value)
        except ValueError as error:
            raise argparse.ArgumentTypeError(str(error)) from None

    # argparse names a failed ``convert`` after the type function.
    parse.__name__ = field
    return parse


_batch_size = _plan_option("batch_size", int)
#: ``simulate --accelerators``: one accelerator is allowed there.
_array_size = _plan_option("num_accelerators", int)


def _accelerator_count(text: str) -> int:
    """``type=`` of ``--accelerators`` where a partition is searched.

    A single accelerator has no pair to split work across, so these
    commands need at least two (the service applies the same bound).
    """
    count = _array_size(text)
    if count < 2:
        raise argparse.ArgumentTypeError(
            f"num_accelerators must be a power of two >= 2, got {count}"
        )
    return count


def _array_sizes(text: str) -> list[int]:
    """``type=`` of ``scalability --sizes``: comma-separated array sizes."""
    try:
        return [_array_size(size) for size in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated powers of two, got {text!r}"
        ) from None


def _positive_int(text: str) -> int:
    """``type=`` of counts that must be at least one."""
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _fleet_size(text: str) -> int:
    """``type=`` of ``replan --nodes``: a fleet the replanner can shrink."""
    count = int(text)
    if count < 2:
        raise argparse.ArgumentTypeError(f"a fleet needs at least 2 nodes, got {count}")
    return count


def _port(text: str) -> int:
    """``type=`` of ``serve --port``: a TCP port (0 picks a free one)."""
    port = int(text)
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(f"must be a TCP port in 0-65535, got {port}")
    return port


def _positive_seconds(text: str) -> float:
    """``type=`` of ``serve --request-timeout``: a positive duration."""
    seconds = float(text)
    if not seconds > 0:
        raise argparse.ArgumentTypeError(f"must be a positive number of seconds, got {text}")
    return seconds


def _cost_model(text: str) -> str:
    """``type=`` of ``--cost-model``: a spec that resolves to a cost model
    (unlike the service, the CLI may name a profile file by its path)."""
    from repro.core.costmodel import resolve_cost_model

    try:
        spec = PlanConfig.canonical("cost_model", text)
        resolve_cost_model(spec)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return spec


def _sweep_spec(name_or_path: str):
    """``type=`` of the ``sweep`` spec: a preset name or a readable spec file."""
    from repro.sweep.spec import load_spec

    try:
        return load_spec(name_or_path)
    except (OSError, ValueError) as error:
        raise argparse.ArgumentTypeError(str(error)) from None


# The platform options take their defaults and validators from PlanConfig;
# a ``choices`` list only names the canonical values in the usage text.
# ``default=None`` (``hypar sweep``) keeps the spec's axis when omitted.


def _add_batch_size_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--batch-size",
        type=_batch_size,
        default=PlanConfig.batch_size,
        help="training batch size (default: %(default)s, the paper's setting)",
    )


def _add_platform_options(
    parser: argparse.ArgumentParser, accelerator_type=_accelerator_count
) -> None:
    _add_batch_size_option(parser)
    parser.add_argument(
        "--accelerators",
        type=accelerator_type,
        default=PlanConfig.num_accelerators,
        help="number of accelerators in the array; a power of two, at least 2 "
        "where a partition is searched (default: %(default)s)",
    )
    _add_space_options(parser)


def _add_scaling_mode_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scaling-mode",
        type=_plan_option("scaling_mode"),
        choices=[mode.value for mode in ScalingMode],
        default=PlanConfig.scaling_mode,
        help="how tensor amounts shrink at deeper hierarchy levels "
        "(default: %(default)s)",
    )


def _add_space_options(parser: argparse.ArgumentParser) -> None:
    _add_scaling_mode_option(parser)
    parser.add_argument(
        "--strategies",
        type=_plan_option("strategies"),
        default=PlanConfig.strategies,
        metavar="LIST",
        help="comma-separated per-layer strategy space searched at every "
        "level, e.g. dp,mp,pp (default: %(default)s, the paper's axis; see "
        "'hypar strategies')",
    )


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    _add_platform_options(parser)
    _add_cost_model_option(parser)


def _add_cost_model_option(
    parser: argparse.ArgumentParser, default: str | None = PlanConfig.cost_model
) -> None:
    parser.add_argument(
        "--cost-model",
        type=_cost_model,
        default=default,
        metavar="SPEC",
        help="where the Table-1/2 cost numbers come from: 'analytic' (the "
        "paper's formulas) or 'profiled:<pack>' with a shipped profile "
        "pack name or a path to a hypar-profile/v1 JSON (see "
        "repro.core.costmodel; default: "
        + ("the spec's cost models" if default is None else "%(default)s")
        + ")",
    )


def _add_sim_engine_option(
    parser: argparse.ArgumentParser, default: str | None = PlanConfig.sim_engine
) -> None:
    parser.add_argument(
        "--sim-engine",
        type=_plan_option("sim_engine"),
        choices=SIM_ENGINES,
        default=default,
        help="step-time engine: 'analytic' (the paper's closed-form link "
        "model) or 'network' (contention-aware discrete-event simulation "
        "of the physical links; see repro.sim.network; default: "
        + ("the spec's engines" if default is None else "%(default)s")
        + ")",
    )


def _build_runner(args: argparse.Namespace, include_trick: bool = False):
    from repro.analysis.experiments import ExperimentRunner

    return ExperimentRunner(
        array=ArrayConfig(num_accelerators=args.accelerators),
        batch_size=args.batch_size,
        scaling_mode=args.scaling_mode,
        include_trick=include_trick,
        strategies=args.strategies,
        cost_model=args.cost_model,
    )


def _model_as_dict(model) -> dict:
    """JSON-ready description of one model: per-layer table plus edge list."""
    return {
        "name": model.name,
        "input_shape": [
            model.input_shape.height,
            model.input_shape.width,
            model.input_shape.channels,
        ],
        "is_chain": model.is_chain,
        "layers": [
            {
                "index": layer.index,
                "name": layer.name,
                "type": str(layer.layer_type),
                "input_shape": str(layer.input_shape),
                "output_shape": str(layer.output_shape),
                "weights": layer.weight_count,
                "macs_per_sample": layer.macs_per_sample,
                "inputs": list(layer.inputs),
                "merge": str(layer.merge) if layer.is_merge else None,
            }
            for layer in model
        ],
        "edges": [[source, destination] for source, destination in model.edges],
        "total_weights": model.total_weights,
    }


def _format_model_edges(model) -> str:
    if model.is_chain:
        return "edges: chain"
    pairs = " ".join(f"{source}->{destination}" for source, destination in model.edges)
    return f"edges: {pairs}"


def _print_model_table(model) -> None:
    print(model.summary())
    print(f"  {_format_model_edges(model)}")


def _cmd_models(args: argparse.Namespace) -> int:
    if args.layers is not None and not args.models:
        print(
            "error: --layers requires model names (e.g. hypar models gpt_s --layers 96)",
            file=sys.stderr,
        )
        return 2
    if args.models:
        try:
            models = [get_model(name, layers=args.layers) for name in args.models]
        except (KeyError, ValueError) as error:
            # KeyError reprs with quotes around the message; unwrap it.
            message = error.args[0] if error.args else str(error)
            print(f"error: {message}", file=sys.stderr)
            return 2
    else:
        models = [builder() for builder in all_model_builders().values()]

    if args.format == "json":
        import json

        print(json.dumps([_model_as_dict(model) for model in models], indent=2))
        return 0

    if args.models:
        # Detailed per-layer shape/weight/MACs table plus the edge list.
        for model in models:
            _print_model_table(model)
        return 0
    for model in models:
        graph_note = "" if model.is_chain else f", {model.num_edges} edges (DAG)"
        print(
            f"{model.name:<10s} {model.num_weighted_layers:>3d} weighted layers "
            f"({model.num_conv_layers} conv, {model.num_fc_layers} fc), "
            f"{model.total_weights:,d} weights{graph_note}"
        )
    return 0


def _cmd_strategies(_: argparse.Namespace) -> int:
    print("registered per-layer parallelism strategies:")
    for spec in registered_strategies():
        descent = {
            "batch": "halves the batch fraction",
            "weight": "halves the weight fraction",
            "none": "stage-local (halves neither)",
        }[spec.halves]
        print(f"  {spec.short}  {spec.parallelism.name.lower():<9s} {descent}")
        print(f"      {spec.description}")
    print(
        "\npass a comma-separated subset via --strategies (e.g. "
        "--strategies dp,mp,pp) to widen the search space"
    )
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    model = get_model(args.model)
    runner = _build_runner(args)
    result = runner.optimized_parallelism(model)
    print(result.describe())
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    runner = _build_runner(args, include_trick=args.include_trick)
    models = [get_model(name) for name in args.models] if args.models else None
    table = runner.run(models)
    print(table.format())
    return 0


def _write_study_rows(args: argparse.Namespace, name: str, rows) -> None:
    """Honour a study command's ``--out DIR`` via the shared writers."""
    if getattr(args, "out", None):
        from repro.analysis.report import write_study_artifacts

        paths = write_study_artifacts(name, rows, args.out)
        print(f"artifacts: {paths['json']} {paths['csv']}")


def _cmd_scalability(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_series
    from repro.analysis.scalability import run_scalability_study

    model = get_model(args.model)
    study = run_scalability_study(
        model=model,
        array_sizes=args.sizes,
        batch_size=args.batch_size,
        scaling_mode=args.scaling_mode,
        strategies=args.strategies,
    )
    rows = study.as_rows()
    print(
        format_series(
            f"Figure 11: performance gain of HyPar on {model.name} (vs 1 accelerator)",
            [row["num_accelerators"] for row in rows],
            [row["hypar_gain"] for row in rows],
        )
    )
    print(
        format_series(
            "Figure 11: performance gain of Data Parallelism (vs 1 accelerator)",
            [row["num_accelerators"] for row in rows],
            [row["dp_gain"] for row in rows],
        )
    )
    print(
        format_series(
            "Figure 11: total communication of HyPar (GB/step)",
            [row["num_accelerators"] for row in rows],
            [row["hypar_comm_gb"] for row in rows],
        )
    )
    print(
        format_series(
            "Figure 11: total communication of Data Parallelism (GB/step)",
            [row["num_accelerators"] for row in rows],
            [row["dp_comm_gb"] for row in rows],
        )
    )
    _write_study_rows(args, "scalability", rows)
    return 0


def _cmd_topology(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.analysis.topology_study import run_topology_study

    models = [get_model(name) for name in args.models] if args.models else None
    study = run_topology_study(
        models=models,
        array=ArrayConfig(num_accelerators=args.accelerators),
        batch_size=args.batch_size,
        scaling_mode=args.scaling_mode,
        strategies=args.strategies,
    )
    rows = {
        row["model"]: {"Torus": row["torus"], "H Tree": row["h_tree"]}
        for row in study.as_rows()
    }
    print(
        format_table(
            "Figure 12: normalized performance of torus and H-tree topology",
            rows,
            ["Torus", "H Tree"],
        )
    )
    _write_study_rows(args, "topology", study.as_rows())
    return 0


def _cmd_trick(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.analysis.trick_study import run_trick_study

    study = run_trick_study(
        scaling_mode=args.scaling_mode, strategies=args.strategies
    )
    rows = {
        row["config"]: {
            "Performance": row["performance"],
            "Energy Efficiency": row["energy_efficiency"],
        }
        for row in study.as_rows()
    }
    print(
        format_table(
            'Figure 13: HyPar versus "one weird trick"',
            rows,
            ["Performance", "Energy Efficiency"],
        )
    )
    _write_study_rows(args, "trick", study.as_rows())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sweep import HYPAR, PRESETS, SweepEngine, run_sweep

    if args.list:
        print("sweep presets:")
        for name in sorted(PRESETS):
            print(f"  {name:<8s} {PRESETS[name].describe()}")
        return 0
    if args.spec is None:
        print("error: a spec (preset name or .json path) is required", file=sys.stderr)
        return 2

    import dataclasses

    spec = args.spec
    # A given flag overrides its axis wholesale, whatever its value: the
    # whole grid runs under the named provider or engine.  An omitted
    # flag keeps the spec's axis.
    if args.cost_model is not None:
        spec = dataclasses.replace(spec, cost_models=(args.cost_model,))
    if args.sim_engine is not None:
        spec = dataclasses.replace(spec, sim_engines=(args.sim_engine,))
    print(spec.describe())
    with SweepEngine(workers=args.workers) as engine:
        result = run_sweep(spec, engine=engine)

    header = f"{'point':<52s} {'speedup':>9s} {'energy':>9s} {'comm GB':>9s}"
    print(header)
    for record in result.records:
        if len(record.metrics) > 1:
            speedup = f"{record.speedup():9.3f}"
            energy = f"{record.energy_efficiency():9.3f}"
            comm = f"{record.metrics[HYPAR].communication_gb:9.3f}"
        else:
            metrics = next(iter(record.metrics.values()))
            speedup = f"{'-':>9s}"
            energy = f"{'-':>9s}"
            comm = f"{metrics.communication_gb:9.3f}"
        print(f"{record.point.label():<52s} {speedup} {energy} {comm}")

    if args.out:
        paths = result.write_artifacts(args.out)
        print(f"artifacts: {paths['json']} {paths['csv']}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import serve

    fault_plan = None
    if args.fault_preset:
        from repro.resilience.faults import FaultPlan

        fault_plan = FaultPlan.preset(args.fault_preset, seed=args.fault_seed)
    return serve(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_size=args.cache_size,
        log_requests=args.log_requests,
        request_timeout=args.request_timeout,
        fault_plan=fault_plan,
        cost_model=args.cost_model,
    )


def _cmd_replan(args: argparse.Namespace) -> int:
    from repro.resilience.replan import ReplanConfig, run_replan
    from repro.resilience.traces import AvailabilityTrace, synthesize_trace

    if args.trace:
        try:
            trace = AvailabilityTrace.load(args.trace, num_nodes=args.nodes)
        except (OSError, ValueError) as error:
            args.error(f"argument --trace: {error}")
    else:
        trace = synthesize_trace(
            args.preset, num_nodes=args.nodes, seed=args.seed, num_events=args.events
        )
    if args.emit_trace:
        trace.save(args.emit_trace)
        print(f"trace: {args.emit_trace}")
    config = ReplanConfig(
        model=args.model,
        batch_size=args.batch_size,
        policy=args.policy,
        scaling_mode=args.scaling_mode,
        horizon_steps=args.horizon_steps,
        cost_model=args.cost_model,
    )
    report = run_replan(trace, config)
    print(report.describe())
    if args.out:
        paths = report.write_artifacts(args.out)
        print(f"artifacts: {paths['json']} {paths['csv']}")
    return 0


def _cmd_placement(args: argparse.Namespace) -> int:
    from repro.core.placement import TensorPlacement, placement_summary

    model = get_model(args.model)
    runner = _build_runner(args)
    result = runner.optimized_parallelism(model)
    placement = TensorPlacement(model, result.assignment)
    placement.validate()
    print(placement_summary(placement, args.batch_size))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.sim.trace import TraceBuilder

    model = get_model(args.model)
    runner = _build_runner(args)
    result = runner.optimized_parallelism(model)
    trace = TraceBuilder(
        communication_model=runner.simulator.communication_model,
        scaling_mode=runner.scaling_mode,
    ).build(model, result.assignment, args.batch_size)
    print(
        f"{model.name}: {len(trace.transfers)} transfers, "
        f"{trace.total_bytes / 1e9:.3f} GB per training step"
    )
    print("by phase:")
    for phase, volume in trace.bytes_by_phase().items():
        print(f"  {phase:<10s} {volume / 1e9:10.3f} GB")
    print("by hierarchy level:")
    for level, volume in sorted(trace.bytes_by_level().items()):
        print(f"  H{level + 1:<9d} {volume / 1e9:10.3f} GB")
    print("by layer:")
    for layer, volume in trace.bytes_by_layer().items():
        print(f"  {layer:<10s} {volume / 1e9:10.3f} GB")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.core.baselines import data_parallelism, model_parallelism
    from repro.sim.api import SimulationSpec
    from repro.sim.api import simulate as run_simulation
    from repro.sim.training import PHASES

    if args.strategy != "hypar" and args.accelerators == 1:
        args.error(
            f"argument --strategy: the {args.strategy} baseline needs at least "
            "2 accelerators, got --accelerators 1"
        )
    model = get_model(args.model)
    simulator = PlanConfig(
        batch_size=args.batch_size,
        num_accelerators=args.accelerators,
        topology=args.topology,
        scaling_mode=args.scaling_mode,
        strategies=args.strategies,
        sim_engine=args.sim_engine,
    ).simulator()

    assignment = None
    strategy_name = None
    num_levels = simulator.array.num_levels
    if args.strategy == "dp":
        assignment = data_parallelism(model, num_levels)
        strategy_name = "Data Parallelism"
    elif args.strategy == "mp":
        assignment = model_parallelism(model, num_levels)
        strategy_name = "Model Parallelism"

    result = run_simulation(
        model,
        assignment,
        SimulationSpec(batch_size=args.batch_size, sim_engine=args.sim_engine),
        simulator=simulator,
        strategy_name=strategy_name,
    )
    report = result.report
    print(
        f"{report.model_name} / {report.strategy_name} on {report.topology_name} "
        f"({report.num_accelerators} accelerators, batch {report.batch_size}, "
        f"{result.sim_engine} engine)"
    )
    if result.assignment is not None:
        levels = " | ".join(str(level) for level in result.assignment.levels)
        print(f"  levels:        {levels}")
    print(f"  step time:     {report.step_seconds * 1e3:.3f} ms")
    print(f"  energy:        {report.energy_joules:.3f} J")
    print(f"  communication: {report.communication_gb:.3f} GB")
    for phase in PHASES:
        breakdown = report.phase_seconds[phase]
        print(
            f"  {phase + ':':<10s}     compute {breakdown.compute_seconds * 1e3:.3f} ms, "
            f"link busy {breakdown.communication_seconds * 1e3:.3f} ms"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="hypar",
        description="HyPar: hybrid parallelism for a DNN accelerator array "
        "(HPCA 2019 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    models_parser = subparsers.add_parser(
        "models",
        help="list the evaluation networks (pass names for the per-layer "
        "shape/weight/MACs table plus the edge list)",
    )
    models_parser.add_argument(
        "models",
        nargs="*",
        help="network names; with none given, summarise the whole zoo",
    )
    models_parser.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="output format (default: %(default)s)",
    )
    models_parser.add_argument(
        "--layers",
        type=int,
        default=None,
        metavar="N",
        help="block depth for parameterized models (gpt_s, bert_s); "
        "e.g. 'hypar models gpt_s --layers 96'",
    )
    models_parser.set_defaults(handler=_cmd_models)

    strategies_parser = subparsers.add_parser(
        "strategies", help="list the registered per-layer parallelism strategies"
    )
    strategies_parser.set_defaults(handler=_cmd_strategies)

    partition_parser = subparsers.add_parser(
        "partition", help="search the hybrid parallelism for one network (Figure 5)"
    )
    partition_parser.add_argument(
        "model", type=_model_name, help="network name, e.g. AlexNet or VGG-A"
    )
    _add_common_options(partition_parser)
    partition_parser.set_defaults(handler=_cmd_partition)

    compare_parser = subparsers.add_parser(
        "compare", help="simulate MP / DP / HyPar for a set of networks (Figures 6-8)"
    )
    compare_parser.add_argument(
        "models",
        nargs="*",
        type=_model_name,
        help="network names (default: all ten evaluation networks)",
    )
    compare_parser.add_argument(
        "--include-trick",
        action="store_true",
        help='also simulate "one weird trick"',
    )
    _add_common_options(compare_parser)
    compare_parser.set_defaults(handler=_cmd_compare)

    scalability_parser = subparsers.add_parser(
        "scalability", help="sweep the array size (Figure 11)"
    )
    scalability_parser.add_argument("--model", type=_model_name, default="VGG-A")
    scalability_parser.add_argument(
        "--sizes",
        type=_array_sizes,
        default="1,2,4,8,16,32,64",
        help="comma-separated accelerator counts, each a power of two "
        "(default: %(default)s)",
    )
    scalability_parser.add_argument(
        "--out", metavar="DIR", help="write the study rows as JSON/CSV artifacts"
    )
    _add_batch_size_option(scalability_parser)
    _add_space_options(scalability_parser)
    scalability_parser.set_defaults(handler=_cmd_scalability)

    topology_parser = subparsers.add_parser(
        "topology", help="compare H-tree and torus interconnects (Figure 12)"
    )
    topology_parser.add_argument("models", nargs="*", type=_model_name)
    topology_parser.add_argument(
        "--out", metavar="DIR", help="write the study rows as JSON/CSV artifacts"
    )
    _add_platform_options(topology_parser)
    topology_parser.set_defaults(handler=_cmd_topology)

    trick_parser = subparsers.add_parser(
        "trick", help='compare HyPar with "one weird trick" (Figure 13)'
    )
    trick_parser.add_argument(
        "--out", metavar="DIR", help="write the study rows as JSON/CSV artifacts"
    )
    _add_space_options(trick_parser)
    trick_parser.set_defaults(handler=_cmd_trick)

    sweep_parser = subparsers.add_parser(
        "sweep",
        help="run a declarative sweep grid (spec JSON or preset) through the "
        "cached, optionally process-parallel engine",
    )
    sweep_parser.add_argument(
        "spec",
        nargs="?",
        type=_sweep_spec,
        help="preset name (see --list) or path to a sweep spec .json",
    )
    sweep_parser.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="worker processes (default: %(default)s, i.e. serial; results "
        "are byte-identical for any worker count)",
    )
    sweep_parser.add_argument(
        "--out",
        metavar="DIR",
        help="directory to write the <spec>.json / <spec>.csv artifacts to",
    )
    sweep_parser.add_argument(
        "--list", action="store_true", help="list the built-in sweep presets"
    )
    _add_cost_model_option(sweep_parser, default=None)
    _add_sim_engine_option(sweep_parser, default=None)
    sweep_parser.set_defaults(handler=_cmd_sweep)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the long-lived partition service (HTTP daemon with a warm "
        "cache; the other commands remain the one-shot batch path)",
    )
    # Literal defaults mirror repro.service (asserted equal by the CLI
    # tests) so the service package only imports when `serve` runs.
    serve_parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default: %(default)s, loopback only)",
    )
    serve_parser.add_argument(
        "--port",
        type=_port,
        default=8100,
        help="TCP port (default: %(default)s; 0 picks a free port)",
    )
    serve_parser.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="persistent worker processes behind POST /sweep "
        "(default: %(default)s, i.e. in-process serial)",
    )
    serve_parser.add_argument(
        "--cache-size",
        type=_positive_int,
        default=256,
        help="LRU response-cache capacity (default: %(default)s entries)",
    )
    serve_parser.add_argument(
        "--log-requests",
        action="store_true",
        help="log every request line to stderr",
    )
    serve_parser.add_argument(
        "--request-timeout",
        type=_positive_seconds,
        default=None,
        metavar="S",
        help="per-request server-side deadline in seconds; overruns answer "
        "504 and close the connection (default: unbounded)",
    )
    serve_parser.add_argument(
        "--fault-preset",
        choices=("worker-kill", "connection-drop", "connection-delay", "cache-poison", "all"),
        default=None,
        help="install a deterministic fault-injection plan (chaos testing; "
        "see repro.resilience.faults)",
    )
    serve_parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for --fault-preset schedules (default: %(default)s)",
    )
    _add_cost_model_option(serve_parser)
    serve_parser.set_defaults(handler=_cmd_serve)

    replan_parser = subparsers.add_parser(
        "replan",
        help="replay an availability trace: elastic re-partitioning under "
        "node churn with migration costing (see DESIGN.md)",
    )
    replan_parser.add_argument(
        "model",
        nargs="?",
        type=_model_name,
        default="Lenet-c",
        help="network name (default: %(default)s)",
    )
    replan_parser.add_argument(
        "--trace",
        metavar="PATH",
        help="availability trace JSONL to replay (default: synthesize --preset)",
    )
    replan_parser.add_argument(
        "--preset",
        choices=("spot", "rack", "diurnal"),
        default="spot",
        help="synthetic trace generator when no --trace is given "
        "(default: %(default)s)",
    )
    replan_parser.add_argument(
        "--seed", type=int, default=7,
        help="trace generator seed (default: %(default)s)",
    )
    replan_parser.add_argument(
        "--events", type=_positive_int, default=10,
        help="synthesized membership events (default: %(default)s)",
    )
    replan_parser.add_argument(
        "--nodes", type=_fleet_size, default=16,
        help="fleet size the trace runs against (default: %(default)s)",
    )
    replan_parser.add_argument(
        "--policy",
        choices=("every-event", "hysteresis"),
        default="every-event",
        help="re-planning policy (default: %(default)s)",
    )
    replan_parser.add_argument(
        "--horizon-steps",
        type=_positive_int,
        default=500,
        help="training steps the hysteresis policy amortizes a voluntary "
        "migration over (default: %(default)s)",
    )
    _add_batch_size_option(replan_parser)
    _add_scaling_mode_option(replan_parser)
    _add_cost_model_option(replan_parser)
    replan_parser.add_argument(
        "--out", metavar="DIR", help="write the replan.json / replan.csv artifacts"
    )
    replan_parser.add_argument(
        "--emit-trace",
        metavar="PATH",
        help="also save the (synthesized or loaded) trace as JSONL",
    )
    replan_parser.set_defaults(handler=_cmd_replan, error=replan_parser.error)

    placement_parser = subparsers.add_parser(
        "placement", help="show per-accelerator tensor shards and memory footprints"
    )
    placement_parser.add_argument(
        "model", type=_model_name, help="network name, e.g. AlexNet or VGG-A"
    )
    _add_common_options(placement_parser)
    placement_parser.set_defaults(handler=_cmd_placement)

    trace_parser = subparsers.add_parser(
        "trace", help="summarise the communication trace of one training step"
    )
    trace_parser.add_argument(
        "model", type=_model_name, help="network name, e.g. AlexNet or VGG-A"
    )
    _add_common_options(trace_parser)
    trace_parser.set_defaults(handler=_cmd_trace)

    simulate_parser = subparsers.add_parser(
        "simulate",
        help="simulate one training step through the unified entry point "
        "(--sim-engine network runs the contention-aware discrete-event "
        "simulator)",
    )
    simulate_parser.add_argument(
        "model", type=_model_name, help="network name, e.g. AlexNet or VGG-A"
    )
    simulate_parser.add_argument(
        "--strategy",
        choices=("hypar", "dp", "mp"),
        default="hypar",
        help="what to simulate: HyPar's searched assignment or a uniform "
        "baseline (default: %(default)s)",
    )
    simulate_parser.add_argument(
        "--topology",
        type=_plan_option("topology"),
        choices=TOPOLOGY_NAMES,
        default=PlanConfig.topology,
        help="interconnect joining the accelerators (default: %(default)s)",
    )
    _add_platform_options(simulate_parser, accelerator_type=_array_size)
    _add_sim_engine_option(simulate_parser)
    simulate_parser.set_defaults(handler=_cmd_simulate, error=simulate_parser.error)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for the ``hypar`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
