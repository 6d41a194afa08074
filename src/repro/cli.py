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
from repro.core.hierarchical import DEFAULT_BATCH_SIZE
from repro.core.parallelism import DEFAULT_SPACE, StrategySpace
from repro.core.strategies import registered_strategies
from repro.core.tensors import ScalingMode
from repro.nn.model_zoo import all_model_builders, get_model
from repro.sim.backend import DEFAULT_SIM_ENGINE, SIM_ENGINES


def _model_name(name: str) -> str:
    """``type=`` of model-name arguments: a name :func:`get_model` accepts."""
    try:
        get_model(name)
    except (KeyError, ValueError) as error:
        # KeyError reprs with quotes around the message; unwrap it.
        raise argparse.ArgumentTypeError(error.args[0]) from None
    return name


def _batch_size(text: str) -> int:
    """``type=`` of ``--batch-size``: a positive integer."""
    batch_size = int(text)
    if batch_size <= 0:
        raise argparse.ArgumentTypeError(f"batch_size must be positive, got {batch_size}")
    return batch_size


def _array_size(text: str) -> int:
    """``type=`` of ``simulate --accelerators``: any size :class:`ArrayConfig` accepts."""
    count = int(text)
    try:
        ArrayConfig(num_accelerators=count)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return count


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


def _add_platform_options(
    parser: argparse.ArgumentParser, accelerator_type=_accelerator_count
) -> None:
    parser.add_argument(
        "--batch-size",
        type=_batch_size,
        default=DEFAULT_BATCH_SIZE,
        help="training batch size (default: %(default)s, the paper's setting)",
    )
    parser.add_argument(
        "--accelerators",
        type=accelerator_type,
        default=16,
        help="number of accelerators in the array; a power of two, at least 2 "
        "where a partition is searched (default: %(default)s)",
    )
    parser.add_argument(
        "--scaling-mode",
        choices=[mode.value for mode in ScalingMode],
        default=ScalingMode.PARALLELISM_AWARE.value,
        help="how tensor amounts shrink at deeper hierarchy levels "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--strategies",
        type=StrategySpace.parse,
        default=DEFAULT_SPACE,
        metavar="LIST",
        help="comma-separated per-layer strategy space searched at every "
        "level, e.g. dp,mp,pp (default: dp,mp, the paper's axis; see "
        "'hypar strategies')",
    )


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    _add_platform_options(parser)
    _add_cost_model_option(parser)


def _add_cost_model_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cost-model",
        default="analytic",
        metavar="SPEC",
        help="where the Table-1/2 cost numbers come from: 'analytic' (the "
        "paper's formulas) or 'profiled:<pack>' with a shipped profile "
        "pack name or a path to a hypar-profile/v1 JSON (see "
        "repro.core.costmodel; default: %(default)s)",
    )


def _add_sim_engine_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sim-engine",
        choices=SIM_ENGINES,
        default=DEFAULT_SIM_ENGINE,
        help="step-time engine: 'analytic' (the paper's closed-form link "
        "model) or 'network' (contention-aware discrete-event simulation "
        "of the physical links; see repro.sim.network; "
        "default: %(default)s)",
    )


def _build_runner(args: argparse.Namespace, include_trick: bool = False):
    from repro.analysis.experiments import ExperimentRunner

    array = ArrayConfig(num_accelerators=args.accelerators)
    return ExperimentRunner(
        array=array,
        batch_size=args.batch_size,
        scaling_mode=args.scaling_mode,
        include_trick=include_trick,
        strategies=getattr(args, "strategies", None),
        cost_model=getattr(args, "cost_model", "analytic"),
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
    sizes = [int(size) for size in args.sizes.split(",")]
    study = run_scalability_study(
        model=model,
        array_sizes=sizes,
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
    from repro.sweep import HYPAR, PRESETS, SweepEngine, load_spec, run_sweep

    if args.list:
        print("sweep presets:")
        for name in sorted(PRESETS):
            print(f"  {name:<8s} {PRESETS[name].describe()}")
        return 0
    if not args.spec:
        print("error: a spec (preset name or .json path) is required", file=sys.stderr)
        return 2

    spec = load_spec(args.spec)
    if args.cost_model != "analytic":
        # The flag overrides the spec's cost-model axis wholesale: the
        # whole grid runs under the named provider.
        import dataclasses

        spec = dataclasses.replace(spec, cost_models=(args.cost_model,))
    if args.sim_engine != "analytic":
        # Likewise for the engine axis: the whole grid runs through the
        # network simulator.
        import dataclasses

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
        trace = AvailabilityTrace.load(args.trace, num_nodes=args.nodes)
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
    trace = TraceBuilder(scaling_mode=ScalingMode.parse(args.scaling_mode)).build(
        model, result.assignment, args.batch_size
    )
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
    from repro.interconnect import HTreeTopology, TorusTopology
    from repro.sim.api import SimulationSpec
    from repro.sim.api import simulate as run_simulation
    from repro.sim.training import PHASES

    model = get_model(args.model)
    array = ArrayConfig(num_accelerators=args.accelerators)
    topology = None
    if args.accelerators > 1:
        topology_type = {"htree": HTreeTopology, "torus": TorusTopology}[args.topology]
        topology = topology_type(args.accelerators, array.link_bandwidth_bytes)

    assignment = None
    strategy_name = None
    if args.strategy == "dp":
        assignment = data_parallelism(model, array.num_levels)
        strategy_name = "Data Parallelism"
    elif args.strategy == "mp":
        assignment = model_parallelism(model, array.num_levels)
        strategy_name = "Model Parallelism"

    spec = SimulationSpec(
        batch_size=args.batch_size,
        array=array,
        topology=topology,
        scaling_mode=args.scaling_mode,
        strategies=args.strategies,
        sim_engine=args.sim_engine,
    )
    result = run_simulation(model, assignment, spec, strategy_name=strategy_name)
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
        "--sizes", default="1,2,4,8,16,32,64", help="comma-separated accelerator counts"
    )
    scalability_parser.add_argument(
        "--out", metavar="DIR", help="write the study rows as JSON/CSV artifacts"
    )
    _add_common_options(scalability_parser)
    scalability_parser.set_defaults(handler=_cmd_scalability)

    topology_parser = subparsers.add_parser(
        "topology", help="compare H-tree and torus interconnects (Figure 12)"
    )
    topology_parser.add_argument("models", nargs="*", type=_model_name)
    topology_parser.add_argument(
        "--out", metavar="DIR", help="write the study rows as JSON/CSV artifacts"
    )
    _add_common_options(topology_parser)
    topology_parser.set_defaults(handler=_cmd_topology)

    trick_parser = subparsers.add_parser(
        "trick", help='compare HyPar with "one weird trick" (Figure 13)'
    )
    trick_parser.add_argument(
        "--out", metavar="DIR", help="write the study rows as JSON/CSV artifacts"
    )
    _add_common_options(trick_parser)
    trick_parser.set_defaults(handler=_cmd_trick)

    sweep_parser = subparsers.add_parser(
        "sweep",
        help="run a declarative sweep grid (spec JSON or preset) through the "
        "cached, optionally process-parallel engine",
    )
    sweep_parser.add_argument(
        "spec",
        nargs="?",
        help="preset name (see --list) or path to a sweep spec .json",
    )
    sweep_parser.add_argument(
        "--workers",
        type=int,
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
    _add_cost_model_option(sweep_parser)
    _add_sim_engine_option(sweep_parser)
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
        type=int,
        default=8100,
        help="TCP port (default: %(default)s; 0 picks a free port)",
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="persistent worker processes behind POST /sweep "
        "(default: %(default)s, i.e. in-process serial)",
    )
    serve_parser.add_argument(
        "--cache-size",
        type=int,
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
        type=float,
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
        "--events", type=int, default=10,
        help="synthesized membership events (default: %(default)s)",
    )
    replan_parser.add_argument(
        "--nodes", type=int, default=16,
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
        type=int,
        default=500,
        help="training steps the hysteresis policy amortizes a voluntary "
        "migration over (default: %(default)s)",
    )
    replan_parser.add_argument(
        "--batch-size",
        type=int,
        default=DEFAULT_BATCH_SIZE,
        help="training batch size (default: %(default)s)",
    )
    replan_parser.add_argument(
        "--scaling-mode",
        choices=[mode.value for mode in ScalingMode],
        default=ScalingMode.PARALLELISM_AWARE.value,
        help="tensor scaling at deeper hierarchy levels (default: %(default)s)",
    )
    _add_cost_model_option(replan_parser)
    replan_parser.add_argument(
        "--out", metavar="DIR", help="write the replan.json / replan.csv artifacts"
    )
    replan_parser.add_argument(
        "--emit-trace",
        metavar="PATH",
        help="also save the (synthesized or loaded) trace as JSONL",
    )
    replan_parser.set_defaults(handler=_cmd_replan)

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
        choices=("htree", "torus"),
        default="htree",
        help="interconnect joining the accelerators (default: %(default)s)",
    )
    _add_platform_options(simulate_parser, accelerator_type=_array_size)
    _add_sim_engine_option(simulate_parser)
    simulate_parser.set_defaults(handler=_cmd_simulate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for the ``hypar`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
