"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_models_command_parses(self):
        args = build_parser().parse_args(["models"])
        assert args.command == "models"

    def test_partition_requires_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["partition"])

    def test_common_options(self):
        args = build_parser().parse_args(
            ["partition", "AlexNet", "--batch-size", "64", "--accelerators", "4"]
        )
        assert args.batch_size == 64
        assert args.accelerators == 4

    def test_scaling_mode_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["partition", "AlexNet", "--scaling-mode", "bogus"]
            )

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_models_lists_all_networks(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        for name in ("SFC", "SCONV", "Lenet-c", "AlexNet", "VGG-E"):
            assert name in out

    def test_partition_prints_parallelism_lists(self, capsys):
        assert main(["partition", "Lenet-c"]) == 0
        out = capsys.readouterr().out
        assert "H1" in out and "H4" in out
        assert "dp" in out and "mp" in out

    def test_partition_respects_accelerator_count(self, capsys):
        assert main(["partition", "Lenet-c", "--accelerators", "4"]) == 0
        out = capsys.readouterr().out
        assert "4 accelerators" in out
        assert "H3" not in out

    def test_compare_single_model(self, capsys):
        assert main(["compare", "Lenet-c", "--accelerators", "4", "--batch-size", "64"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out
        assert "Figure 7" in out
        assert "Figure 8" in out
        assert "Lenet-c" in out

    def test_scalability_command(self, capsys):
        assert (
            main(
                [
                    "scalability",
                    "--model",
                    "Lenet-c",
                    "--sizes",
                    "1,2,4",
                    "--batch-size",
                    "64",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Figure 11" in out

    def test_topology_command(self, capsys):
        assert main(["topology", "Lenet-c", "--batch-size", "64"]) == 0
        out = capsys.readouterr().out
        assert "Figure 12" in out
        assert "Torus" in out and "H Tree" in out

    def test_placement_command(self, capsys):
        assert main(["placement", "Lenet-c", "--accelerators", "4"]) == 0
        out = capsys.readouterr().out
        assert "replicated" in out
        assert "footprint" in out

    def test_trace_command(self, capsys):
        assert main(["trace", "Lenet-c", "--accelerators", "4", "--batch-size", "64"]) == 0
        out = capsys.readouterr().out
        assert "transfers" in out
        assert "by phase" in out
        assert "H1" in out


class TestBadInput:
    """Bad arguments are usage errors naming the argument, not tracebacks."""

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["partition", "nosuch"], "argument model: unknown model 'nosuch'"),
            (
                ["partition", "VGG-E", "--accelerators", "3"],
                "argument --accelerators: num_accelerators must be a power of two, got 3",
            ),
            (
                ["partition", "VGG-E", "--batch-size", "0"],
                "argument --batch-size: batch_size must be positive, got 0",
            ),
        ]
        + [
            (
                [command, "VGG-E", "--accelerators", "1"],
                "argument --accelerators: num_accelerators must be a power "
                "of two >= 2, got 1",
            )
            for command in ("partition", "compare", "placement", "trace", "topology")
        ],
        ids=[
            "unknown-model",
            "accelerators-3",
            "batch-size-0",
            "partition-accelerators-1",
            "compare-accelerators-1",
            "placement-accelerators-1",
            "trace-accelerators-1",
            "topology-accelerators-1",
        ],
    )
    def test_rejected_by_the_parser(self, argv, error, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert [line for line in lines if "error:" in line] == [lines[-1]]
        assert lines[-1].startswith(f"hypar {argv[0]}: error: {error}")

    @pytest.mark.parametrize(
        "argv",
        [["partition", "VGG-E"], ["simulate", "VGG-E"], ["sweep", "smoke"], ["serve"]],
        ids=lambda argv: argv[0],
    )
    def test_backend_option_is_unrecognized(self, argv, capsys):
        """The search has one implementation, so no command selects one."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv + ["--backend", "numpy"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --backend numpy" in capsys.readouterr().err

    def test_single_accelerator_still_simulates(self, capsys):
        assert main(["simulate", "Lenet-c", "--accelerators", "1", "--batch-size", "64"]) == 0
        assert "1 accelerators" in capsys.readouterr().out


class TestSweepCommand:
    def test_list_presets(self, capsys):
        assert main(["sweep", "--list"]) == 0
        out = capsys.readouterr().out
        for preset in ("fig6", "fig12", "smoke", "batch"):
            assert preset in out

    def test_missing_spec_errors(self, capsys):
        assert main(["sweep"]) == 2
        assert "required" in capsys.readouterr().err

    def test_smoke_preset_prints_every_point(self, capsys):
        assert main(["sweep", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "smoke: 4 points" in out
        assert out.count("Lenet-c/b") == 2
        assert out.count("Cifar-c/b") == 2

    def test_spec_file_with_artifacts(self, tmp_path, capsys):
        import json

        spec_path = tmp_path / "mini.json"
        spec_path.write_text(
            json.dumps(
                {
                    "name": "mini",
                    "models": ["Lenet-c"],
                    "batch_sizes": [64],
                    "array_sizes": [4],
                }
            )
        )
        out_dir = tmp_path / "artifacts"
        assert main(["sweep", str(spec_path), "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "artifacts:" in out
        payload = json.loads((out_dir / "mini.json").read_text())
        assert payload["spec"]["name"] == "mini"
        assert len(payload["rows"]) == 1
        assert (out_dir / "mini.csv").read_text().startswith("index,model,")

    def test_study_out_flag_writes_artifacts(self, tmp_path, capsys):
        import json

        out_dir = tmp_path / "study"
        assert (
            main(
                [
                    "scalability",
                    "--model",
                    "Lenet-c",
                    "--sizes",
                    "1,4",
                    "--batch-size",
                    "64",
                    "--out",
                    str(out_dir),
                ]
            )
            == 0
        )
        assert "artifacts:" in capsys.readouterr().out
        payload = json.loads((out_dir / "scalability.json").read_text())
        assert payload["study"] == "scalability"
        assert len(payload["rows"]) == 2
        assert (out_dir / "scalability.csv").read_text().startswith("num_accelerators,")

    def test_workers_flag_matches_serial_output(self, capsys):
        assert main(["sweep", "smoke"]) == 0
        serial_out = capsys.readouterr().out
        assert main(["sweep", "smoke", "--workers", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out


class TestSimulateCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["simulate", "Lenet-c"])
        assert args.strategy == "hypar"
        assert args.topology == "htree"
        assert args.sim_engine == "analytic"

    def test_engine_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "Lenet-c", "--sim-engine", "psychic"]
            )

    def test_dp_baseline_on_torus(self, capsys):
        assert (
            main(
                [
                    "simulate", "Lenet-c", "--accelerators", "4",
                    "--batch-size", "64", "--strategy", "dp",
                    "--topology", "torus", "--sim-engine", "network",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Data Parallelism on torus" in out
        assert "network engine" in out
        assert "dp-dp-dp-dp" in out

    def test_sweep_engine_override_runs_the_grid_through_the_network(self, capsys):
        assert main(["sweep", "smoke", "--sim-engine", "network"]) == 0
        out = capsys.readouterr().out
        # Every point label carries the non-default engine segment.
        assert out.count("/network") == 4

    def test_sweep_default_labels_stay_engine_free(self, capsys):
        assert main(["sweep", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "/network" not in out
        assert "/analytic" not in out


class TestReplanCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["replan"])
        assert args.model == "Lenet-c"
        assert args.trace is None
        assert args.preset == "spot"
        assert args.seed == 7
        assert args.events == 10
        assert args.nodes == 16
        assert args.policy == "every-event"
        assert args.horizon_steps == 500
        assert args.out is None
        assert args.emit_trace is None

    def test_policy_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["replan", "--policy", "sometimes"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["replan", "--preset", "blizzard"])

    def test_replan_prints_the_timeline(self, capsys):
        assert main(["replan", "--events", "4", "--batch-size", "64"]) == 0
        out = capsys.readouterr().out
        assert "every-event policy over 4 events on 16 nodes" in out
        assert "mean utilization" in out
        assert "warm-start DP" in out

    def test_artifacts_are_run_to_run_identical(self, tmp_path, capsys):
        command = [
            "replan", "--events", "4", "--batch-size", "64", "--seed", "3",
        ]
        first_dir = tmp_path / "first"
        second_dir = tmp_path / "second"
        assert main(command + ["--out", str(first_dir)]) == 0
        assert main(command + ["--out", str(second_dir)]) == 0
        capsys.readouterr()
        first = (first_dir / "replan.json").read_bytes()
        assert first == (second_dir / "replan.json").read_bytes()
        assert (first_dir / "replan.csv").read_bytes() == (
            second_dir / "replan.csv"
        ).read_bytes()
        import json

        payload = json.loads(first)
        assert payload["config"]["model"] == "Lenet-c"
        assert payload["trace"]["num_events"] == 4

    def test_emit_trace_round_trips_through_the_trace_flag(self, tmp_path, capsys):
        trace_path = tmp_path / "churn.jsonl"
        assert (
            main(
                [
                    "replan", "--events", "3", "--batch-size", "64",
                    "--emit-trace", str(trace_path),
                ]
            )
            == 0
        )
        synthesized_out = capsys.readouterr().out
        assert trace_path.exists()
        assert (
            main(["replan", "--trace", str(trace_path), "--batch-size", "64"]) == 0
        )
        replayed_out = capsys.readouterr().out
        # The saved trace replays to the same timeline the synthesis ran.
        assert replayed_out == synthesized_out.replace(
            f"trace: {trace_path}\n", ""
        )


class TestServeParser:
    def test_resilience_flags_default_off(self):
        args = build_parser().parse_args(["serve"])
        assert args.request_timeout is None
        assert args.fault_preset is None
        assert args.fault_seed == 0

    def test_request_timeout_parses_as_seconds(self):
        args = build_parser().parse_args(["serve", "--request-timeout", "2.5"])
        assert args.request_timeout == 2.5

    def test_fault_preset_choices_enforced(self):
        args = build_parser().parse_args(["serve", "--fault-preset", "cache-poison"])
        assert args.fault_preset == "cache-poison"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--fault-preset", "meteor"])
