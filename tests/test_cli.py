"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.generators.planted import planted_partition_instance
from repro.streaming.io import dump_instance


@pytest.fixture
def instance_file(tmp_path):
    planted = planted_partition_instance(30, 60, opt_size=3, seed=1)
    path = tmp_path / "instance.txt"
    dump_instance(planted.instance, path)
    return str(path)


class TestParser:
    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_parses(self):
        args = build_parser().parse_args(["run", "table1-row2", "--full"])
        assert args.experiment == "table1-row2"
        assert args.full

    def test_solve_parses(self):
        args = build_parser().parse_args(
            ["solve", "x.txt", "--algorithm", "kk", "--order", "random"]
        )
        assert args.algorithm == "kk"

    def test_chaos_parses(self):
        args = build_parser().parse_args(
            ["chaos", "--quick", "--policy", "skip_bad_edges", "--seed", "3"]
        )
        assert args.command == "chaos"
        assert args.quick
        assert args.policy == "skip_bad_edges"
        assert args.seed == 3

    def test_distribute_parses(self):
        args = build_parser().parse_args(
            [
                "distribute",
                "x.txt",
                "--workers",
                "4",
                "--strategy",
                "by-element",
                "--coordinator",
                "greedy",
                "--max-workers",
                "2",
            ]
        )
        assert args.command == "distribute"
        assert args.workers == 4
        assert args.strategy == "by-element"
        assert args.coordinator == "greedy"
        assert args.max_workers == 2

    def test_distribute_short_workers_flag(self):
        args = build_parser().parse_args(["distribute", "x.txt", "-W", "8"])
        assert args.workers == 8

    def test_distribute_backend_parses(self):
        args = build_parser().parse_args(
            [
                "distribute",
                "x.txt",
                "--backend",
                "process",
            ]
        )
        assert args.backend == "process"

    def test_distribute_backend_defaults(self):
        args = build_parser().parse_args(["distribute", "x.txt"])
        assert args.backend == "serial"

    @pytest.mark.parametrize("algorithm", ["quantum", "kk-reference"])
    def test_solve_unknown_algorithm_rejected(self, algorithm):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["solve", "x.txt", "--algorithm", algorithm]
            )

    def test_distribute_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["distribute", "x.txt", "--backend", "gpu"]
            )

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestList:
    def test_lists_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1-row1" in out
        assert "invariants" in out


class TestRun:
    def test_runs_quick_experiment(self, capsys):
        assert main(["run", "lb-family", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "lb-family" in out
        assert "findings:" in out

    def test_unknown_experiment_errors(self, capsys):
        assert main(["run", "bogus"]) == 1
        assert "error" in capsys.readouterr().err

    def test_markdown_flag(self, capsys):
        assert main(["run", "lb-family", "--markdown"]) == 0
        assert "|" in capsys.readouterr().out


class TestSolve:
    @pytest.mark.parametrize(
        "algorithm",
        ["kk", "adversarial", "random-order", "element-sampling", "first-fit"],
    )
    def test_solves_with_each_algorithm(self, capsys, instance_file, algorithm):
        code = main(
            [
                "solve",
                instance_file,
                "--algorithm",
                algorithm,
                "--order",
                "random",
                "--seed",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cover size" in out
        assert "cover:" in out

    def test_set_arrival_on_grouped_order(self, capsys, instance_file):
        code = main(
            [
                "solve",
                instance_file,
                "--algorithm",
                "set-arrival",
                "--order",
                "set-grouped",
            ]
        )
        assert code == 0

    def test_set_arrival_on_random_order_fails_gracefully(
        self, capsys, instance_file
    ):
        code = main(
            [
                "solve",
                instance_file,
                "--algorithm",
                "set-arrival",
                "--order",
                "random",
            ]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_alpha_option(self, capsys, instance_file):
        code = main(
            [
                "solve",
                instance_file,
                "--algorithm",
                "adversarial",
                "--alpha",
                "20",
            ]
        )
        assert code == 0

    def test_missing_file_errors(self):
        with pytest.raises(FileNotFoundError):
            main(["solve", "/nonexistent/file.txt"])


class TestDistribute:
    @pytest.mark.parametrize("coordinator", ["union", "greedy", "chain"])
    def test_distributes_with_each_coordinator(
        self, capsys, instance_file, coordinator
    ):
        code = main(
            [
                "distribute",
                instance_file,
                "--workers",
                "4",
                "--coordinator",
                coordinator,
                "--seed",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "total comm words" in out
        assert "max message words" in out
        assert "per-shard:" in out
        assert "cover:" in out

    def test_output_identical_across_max_workers(self, capsys, instance_file):
        assert main(["distribute", instance_file, "--max-workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(["distribute", instance_file, "--max-workers", "4"]) == 0
        threaded = capsys.readouterr().out
        assert serial == threaded

    def test_output_identical_across_backends(self, capsys, instance_file):
        """The backend is operational: identical stdout for every choice."""
        reports = {}
        for backend in ("serial", "thread", "process"):
            code = main(
                [
                    "distribute",
                    instance_file,
                    "--workers",
                    "4",
                    "--max-workers",
                    "4",
                    "--seed",
                    "7",
                    "--backend",
                    backend,
                ]
            )
            assert code == 0
            reports[backend] = capsys.readouterr().out
        assert reports["serial"] == reports["thread"]
        assert reports["serial"] == reports["process"]
        assert "cover:" in reports["serial"]

    def test_comm_budget_violation_exits_nonzero(self, capsys, instance_file):
        code = main(
            ["distribute", instance_file, "--workers", "4", "--comm-budget", "1"]
        )
        assert code == 1
        assert "communication budget exceeded" in capsys.readouterr().err

    def test_strategy_and_order_options(self, capsys, instance_file):
        code = main(
            [
                "distribute",
                instance_file,
                "--strategy",
                "hash",
                "--coordinator",
                "union",
                "--order",
                "random",
                "--algorithm",
                "first-fit",
            ]
        )
        assert code == 0


class TestGenerateRoundTrip:
    @pytest.mark.parametrize(
        "workload", ["uniform", "planted", "zipf", "two-tier", "domset"]
    )
    def test_generate_then_solve(self, capsys, tmp_path, workload):
        path = str(tmp_path / f"{workload}.txt")
        code = main(
            [
                "generate",
                path,
                "--workload",
                workload,
                "--n",
                "40",
                "--m",
                "60",
                "--seed",
                "5",
            ]
        )
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        code = main(["solve", path, "--algorithm", "kk", "--seed", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "valid" in out
        assert "cover:" in out

    def test_generate_then_distribute(self, capsys, tmp_path):
        path = str(tmp_path / "planted.txt")
        assert main(["generate", path, "--n", "40", "--m", "60"]) == 0
        capsys.readouterr()
        assert main(["distribute", path, "--workers", "4"]) == 0
        assert "valid" in capsys.readouterr().out


class TestChaos:
    def test_quick_sweep_holds_invariant(self, capsys):
        assert main(["chaos", "--quick", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "chaos invariant holds" in out
        assert "outcomes:" in out

    def test_markdown_flag(self, capsys):
        assert main(["chaos", "--quick", "--markdown"]) == 0
        assert "|" in capsys.readouterr().out

    def test_policy_option(self, capsys):
        assert main(["chaos", "--quick", "--policy", "skip_bad_edges"]) == 0

    def test_violation_exits_one_and_names_the_seed(self, capsys, monkeypatch):
        from repro.analysis import chaos

        def violating_sweep(seed, quick, policy):
            cell = chaos.ChaosCell(
                algorithm="kk",
                fault_kind="corrupt",
                rate=0.5,
                order="random",
                policy=policy,
                seed=seed + 40,
                outcome="violation",
                detail="bare KeyError: 7",
            )
            return chaos.ChaosReport(
                policy=policy, seed=seed, instance_label="stub", rows=[cell]
            )

        monkeypatch.setattr(chaos, "run_chaos", violating_sweep)
        assert main(["chaos", "--quick", "--seed", "2"]) == 1
        captured = capsys.readouterr()
        assert "violation" in captured.out
        assert "invariant violated in 1 cell(s)" in captured.err
        assert (
            "kk × corrupt@0.5 × random (seed=42): bare KeyError: 7"
            in captured.err
        )


class TestDistributeResilience:
    def test_unknown_coordinator_is_typed_error(self, capsys, instance_file):
        # No argparse choices= gate: an unknown coordinator flows to
        # make_coordinator and comes back as the same typed error an
        # unknown backend gets, naming the known registry.
        code = main(
            ["distribute", instance_file, "--coordinator", "bogus"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "coordinator" in err
        assert "known coordinators" in err
        assert "chain" in err and "greedy" in err and "union" in err

    def test_async_flags_parse(self):
        args = build_parser().parse_args(
            [
                "distribute",
                "x.txt",
                "--async-sim",
                "--schedule-seed",
                "9",
                "--default-delay",
                "2",
                "--crash",
                "0.3",
                "--straggle",
                "0.5",
                "--straggle-steps",
                "8",
                "--duplicate",
                "0.7",
                "--min-shards",
                "2",
                "--deadline-steps",
                "6",
                "--max-attempts",
                "4",
                "--backoff-steps",
                "2",
            ]
        )
        assert args.async_sim
        assert args.schedule_seed == 9
        assert args.crash == 0.3
        assert args.min_shards == 2
        assert args.deadline_steps == 6

    def test_async_sim_matches_sync_output_lines(self, capsys, instance_file):
        assert main(["distribute", instance_file, "--seed", "4"]) == 0
        sync_out = capsys.readouterr().out
        assert (
            main(
                [
                    "distribute",
                    instance_file,
                    "--seed",
                    "4",
                    "--async-sim",
                    "--schedule-seed",
                    "12",
                ]
            )
            == 0
        )
        async_out = capsys.readouterr().out
        assert "logical steps" in async_out

        # Semantic values agree: the cover and comm accounting are the
        # sync path's, the transport lines are extra.  (Column widths
        # differ, so compare values, not raw lines.)
        def value(text, prefix):
            for line in text.splitlines():
                if line.startswith(prefix):
                    return line[len(prefix):].strip()
            raise AssertionError(f"no line starts with {prefix!r}")

        for prefix in ("cover:", "total comm words", "max message words"):
            assert value(async_out, prefix) == value(sync_out, prefix)

    def test_crash_with_quorum_prints_degradation(self, capsys, instance_file):
        code = main(
            [
                "distribute",
                instance_file,
                "--workers",
                "4",
                "--seed",
                "3",
                "--crash",
                "0.6",
                "--min-shards",
                "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "degraded: shard[" in out
        assert "partial" in out

    def test_chaos_shards_flag(self, capsys):
        assert main(["chaos", "--shards", "--quick", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "shard-fault chaos" in out.lower() or "crash" in out
