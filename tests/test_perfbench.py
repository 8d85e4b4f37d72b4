"""The perf harness: section rows, the committed file, gates and the CLI.

Sections run on one tiny tier (monkeypatched into :data:`TIERS`) so the
whole module stays fast; the row *schema* is checked against the
committed ``BENCH_perf.json``, which this module never rewrites.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.analysis import perfbench
from repro.analysis.perfbench import (
    FLOOR_ALGORITHMS,
    SECTIONS,
    Section,
    check_floor,
    check_regression,
    floor_rows,
    load_bench_file,
    run_section,
    speedup_table,
    write_bench_file,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
COMMITTED = load_bench_file(REPO_ROOT / "BENCH_perf.json")

#: Small per-section options so the slow grids stay tiny.
OPTIONS = {"distributed": {"workers_grid": (1, 2)}, "merge": {"workers_grid": (2,)}}

TRACE_OVERHEAD_KEYS = [
    "config",
    "algorithm",
    "stream_length",
    "seconds_off",
    "seconds_on",
    "overhead_fraction",
    "events",
    "covers_identical",
]


@pytest.fixture
def tiny_tiers(monkeypatch):
    for tier in ("smoke", "full"):
        monkeypatch.setitem(perfbench.TIERS, tier, [("tiny", 40, 80, 5)])
        monkeypatch.setitem(perfbench.ORDER_SIZES, tier, [("tiny", 300)])
        monkeypatch.setitem(perfbench.INSTANCE_SHAPES, tier, [("tiny", 40, 80, 5)])
        monkeypatch.setitem(perfbench.COIN_SIZES, tier, [("tiny", 300)])


def _load_cli():
    path = REPO_ROOT / "scripts" / "run_perf_bench.py"
    spec = importlib.util.spec_from_file_location("run_perf_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSectionRows:
    @pytest.mark.parametrize("name", list(SECTIONS))
    def test_row_keys_match_committed_schema(self, tiny_tiers, name):
        rows = run_section(name, "smoke", seed=0, **OPTIONS.get(name, {}))
        assert rows, f"section {name} yielded no rows"
        expected = (
            list(COMMITTED[name][0])
            if SECTIONS[name].recorded
            else TRACE_OVERHEAD_KEYS
        )
        for row in rows:
            assert list(row) == expected
        assert {row["config"] for row in rows} == {"tiny"}

    def test_progress_gets_one_line_per_row(self, tiny_tiers):
        lines = []
        rows = run_section("trace_overhead", "smoke", progress=lines.append)
        assert len(lines) == len(rows) == 3
        assert all(
            "trace_overhead" in line and "covers_identical=True" in line
            for line in lines
        )

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="unknown tier"):
            run_section("trace_overhead", "huge")

    def test_throughput_cell_records_median_of_its_repeats(
        self, tiny_tiers, monkeypatch
    ):
        # The cell's three runs take 1, 5 and 2 s.
        durations = iter([1.0, 5.0, 2.0])

        def fake_timed(fn, *args, **kwargs):
            return fn(*args, **kwargs), next(durations)

        monkeypatch.setattr(perfbench, "timed", fake_timed)
        (row,) = run_section("smoke", "smoke", algorithms=["kk"])
        assert row["repeats"] == perfbench.THROUGHPUT_REPEATS == 3
        assert (row["seconds"], row["seconds_min"], row["seconds_max"]) == (
            2.0,
            1.0,
            5.0,
        )
        assert row["edges_per_sec"] == round(row["stream_length"] / 2.0, 1)

    def test_throughput_repeats_must_agree(self, tiny_tiers, monkeypatch):
        import dataclasses

        real = perfbench.KKAlgorithm.run
        calls = []

        def drifting(self, stream):
            result = real(self, stream)
            calls.append(None)
            if len(calls) == 2:
                result = dataclasses.replace(result, cover=frozenset())
            return result

        monkeypatch.setattr(perfbench.KKAlgorithm, "run", drifting)
        with pytest.raises(AssertionError, match="repeated kk runs diverged"):
            run_section("smoke", "smoke", algorithms=["kk"])

    def test_distributed_cell_keeps_fastest_of_identical_repeats(
        self, tiny_tiers, monkeypatch
    ):
        import repro.distributed

        real = repro.distributed.run_distributed
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs["backend"])
            return real(*args, **kwargs)

        monkeypatch.setattr(repro.distributed, "run_distributed", counted)
        rows = run_section("distributed", "smoke", workers_grid=(1,))
        assert len(calls) == len(rows) * perfbench.DISTRIBUTED_REPEATS
        assert all(row["repeats"] == perfbench.DISTRIBUTED_REPEATS for row in rows)

    def test_distributed_repeats_must_agree(self, tiny_tiers, monkeypatch):
        import dataclasses

        import repro.distributed

        real = repro.distributed.run_distributed
        calls = []

        def drifting(*args, **kwargs):
            result = real(*args, **kwargs)
            calls.append(None)
            if len(calls) == 2:
                result = dataclasses.replace(result, cover=frozenset())
            return result

        monkeypatch.setattr(repro.distributed, "run_distributed", drifting)
        with pytest.raises(AssertionError, match="repeated 'serial' runs diverged"):
            run_section("distributed", "smoke", workers_grid=(1,))

    def test_orders_section_raises_on_a_diverging_order(self, tiny_tiers, monkeypatch):
        rows = run_section("orders", "smoke")
        assert [row["edges"] for row in rows] == [300]
        assert rows[0]["repeats"] == perfbench.ORDER_REPEATS
        assert rows[0]["columns_identical"] is True

        def reversed_order(self, set_ids, elements):
            return set_ids[::-1], elements[::-1]

        monkeypatch.setattr(perfbench.RandomOrder, "apply_columns", reversed_order)
        with pytest.raises(AssertionError, match="diverged from random.Random.shuffle"):
            run_section("orders", "smoke")

    def test_instance_section_raises_on_a_diverging_rebuild(
        self, tiny_tiers, monkeypatch
    ):
        rows = run_section("instance", "smoke")
        assert [row["edges"] for row in rows] == [400]
        assert rows[0]["repeats"] == perfbench.INSTANCE_REPEATS
        assert rows[0]["instances_identical"] is True

        real = perfbench.instance_from_edges

        def dropping(n, m, edges, name=""):
            return real(n, m, edges[1:], name=name)

        monkeypatch.setattr(perfbench, "instance_from_edges", dropping)
        with pytest.raises(AssertionError, match="rebuilt instances diverged"):
            run_section("instance", "smoke")

    def test_coins_section_raises_on_a_diverging_tape(self, tiny_tiers, monkeypatch):
        # A small block makes the 300 draws cross mirrored refills.
        monkeypatch.setattr(perfbench.CoinTape, "BLOCK", 16)
        rows = run_section("coins", "smoke")
        assert [row["draws"] for row in rows] == [300]
        assert rows[0]["repeats"] == perfbench.COIN_REPEATS
        assert rows[0]["draws_identical"] is True

        real = perfbench._coins_from_tape

        def skewed(rng, draws):
            values = real(rng, draws)
            values[-1] = 0.5
            return values

        monkeypatch.setattr(perfbench, "_coins_from_tape", skewed)
        with pytest.raises(AssertionError, match="CoinTape diverged"):
            run_section("coins", "smoke")

    def test_ladder_sections_pin_their_tier(self, tiny_tiers, monkeypatch):
        monkeypatch.setitem(perfbench.TIERS, "full", [("other", 40, 80, 5)])
        assert {row["config"] for row in run_section("full", "smoke")} == {"other"}


class TestBenchFile:
    def _seed_file(self, path: Path) -> dict:
        content = {
            "schema": 5,
            "seed_baseline": [{"config": "s", "algorithm": "kk", "edges_per_sec": 1.0}],
            **{name: [{"from": name}] for name, s in SECTIONS.items() if s.recorded},
        }
        path.write_text(json.dumps(content), encoding="utf-8")
        return content

    def test_replaces_only_given_sections(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        before = self._seed_file(path)
        payload = write_bench_file(path, {"merge": [{"new": 1}], "smoke": []})
        assert load_bench_file(path) == payload
        assert payload["merge"] == [{"new": 1}]
        assert payload["smoke"] == []
        for name in ("full", "distributed", "transport"):
            assert payload[name] == before[name]
        assert payload["seed_baseline"] == before["seed_baseline"]
        assert payload["schema"] == 5

    def test_section_order_is_the_committed_order(self, tmp_path):
        payload = write_bench_file(tmp_path / "BENCH_perf.json", {})
        assert list(payload) == list(COMMITTED)

    def test_seed_baseline_replaced_only_when_given(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        self._seed_file(path)
        baseline = [{"config": "x", "algorithm": "kk", "edges_per_sec": 9.0}]
        payload = write_bench_file(path, {}, seed_baseline=baseline)
        assert payload["seed_baseline"] == baseline
        assert write_bench_file(path, {})["seed_baseline"] == baseline

    def test_unrecorded_section_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="trace_overhead"):
            write_bench_file(tmp_path / "BENCH_perf.json", {"trace_overhead": []})


def _row(rate: float, algorithm: str = "kk", config: str = "small") -> dict:
    return {"config": config, "algorithm": algorithm, "edges_per_sec": rate}


class TestGates:
    def test_regression_flags_more_than_factor_drop(self):
        committed = [_row(1000.0)]
        assert check_regression([_row(400.0)], committed, factor=2.0)
        assert check_regression([_row(600.0)], committed, factor=2.0) == []

    def test_regression_ignores_uncommitted_cells(self):
        assert check_regression([_row(1.0, config="new")], [_row(1000.0)]) == []

    def test_floor_is_fastest_seed_cell_per_algorithm(self):
        baseline = [
            _row(1000.0),
            _row(2000.0, config="large"),
            _row(5000.0, "adversarial"),
            _row(3000.0, "random-order"),
            _row(9e9, "first-fit"),  # not a floor algorithm: never gated
        ]
        failures = check_floor(
            [
                _row(1500.0),
                _row(4000.0, "adversarial"),
                _row(2500.0, "random-order"),
                _row(1.0, "first-fit"),
            ],
            baseline,
        )
        assert len(failures) == 3
        assert "small/kk" in failures[0] and "small/adversarial" in failures[1]
        assert "small/random-order" in failures[2]
        assert (
            check_floor(
                [_row(2500.0), _row(6000.0, "adversarial"), _row(3500.0, "random-order")],
                baseline,
            )
            == []
        )
        assert check_floor([_row(1.0), _row(1.0, "adversarial")], []) == []

    def test_speedup_table(self):
        rows = speedup_table([_row(100.0)], [_row(300.0), _row(5.0, config="new")])
        assert rows == [("small", "kk", 100.0, 300.0, 3.0)]


class TestCli:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Replace every section with a stub that logs its run."""
        log = []

        def stub(name):
            def run(tier, seed, **options):
                """Stub section (its first line is the flag's help)."""
                log.append((name, tier))
                yield _row(1e12)

            return run

        for name, section in SECTIONS.items():
            monkeypatch.setitem(SECTIONS, name, section._replace(run=stub(name)))
        return log

    @pytest.fixture
    def cli(self, monkeypatch, tmp_path):
        module = _load_cli()
        target = tmp_path / "BENCH_perf.json"
        target.write_text(json.dumps(COMMITTED), encoding="utf-8")
        monkeypatch.setattr(module, "BENCH_FILE", target)
        return module

    def test_combined_section_flags_run_every_section(self, calls, cli):
        argv = ["--smoke", "--no-write", "--distributed", "--transport", "--merge"]
        assert cli.main(argv) == 0
        assert calls == [
            ("distributed", "smoke"),
            ("transport", "smoke"),
            ("merge", "smoke"),
        ]

    def test_combined_flags_write_every_recorded_section(self, calls, cli):
        argv = ["--smoke", "--distributed", "--transport", "--trace-overhead"]
        assert cli.main(argv) == 0
        written = load_bench_file(cli.BENCH_FILE)
        assert written["distributed"] == written["transport"] == [_row(1e12)]
        assert written["merge"] == COMMITTED["merge"]
        assert "trace_overhead" not in written

    def test_check_runs_alongside_sections(self, calls, cli, monkeypatch):
        assert cli.main(["--smoke", "--check", "--merge"]) == 0
        assert [name for name, _ in calls] == ["smoke", "merge"]
        # A slow smoke row now fails the gate even with --merge present.
        slow = Section(lambda tier, seed, **kw: iter([_row(1.0)]), tier="smoke")
        monkeypatch.setitem(SECTIONS, "smoke", slow)
        assert cli.main(["--smoke", "--check", "--merge"]) == 1
        assert load_bench_file(cli.BENCH_FILE) == COMMITTED

    def test_bare_smoke_is_a_dry_run(self, calls, cli):
        assert cli.main(["--smoke"]) == 0
        assert calls == [("smoke", "smoke")]
        assert load_bench_file(cli.BENCH_FILE) == COMMITTED

    def test_bare_run_writes_the_ladder(self, calls, cli):
        assert cli.main([]) == 0
        assert calls == [("smoke", "smoke"), ("full", "full")]
        written = load_bench_file(cli.BENCH_FILE)
        assert written["smoke"] == written["full"] == [_row(1e12)]
        assert written["seed_baseline"] == COMMITTED["seed_baseline"]

    def test_floor_gate_runs_the_floor_cells_twice(self, calls, cli):
        assert cli.main(["--check-floor"]) == 0
        assert calls == [("full", "full"), ("full", "full")]

    def test_floor_gate_measures_the_floor_rows_own_cells(self, cli, monkeypatch):
        # Like for like: every cell the gate measures has the stream
        # length of the seed-baseline row its floor was taken from.
        measured = []

        def capture(current, seed_baseline):
            measured.extend(current)
            return []

        monkeypatch.setattr(cli, "check_floor", capture)
        assert cli.main(["--check-floor"]) == 0
        floors = floor_rows(COMMITTED["seed_baseline"])
        assert sorted(floors) == sorted(FLOOR_ALGORITHMS)
        assert sorted(row["algorithm"] for row in measured) == sorted(FLOOR_ALGORITHMS)
        for row in measured:
            floor = floors[row["algorithm"]]
            assert row["stream_length"] == floor["stream_length"]
            assert row["config"] == floor["config"]
