"""Tests for the runner, sweep, and table-rendering harness pieces."""

from __future__ import annotations

import pytest

from repro.analysis.runner import ExperimentRunner
from repro.analysis.sweep import Sweep
from repro.analysis.tables import (
    format_cell,
    render_kv,
    render_scatter,
    render_table,
)
from repro.core.kk import KKAlgorithm
from repro.baselines.trivial import FirstFitAlgorithm
from repro.generators.planted import planted_partition_instance


@pytest.fixture
def runner():
    return ExperimentRunner(
        algorithms={
            "kk": lambda seed: KKAlgorithm(seed=seed),
            "first-fit": lambda seed: FirstFitAlgorithm(seed=seed),
        },
        seed=1,
    )


class TestExperimentRunner:
    def test_run_one(self, runner):
        planted = planted_partition_instance(30, 60, opt_size=3, seed=1)
        metrics = runner.run_one(
            planted.instance, "random", "kk", opt_handle=3
        )
        assert metrics.algorithm == "kk"
        assert metrics.valid
        assert metrics.opt_handle == 3

    def test_compare_runs_all_algorithms(self, runner):
        planted = planted_partition_instance(30, 60, opt_size=3, seed=2)
        rows = runner.compare(planted.instance, "random", opt_handle=3)
        assert {row.algorithm for row in rows} == {"kk", "first-fit"}

    def test_compare_same_stream_per_replication(self, runner):
        planted = planted_partition_instance(30, 60, opt_size=3, seed=3)
        rows = runner.compare(planted.instance, "random", opt_handle=3)
        seeds = {row.seed for row in rows}
        assert len(seeds) == 1  # one replication -> shared stream seed

    def test_replications(self, runner):
        planted = planted_partition_instance(30, 60, opt_size=3, seed=4)
        rows = runner.compare(
            planted.instance, "random", opt_handle=3, replications=3
        )
        assert len(rows) == 6

    def test_sweep_instances(self, runner):
        pairs = [
            (planted_partition_instance(20, 40, opt_size=2, seed=s).instance, 2)
            for s in range(2)
        ]
        rows = runner.sweep_instances(pairs, "random")
        assert len(rows) == 4

    def test_opt_computed_when_not_supplied(self, runner):
        planted = planted_partition_instance(20, 30, opt_size=2, seed=5)
        metrics = runner.run_one(planted.instance, "random", "kk")
        assert metrics.opt_handle >= 1

    def test_requires_algorithms(self):
        with pytest.raises(ValueError):
            ExperimentRunner(algorithms={})


class TestSweep:
    def test_runs_grid(self):
        calls = []

        def measure(value, seed):
            calls.append((value, seed))
            return {"y": value * 2}

        result = Sweep("x", [1.0, 2.0], measure, replications=3, seed=1).run()
        assert len(calls) == 6
        assert result.parameters() == [1.0, 2.0]
        assert result.series("y") == [2.0, 4.0]

    def test_fit(self):
        def measure(value, seed):
            return {"y": 5.0 * value**2}

        result = Sweep("x", [1.0, 2.0, 4.0], measure, replications=1).run()
        assert result.fit("y") == pytest.approx(2.0)

    def test_rows(self):
        def measure(value, seed):
            return {"y": value}

        result = Sweep("x", [3.0], measure, replications=2).run()
        rows = result.rows(["y"])
        assert rows[0][0] == 3.0
        assert "±" in rows[0][1]

    def test_rejects_empty_values(self):
        with pytest.raises(ValueError):
            Sweep("x", [], lambda v, s: {})

    def test_rejects_zero_replications(self):
        with pytest.raises(ValueError):
            Sweep("x", [1.0], lambda v, s: {}, replications=0)

    def test_deterministic_under_seed(self):
        def measure(value, seed):
            return {"y": float(seed % 97)}

        a = Sweep("x", [1.0], measure, replications=2, seed=5).run()
        b = Sweep("x", [1.0], measure, replications=2, seed=5).run()
        assert a.series("y") == b.series("y")


class TestTables:
    def test_render_basic(self):
        text = render_table(["a", "b"], [[1, 2], [3, 4]])
        lines = text.splitlines()
        assert lines[0].split() == ["a", "b"]
        assert "1" in lines[2]

    def test_title(self):
        text = render_table(["a"], [[1]], title="T")
        assert text.splitlines()[0] == "T"

    def test_markdown_mode(self):
        text = render_table(["a"], [[1]], markdown=True)
        assert text.splitlines()[0].startswith("| ")
        assert set(text.splitlines()[1]) <= {"|", "-"}

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [[1]])

    def test_format_cell_float(self):
        assert format_cell(3.14159) == "3.14"
        assert format_cell(0.000123) == "0.0001"
        assert format_cell(12345.6) == "12346"
        assert format_cell(0.0) == "0"

    def test_format_cell_bool(self):
        assert format_cell(True) == "yes"
        assert format_cell(False) == "no"

    def test_format_cell_string(self):
        assert format_cell("x") == "x"

    def test_render_kv(self):
        text = render_kv([("key", 1), ("longer-key", 2.5)], title="vals:")
        assert text.splitlines()[0] == "vals:"
        assert "longer-key" in text


class TestScatter:
    def test_markers_and_legend(self):
        text = render_scatter(
            [("alpha", 10, 100), ("beta", 100, 10)], x_label="w", y_label="c"
        )
        assert "1" in text and "2" in text
        assert "1=alpha" in text and "2=beta" in text

    def test_axis_labels(self):
        text = render_scatter([("p", 1, 1), ("q", 10, 10)])
        assert "> x (log)" in text
        assert "y ^" in text

    def test_title(self):
        text = render_scatter([("p", 1, 1), ("q", 2, 2)], title="map:")
        assert text.splitlines()[0] == "map:"

    def test_linear_scales(self):
        text = render_scatter(
            [("p", 0, 0), ("q", 5, 5)], log_x=False, log_y=False
        )
        assert "(log)" not in text

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            render_scatter([])

    def test_rejects_nonpositive_for_log(self):
        with pytest.raises(ValueError):
            render_scatter([("p", 0, 1)])
        with pytest.raises(ValueError):
            render_scatter([("p", 1, 0)])

    def test_extremes_within_grid(self):
        points = [(f"p{i}", 10**i, 2**i) for i in range(5)]
        text = render_scatter(points, width=30, height=8)
        lines = [l for l in text.splitlines() if l.startswith("  |")]
        assert len(lines) == 8  # exactly the grid rows
        assert all(len(l) <= 3 + 30 for l in lines)
