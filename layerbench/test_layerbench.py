"""The benchmark's own checks: exact counts and the tail-percentile rule.

Run from the repository root with ``python3 -m pytest layerbench -q``.
The workloads are shrunk so the whole file runs in well under a minute;
the serve check starts real server processes.
"""

import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [HERE, SOURCE]

import harness  # noqa: E402
import wl_distribute  # noqa: E402
import wl_merge  # noqa: E402
import wl_serve  # noqa: E402
import wl_solve  # noqa: E402


def test_p90_needs_ten_samples_beyond_it():
    samples = [float(v) for v in range(100, 0, -1)]
    assert harness.tail_percentile(samples) == 90.0
    beyond = [s for s in samples if s > harness.tail_percentile(samples)]
    assert len(beyond) == 10
    with pytest.raises(ValueError):
        harness.tail_percentile(samples[:99])


def test_min_ops_satisfies_the_tail_rule():
    harness.tail_percentile([1.0] * harness.MIN_OPS)


def _variant_counts(workload, seed):
    workload.setup(seed)
    return [workload.op(i, None) for i in range(harness.VARIANTS)]


@pytest.fixture
def small_solve(monkeypatch):
    monkeypatch.setattr(wl_solve, "N", 200)
    monkeypatch.setattr(wl_solve, "M", 600)
    monkeypatch.setattr(wl_solve, "SET_SIZE", 20)


@pytest.mark.parametrize(
    "factory",
    [wl_solve.SolveWorkload, wl_distribute.DistributeWorkload, wl_merge.MergeWorkload],
    ids=["solve", "distribute", "merge"],
)
def test_closed_loop_counts_repeat_for_a_seed(factory, small_solve):
    first = _variant_counts(factory(), seed=11)
    second = _variant_counts(factory(), seed=11)
    assert first == second
    for _, counts in first:
        assert set(counts) == set(harness.COUNT_METRICS)
        assert all(value > 0 for value in counts.values())


def test_traced_op_matches_untraced_op():
    workload = wl_distribute.DistributeWorkload()
    workload.setup(5)
    clock = harness.LayerClock()
    hooks = harness.Hooks(clock, workload.hooks)
    assert not hooks.missing
    with hooks.installed():
        traced = workload.op(3, clock)
    assert traced == workload.op(3, None)
    assert clock.ms("router.route") > 0.0
    assert clock.top <= sum(clock.seconds.values())


def test_serve_counts_repeat_for_a_seed(monkeypatch):
    monkeypatch.setattr(wl_serve, "OFFERED_RATE", 40.0)
    runs = [
        wl_serve.ServeWorkload(SOURCE).run(3, 2.0, False, time.perf_counter())[0]
        for _ in range(2)
    ]
    for result in runs:
        assert result["correct"] and result["failed"] == 0
    for key in harness.COUNT_METRICS:
        assert runs[0]["metrics"][key] == runs[1]["metrics"][key] > 0
    assert not os.path.exists(wl_serve.WORK_DIR)
