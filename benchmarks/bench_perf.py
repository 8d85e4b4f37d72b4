"""Hot-path throughput benchmark (smoke tier) with a regression gate.

Times one pass of each core algorithm on the ``smoke`` workload from
:mod:`repro.analysis.perfbench` and compares the measured edges/sec
against the numbers committed in ``BENCH_perf.json``.  A cell that is
more than 2x slower than the committed measurement fails the run — this
is the guardrail CI applies to every PR.  ``scripts/run_perf_bench.py``
runs the same harness standalone (and the ``full`` tier that produces
the committed file).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.perfbench import (
    TIERS,
    check_regression,
    load_bench_file,
    run_section,
)

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_perf.json"

SMOKE_ALGORITHMS = ["kk", "random-order", "adversarial"]


@pytest.fixture(scope="module")
def committed():
    return load_bench_file(BENCH_FILE)


@pytest.mark.parametrize("algorithm", SMOKE_ALGORITHMS)
def test_smoke_throughput(benchmark, algorithm):
    """Time one smoke-tier pass of a single algorithm."""
    rows = benchmark.pedantic(
        lambda: run_section("smoke", seed=0, algorithms=[algorithm]),
        rounds=1,
        iterations=1,
    )
    assert len(rows) == len(TIERS["smoke"])
    for row in rows:
        assert row["algorithm"] == algorithm
        assert row["edges_per_sec"] > 0
        assert row["peak_words"] > 0
        assert row["cover_size"] >= 1


def test_no_regression_vs_committed(committed):
    """Smoke run must stay within 2x of the committed edges/sec."""
    if not committed.get("smoke"):
        pytest.skip("no committed smoke numbers in BENCH_perf.json")
    current = run_section("smoke", seed=0)
    failures = check_regression(current, committed["smoke"], factor=2.0)
    assert not failures, "; ".join(failures)
