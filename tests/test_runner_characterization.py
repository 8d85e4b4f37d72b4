"""Characterization of :class:`ExperimentRunner`: pinned row and trace digests.

Every cell fixes the master seed and the instance, runs kk, first-fit
and random-order through one runner entry point with a
:class:`~repro.obs.tracer.TraceCollector` attached, and pins the sha256
of ``repr(rows)`` followed by the collector's merged JSONL.  The rows
carry each run's seed, cover size, peak words and diagnostics, and the
JSONL carries the cell labels (``"{index:05d}:{name}"`` for grid cells,
``"single:{name}"`` for :meth:`ExperimentRunner.run_one`), so a change
to seed drawing, stream freezing, cell order or labelling moves a
digest.

The error test pins the failure contract: an exception raised inside a
run surfaces as :class:`~repro.errors.ExperimentExecutionError` naming
the failing cell, with the original exception as ``__cause__``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.algorithms import make_algorithm
from repro.analysis.runner import ExperimentRunner
from repro.baselines.trivial import FirstFitAlgorithm
from repro.errors import ExperimentExecutionError
from repro.generators.planted import planted_partition_instance
from repro.obs.tracer import TraceCollector

ALGORITHMS = ("kk", "first-fit", "random-order")


def _planted(seed):
    return planted_partition_instance(40, 30, opt_size=4, seed=seed).instance


def _runner(instance, collector, seed=42):
    return ExperimentRunner(
        {
            name: (lambda s, name=name: make_algorithm(name, instance, seed=s))
            for name in ALGORITHMS
        },
        seed=seed,
        collector=collector,
    )


def _digest(rows, collector) -> str:
    payload = repr(rows) + "\n" + collector.to_jsonl()
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def compare_digest(opt_handle) -> str:
    instance = _planted(11)
    collector = TraceCollector()
    rows = _runner(instance, collector).compare(
        instance, "random", opt_handle=opt_handle, replications=3
    )
    return _digest(rows, collector)


def sweep_digest() -> str:
    # The factories close over the first instance; every instance shares
    # its (n, m), so each algorithm runs on each stream unchanged.
    instances = [(_planted(seed), 4) for seed in (11, 12)]
    collector = TraceCollector()
    rows = _runner(instances[0][0], collector, seed=7).sweep_instances(
        instances, "random", replications=2
    )
    return _digest(rows, collector)


def run_one_digest() -> str:
    instance = _planted(11)
    collector = TraceCollector()
    runner = _runner(instance, collector, seed=3)
    rows = [runner.run_one(instance, "random", name) for name in ALGORITHMS]
    return _digest(rows, collector)


# The exact solver recovers the planted OPT of 4 on this instance, so
# both compare cells flatten to the same rows and pin the same digest.
PINNED = {
    "compare-opt-given": (
        "0ed621e75bbb0467680b767c73f9479074bcc19ef13d9be651b46c0a703bc1fd"
    ),
    "compare-opt-computed": (
        "0ed621e75bbb0467680b767c73f9479074bcc19ef13d9be651b46c0a703bc1fd"
    ),
    "sweep": "521366099fea70a9ebd11e7db720030121e74d7946c6691a0a0cda27e7c9b8c6",
    "run-one": "a4ce924adeba8978bb9073cb29126f08117c9ca27b9e43998115feea5b645bcf",
}

CELLS = {
    "compare-opt-given": lambda: compare_digest(4),
    "compare-opt-computed": lambda: compare_digest(None),
    "sweep": sweep_digest,
    "run-one": run_one_digest,
}


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_digest_pinned(cell):
    assert CELLS[cell]() == PINNED[cell]


class BoomAlgorithm(FirstFitAlgorithm):
    name = "boom"

    def _run(self, stream):
        raise ValueError("boom")


def test_worker_error_carries_spec_context():
    instance = _planted(5)
    runner = ExperimentRunner(
        {
            "first-fit": lambda s: FirstFitAlgorithm(seed=s),
            "boom": lambda s: BoomAlgorithm(seed=s),
        },
        seed=7,
    )
    with pytest.raises(ExperimentExecutionError) as excinfo:
        runner.compare(instance, "random")
    error = excinfo.value
    assert error.algorithm == "boom"
    assert error.order == "random"
    assert error.instance == repr(instance)
    assert error.spec_index == 1
    assert isinstance(error.seed, int)
    assert isinstance(error.__cause__, ValueError)
    assert "boom" in str(error)
    assert f"seed={error.seed}" in str(error)
