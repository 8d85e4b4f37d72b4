"""The execution-backend layer: serial, thread, process are one contract.

The backend that runs shard work is operational, exactly like
``max_workers``: for a fixed (instance, workers, order, seed,
algorithm, strategy, coordinator) every backend must produce a
dataclass-equal :class:`DistributedResult` and a byte-identical merged
trace JSONL.  These tests pin that contract, the backend registry, the
typed parameter validation, the pickle-clean :class:`ShardTask`
boundary that the process backend depends on, and that a pooled
dispatch leaves no child process or thread behind.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import pickle
import random
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import (
    BACKEND_REGISTRY,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    backends,
    build_shard_tasks,
    make_backend,
    registered_backends,
    run_distributed,
)
from repro.distributed.asyncsim import run_distributed_async
from repro.distributed.backends import execute_shard_task
from repro.distributed.router import ShardRouter
from repro.errors import ConfigurationError, InvalidParameterError
from repro.faults.injectors import FaultSpec
from repro.generators.planted import planted_partition_instance
from repro.obs.tracer import TraceCollector
from repro.streaming.orders import CanonicalOrder


@pytest.fixture(scope="module")
def instance():
    return planted_partition_instance(80, 40, opt_size=8, seed=11).instance


class TestBackendRegistry:
    def test_registered_backends(self):
        assert registered_backends() == ["process", "serial", "thread"]
        assert set(BACKEND_REGISTRY) == {"serial", "thread", "process"}

    def test_make_backend(self):
        assert isinstance(make_backend("serial"), SerialBackend)
        assert isinstance(make_backend("thread"), ThreadBackend)
        assert isinstance(make_backend("process"), ProcessBackend)

    def test_unknown_backend_is_typed_error(self):
        with pytest.raises(InvalidParameterError) as excinfo:
            make_backend("gpu")
        assert excinfo.value.parameter == "backend"
        assert excinfo.value.value == "gpu"

    def test_unknown_backend_via_run_distributed(self, instance):
        with pytest.raises(InvalidParameterError):
            run_distributed(instance, workers=2, backend="gpu")


class TestMaxWorkersValidation:
    """Regression: ``max_workers < 1`` must raise the typed error."""

    @pytest.mark.parametrize("bad", [0, -1, -7])
    def test_raises_invalid_parameter(self, instance, bad):
        with pytest.raises(InvalidParameterError) as excinfo:
            run_distributed(instance, workers=2, max_workers=bad)
        assert excinfo.value.parameter == "max_workers"
        assert excinfo.value.value == bad

    def test_subclasses_configuration_error(self, instance):
        # Existing callers catching ConfigurationError keep working.
        with pytest.raises(ConfigurationError):
            run_distributed(instance, workers=2, max_workers=0)


#: Seeds the executor cannot mix into integer shard seeds.
NON_INT_SEEDS = [
    pytest.param(lambda: random.Random(3), id="random.Random"),
    pytest.param(lambda: np.random.default_rng(3), id="numpy.Generator"),
    pytest.param(lambda: 3.0, id="float"),
    pytest.param(lambda: True, id="bool"),
]


class TestSeedValidation:
    """Regression: a non-int seed used to run every shard and the merge,
    then fail with an untyped ``TypeError`` while assembling the result."""

    @pytest.mark.parametrize("make_seed", NON_INT_SEEDS)
    def test_rejected_before_any_shard_runs(
        self, instance, monkeypatch, make_seed
    ):
        def no_shard_work(task):
            raise AssertionError("shard work ran before seed validation")

        monkeypatch.setattr(backends, "execute_shard_task", no_shard_work)
        seed = make_seed()
        with pytest.raises(InvalidParameterError) as excinfo:
            run_distributed(instance, workers=2, seed=seed, backend="serial")
        assert excinfo.value.parameter == "seed"

    def test_integer_like_seeds_accepted(self, instance):
        reference = run_distributed(instance, workers=2, seed=3)
        assert run_distributed(instance, workers=2, seed=np.int64(3)) == reference
        assert run_distributed(instance, workers=2, seed=None) == (
            run_distributed(instance, workers=2, seed=0)
        )
        assert reference.seed == 3


ENTRY_POINTS = [
    pytest.param(run_distributed, id="sync"),
    pytest.param(run_distributed_async, id="async"),
]


@pytest.fixture
def no_shard_work(monkeypatch):
    def fail(task):
        raise AssertionError("shard work ran before argument validation")

    monkeypatch.setattr(backends, "execute_shard_task", fail)


@pytest.fixture
def no_routing(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the order or the router ran before argument validation")

    monkeypatch.setattr(CanonicalOrder, "apply_columns", fail)
    monkeypatch.setattr(ShardRouter, "route_edges", fail)


class TestEntryPointValidation:
    """Regression: both entry points reject a bad budget, count or name
    with a typed error before routing.  A plain-int ``comm_budget`` used
    to run every shard and then crash in the merge with an
    ``AttributeError``; float and bool counts escaped as bare
    ``TypeError``s, or were silently accepted, depending on the entry
    point and backend.  An unknown algorithm failed only inside a shard,
    an unknown strategy only after the full shuffle, and a str order
    escaped as a bare ``AttributeError``."""

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_plain_int_comm_budget_rejected(self, instance, no_shard_work, entry):
        with pytest.raises(InvalidParameterError) as excinfo:
            entry(instance, workers=2, comm_budget=5, backend="serial")
        assert excinfo.value.parameter == "comm_budget"

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"backoff_steps": -1},
            {"workers": 2.0},
            {"workers": True},
            {"max_workers": 2.5},
            {"max_workers": True},
            {"max_workers": 2.5, "backend": "process"},
            {"algorithm": "no-such-algorithm"},
            {"strategy": "no-such-strategy"},
            {"order": "random"},
        ],
        ids=lambda kwargs: ",".join(f"{k}={v}" for k, v in kwargs.items()),
    )
    def test_bad_counts_rejected(
        self, instance, no_shard_work, no_routing, entry, kwargs
    ):
        options = {"workers": 4, "backend": "serial", **kwargs}
        with pytest.raises(InvalidParameterError) as excinfo:
            entry(instance, **options)
        assert excinfo.value.parameter == next(iter(kwargs))

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_boundary_counts_accepted(self, instance, entry):
        reference = entry(instance, workers=2, seed=3, backend="serial")
        assert entry(
            instance,
            workers=np.int64(2),
            seed=3,
            backend="serial",
            max_workers=np.int64(2),
            max_attempts=1,
            backoff_steps=0,
        ) == reference


#: Data paths the by-set parity cells above do not take: the other
#: routings, and the worker's faulted-shard path (stream faults).
DATA_PATHS = {
    "by-element": ("by-element", None),
    "hash": ("hash", None),
    "by-set+stream-faults": (
        "by-set",
        (
            FaultSpec(kind="corrupt", rate=0.05, seed=1),
            FaultSpec(kind="duplicate", rate=0.1, seed=2),
        ),
    ),
}


class TestBackendParity:
    """Acceptance criterion: process == serial for every max_workers."""

    @pytest.mark.parametrize("max_workers", [1, 2, 4, 8])
    def test_process_equals_serial(self, instance, max_workers):
        kwargs = dict(workers=4, algorithm="kk", seed=29)
        serial_collector = TraceCollector()
        serial = run_distributed(
            instance,
            backend="serial",
            max_workers=max_workers,
            collector=serial_collector,
            **kwargs,
        )
        process_collector = TraceCollector()
        process = run_distributed(
            instance,
            backend="process",
            max_workers=max_workers,
            collector=process_collector,
            **kwargs,
        )
        assert process == serial
        assert process_collector.to_jsonl() == serial_collector.to_jsonl()

    @pytest.mark.parametrize("max_workers", [1, 4])
    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("path", sorted(DATA_PATHS))
    def test_trace_bytes_match_serial_on_every_data_path(
        self, instance, path, backend, max_workers
    ):
        def run(backend, max_workers):
            strategy, faults = DATA_PATHS[path]
            collector = TraceCollector()
            result = run_distributed(
                instance, workers=4, algorithm="kk", strategy=strategy,
                seed=29, backend=backend, max_workers=max_workers,
                collector=collector, faults=faults,
            )
            return result, collector.to_jsonl()

        reference, reference_trace = run("serial", 1)
        if DATA_PATHS[path][1] is None:
            reference.verify(instance)
        result, trace = run(backend, max_workers)
        assert result == reference
        assert trace == reference_trace

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_all_backends_agree(self, instance, backend):
        kwargs = dict(workers=3, algorithm="first-fit", seed=5)
        reference = run_distributed(instance, backend="serial", **kwargs)
        result = run_distributed(
            instance, backend=backend, max_workers=3, **kwargs
        )
        assert result == reference
        result.verify(instance)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_process_equals_serial_at_full_width(self, instance, workers):
        kwargs = dict(workers=workers, algorithm="kk", seed=29)
        serial = run_distributed(instance, backend="serial", **kwargs)
        process = run_distributed(
            instance, backend="process", max_workers=workers, **kwargs
        )
        assert process == serial

    def test_default_backend_is_serial(self, instance):
        explicit = run_distributed(
            instance, workers=2, backend="serial", seed=1
        )
        default = run_distributed(instance, workers=2, seed=1)
        assert default == explicit


class TestShardTaskPickle:
    """Satellite 1: pickled tasks reproduce results and traces exactly."""

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        workers=st.integers(min_value=1, max_value=5),
        algorithm=st.sampled_from(["kk", "first-fit", "store-all"]),
    )
    def test_pickle_round_trip_reproduces(self, seed, workers, algorithm):
        instance = planted_partition_instance(
            40, 20, opt_size=4, seed=7
        ).instance
        tasks = build_shard_tasks(
            instance,
            workers=workers,
            algorithm=algorithm,
            seed=seed,
            traced=True,
        )
        assert len(tasks) == workers
        for task in tasks:
            clone = pickle.loads(pickle.dumps(task))
            assert clone == task
            original = execute_shard_task(task)
            replayed = execute_shard_task(clone)
            assert replayed.output == original.output
            assert replayed.trace_jsonl == original.trace_jsonl
            assert replayed.trace_jsonl is not None

    def test_tasks_cover_all_edges(self, instance):
        tasks = build_shard_tasks(instance, workers=4, seed=0)
        assert sum(len(t.edges) for t in tasks) == instance.num_edges

    def test_untraced_task_has_no_trace(self, instance):
        task = build_shard_tasks(instance, workers=1, seed=0)[0]
        envelope = execute_shard_task(task)
        assert envelope.trace_jsonl is None
        assert envelope.index == 0


class TestProcessBackendLeaks:
    """A pooled dispatch, clean or failing, leaves nothing running."""

    @staticmethod
    def _assert_nothing_left(threads_before):
        assert multiprocessing.active_children() == []
        assert set(threading.enumerate()) <= threads_before

    def test_successful_dispatch_leaves_no_child_or_thread(self, instance):
        tasks = build_shard_tasks(instance, workers=2, algorithm="kk", seed=5)
        threads_before = set(threading.enumerate())
        envelopes = ProcessBackend().run_tasks(tasks, max_workers=2)
        self._assert_nothing_left(threads_before)
        serial = SerialBackend().run_tasks(tasks, max_workers=1)
        assert [e.output for e in envelopes] == [e.output for e in serial]

    def test_child_error_keeps_its_type_and_message(self, instance):
        # The algorithm name resolves only inside the child, so the
        # child raises; the caller must see that very error.
        tasks = [
            dataclasses.replace(task, algorithm="no-such-algorithm")
            for task in build_shard_tasks(instance, workers=2, seed=0)
        ]
        with pytest.raises(ConfigurationError) as inline:
            execute_shard_task(tasks[0])
        threads_before = set(threading.enumerate())
        with pytest.raises(ConfigurationError) as pooled:
            ProcessBackend().run_tasks(tasks, max_workers=2)
        self._assert_nothing_left(threads_before)
        assert type(pooled.value) is type(inline.value)
        assert str(pooled.value) == str(inline.value)
        assert "no-such-algorithm" in str(pooled.value)

    def test_child_error_with_fields_reaches_the_caller_as_itself(
        self, instance, monkeypatch
    ):
        # InvalidParameterError's constructor takes three fields, not a
        # message; it must still unpickle in the parent rather than
        # break the pool.
        tasks = build_shard_tasks(instance, workers=2, seed=0)
        monkeypatch.setattr(backends, "execute_shard_task", _raise_invalid_parameter)
        threads_before = set(threading.enumerate())
        with pytest.raises(InvalidParameterError) as pooled:
            ProcessBackend().run_tasks(tasks, max_workers=2)
        self._assert_nothing_left(threads_before)
        expected = _child_error(tasks[0])
        assert type(pooled.value) is InvalidParameterError
        assert str(pooled.value) == str(expected)
        assert (pooled.value.parameter, pooled.value.value) == ("shard", 0)
        assert pooled.value.requirement == expected.requirement


def _child_error(task) -> InvalidParameterError:
    return InvalidParameterError("shard", task.index, "raised in the child")


def _raise_invalid_parameter(task):
    """A stand-in shard body; module-level so the pool can pickle it."""
    raise _child_error(task)
