"""Every :mod:`repro.errors` class survives a pickle round trip.

Errors cross process boundaries (the process backend, experiment
sweeps), so each one must come back with the same type, message and
fields.  The sample table names every ``ReproError`` subclass the
module defines; a new class without a sample fails
``test_every_class_has_a_sample``.
"""

from __future__ import annotations

import copy
import inspect
import pickle

import pytest

import repro.errors as errors
from repro.errors import PartialState

PARTIAL = PartialState(
    cover=frozenset({1, 4}), certificate={0: 1, 2: 4}, edges_consumed=9, meter_peak=31
)

SAMPLES = {
    "ReproError": lambda: errors.ReproError("base"),
    "InvalidInstanceError": lambda: errors.InvalidInstanceError("bad instance"),
    "InvalidStreamError": lambda: errors.InvalidStreamError("bad stream"),
    "InvalidCoverError": lambda: errors.InvalidCoverError("bad cover"),
    "SpaceBudgetExceededError": lambda: errors.SpaceBudgetExceededError(
        12, 10, context="charging levels", partial=PARTIAL
    ),
    "CommBudgetError": lambda: errors.CommBudgetError(
        40, 32, context="merging", link="p0->p1", message_words=8
    ),
    "TransportError": lambda: errors.TransportError("no codec"),
    "TransportPartitionError": lambda: errors.TransportPartitionError(
        "p0->p1", 3, context="sending state"
    ),
    "AdmissionError": lambda: errors.AdmissionError(
        "queue-full",
        requested_space_words=5,
        requested_comm_words=6,
        available_space_words=1,
        available_comm_words=2,
        queue_depth=4,
        retry_after=0.25,
        context="solve",
    ),
    "RemoteServeError": lambda: errors.RemoteServeError("InvalidStreamError", "x"),
    "StreamExhaustedError": lambda: errors.StreamExhaustedError(
        "no more edges", partial=PARTIAL
    ),
    "ProtocolError": lambda: errors.ProtocolError("spoke twice"),
    "InfeasibleInstanceError": lambda: errors.InfeasibleInstanceError("element 3"),
    "ConfigurationError": lambda: errors.ConfigurationError("inconsistent"),
    "InvalidParameterError": lambda: errors.InvalidParameterError(
        "max_workers", 0, "must be >= 1"
    ),
    "ShardCrashError": lambda: errors.ShardCrashError(2, 3, context="quorum"),
    "ShardTimeoutError": lambda: errors.ShardTimeoutError(
        2, 3, completion_step=17, deadline_steps=10, context="quorum"
    ),
    "ExperimentExecutionError": lambda: errors.ExperimentExecutionError(
        "kk", "random", "zipf(n=30)", 7, 4, ValueError("boom")
    ),
}


def _error_classes():
    return sorted(
        name
        for name, cls in vars(errors).items()
        if inspect.isclass(cls) and issubclass(cls, errors.ReproError)
    )


def test_every_class_has_a_sample():
    assert sorted(SAMPLES) == _error_classes()


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_round_trip_keeps_type_message_and_fields(name):
    error = SAMPLES[name]()
    error.partial = error.partial or PARTIAL  # attached after raising
    for restored in (pickle.loads(pickle.dumps(error)), copy.copy(error)):
        assert type(restored) is type(error)
        assert str(restored) == str(error)
        assert restored.args == error.args
        assert vars(restored) == vars(error)
        assert restored.partial == PARTIAL


def test_round_trip_does_not_rewrap_the_message():
    # Rebuilding AdmissionError from its message would nest the message
    # inside a second "admission refused (...)" prefix.
    error = SAMPLES["AdmissionError"]()
    restored = pickle.loads(pickle.dumps(pickle.loads(pickle.dumps(error))))
    assert str(restored) == str(error)
    assert restored.reason == "queue-full"
    assert restored.retry_after == 0.25
