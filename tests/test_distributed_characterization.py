"""Characterization of the sharded executor: pinned results and traces.

One grid — four coordinators × four shard-fault cases × both entry
points (:func:`run_distributed` and :func:`run_distributed_async`) —
with every seed fixed.  Each cell pins:

* a digest of the full :class:`DistributedResult` (every field that
  takes part in equality: cover, certificate, comm report with its
  message log, shard reports, diagnostics, outcomes, degradations,
  uncovered elements);
* a digest of the collected trace bytes (``collector.to_jsonl()``);
* for the asynchronous entry point, the schedule diagnostics
  ``logical_steps``, ``idle_ticks``, ``delivered_messages`` and
  ``duplicates_dropped`` as literals, so a change to the chain, tree
  or star replay timing names the number that moved.

The literals were recorded from the code before the two executors
were folded onto one body; any refactor of the executor must keep
every cell byte-identical.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.distributed import run_distributed
from repro.distributed.asyncsim import run_distributed_async
from repro.faults.shards import PERMANENT, ShardFaultPlan, ShardFaultSpec
from repro.generators.planted import planted_partition_instance
from repro.obs.tracer import TraceCollector
from repro.streaming.orders import RandomOrder

COORDINATORS = ("union", "greedy", "chain", "tree")

#: Shard-fault case -> extra keyword arguments for both entry points.
CASES = {
    "clean": {},
    "straggle": {
        "shard_faults": ShardFaultPlan(
            {2: ShardFaultSpec(straggle_steps=4)}
        ),
    },
    "duplicate": {
        "shard_faults": ShardFaultPlan(
            {
                0: ShardFaultSpec(duplicate=True),
                3: ShardFaultSpec(duplicate=True),
            }
        ),
    },
    "crash": {
        "shard_faults": ShardFaultPlan(
            {1: ShardFaultSpec(crash_attempts=PERMANENT)}
        ),
        "min_shards": 3,
    },
}

SCHEDULE_KEYS = (
    "logical_steps",
    "idle_ticks",
    "delivered_messages",
    "duplicates_dropped",
)


def _canonical(value):
    """A JSON-ready, order-independent form of ``value``.

    Dataclasses contribute only the fields that take part in equality,
    so operational metadata (shipping, transport byte reports) stays
    out, exactly as it stays out of ``DistributedResult.__eq__``.
    Floats are kept as their ``repr`` so no digit is lost.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.compare
        }
    if isinstance(value, dict):
        items = [(_canonical(k), _canonical(v)) for k, v in value.items()]
        return sorted(items, key=lambda kv: json.dumps(kv[0], sort_keys=True))
    if isinstance(value, (set, frozenset)):
        return sorted(
            (_canonical(v) for v in value),
            key=lambda v: json.dumps(v, sort_keys=True),
        )
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, float):
        return repr(value)
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return repr(value)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def result_digest(result) -> str:
    """Digest of every equality-relevant field of a result."""
    return _digest(json.dumps(_canonical(result), sort_keys=True))


def run_cell(instance, entry: str, coordinator: str, case: str):
    """Run one grid cell; returns ``(result, trace_jsonl)``."""
    collector = TraceCollector()
    kwargs = dict(
        workers=4,
        algorithm="kk",
        strategy="by-set",
        coordinator=coordinator,
        order=RandomOrder(seed=7),
        seed=5,
        backend="serial",
        comm_log=True,
        collector=collector,
        **CASES[case],
    )
    if entry == "async":
        result = run_distributed_async(instance, schedule_seed=3, **kwargs)
    else:
        result = run_distributed(instance, **kwargs)
    return result, collector.to_jsonl()


#: (entry, coordinator, case) -> (result digest, trace digest).
EXPECTED_DIGESTS = {
    ("sync", "union", "clean"): (
        "34c2d0ac06bd71fe",
        "d106c429a7716159",
    ),
    ("sync", "union", "crash"): (
        "f62c028cb5875e28",
        "13a5c3f1cdb013ba",
    ),
    ("sync", "union", "duplicate"): (
        "0c88d6b772b216c4",
        "d106c429a7716159",
    ),
    ("sync", "union", "straggle"): (
        "3b2c60af35e53430",
        "d106c429a7716159",
    ),
    ("sync", "greedy", "clean"): (
        "15dbe881c9d2873f",
        "bf1a2a51a0693796",
    ),
    ("sync", "greedy", "crash"): (
        "1baf31c31e18d1e5",
        "4cd45202182e9ab0",
    ),
    ("sync", "greedy", "duplicate"): (
        "d6406c5cf424940d",
        "bf1a2a51a0693796",
    ),
    ("sync", "greedy", "straggle"): (
        "adaf801d08bd7978",
        "bf1a2a51a0693796",
    ),
    ("sync", "chain", "clean"): (
        "602cd7b5b4f7a17c",
        "e61c10c47fc628e5",
    ),
    ("sync", "chain", "crash"): (
        "798d8bd992a4ba55",
        "65160802b51edb30",
    ),
    ("sync", "chain", "duplicate"): (
        "a1bbd70073ffe089",
        "e61c10c47fc628e5",
    ),
    ("sync", "chain", "straggle"): (
        "01fba57cededef97",
        "e61c10c47fc628e5",
    ),
    ("sync", "tree", "clean"): (
        "3ec6f3432dde6702",
        "e4381ec8fe36ef7d",
    ),
    ("sync", "tree", "crash"): (
        "0a61d5aff284e82b",
        "b96f7192ec7d9594",
    ),
    ("sync", "tree", "duplicate"): (
        "011ffb3fad76aa6e",
        "e4381ec8fe36ef7d",
    ),
    ("sync", "tree", "straggle"): (
        "69b976136e9256d4",
        "e4381ec8fe36ef7d",
    ),
    ("async", "union", "clean"): (
        "4c1b1b683646e549",
        "dfac30ce28020116",
    ),
    ("async", "union", "crash"): (
        "2f2616ef66a4a08c",
        "2050688c24884f80",
    ),
    ("async", "union", "duplicate"): (
        "ce68a23f15d0bb19",
        "2d6138557b5be498",
    ),
    ("async", "union", "straggle"): (
        "38074a256a1dbc4a",
        "d03a352674e5e4d2",
    ),
    ("async", "greedy", "clean"): (
        "cdeac9f2f514646f",
        "2a2f022f889c4701",
    ),
    ("async", "greedy", "crash"): (
        "5c75dd3c1d92467e",
        "12ed856f009f7089",
    ),
    ("async", "greedy", "duplicate"): (
        "c019dd409f86a9f5",
        "383586afe03a8d63",
    ),
    ("async", "greedy", "straggle"): (
        "e03074c2be0b26a8",
        "c36a23dea147b41d",
    ),
    ("async", "chain", "clean"): (
        "668dfdc994d604a4",
        "8ca5cad54a2da320",
    ),
    ("async", "chain", "crash"): (
        "a1925acbfdd29fcb",
        "dad7800ffd0be779",
    ),
    ("async", "chain", "duplicate"): (
        "fa26bf3e02fea5fa",
        "b8c8180c0216dea1",
    ),
    ("async", "chain", "straggle"): (
        "8d2bacb7c1be883f",
        "8ca5cad54a2da320",
    ),
    ("async", "tree", "clean"): (
        "b47ffc7e44fa0f27",
        "1e0d7d765e3bef1e",
    ),
    ("async", "tree", "crash"): (
        "6056ea9a6f2e8289",
        "30e1072484955809",
    ),
    ("async", "tree", "duplicate"): (
        "aa3ad46bc9cbedf8",
        "fa6c5e8f1a8014fa",
    ),
    ("async", "tree", "straggle"): (
        "295d9dd40f1e79c4",
        "117460fe446398d8",
    ),
}

#: (coordinator, case) -> async schedule diagnostics, in SCHEDULE_KEYS order.
EXPECTED_SCHEDULE = {
    ("union", "clean"): (6, 2, 4, 0),
    ("union", "crash"): (5, 2, 3, 0),
    ("union", "duplicate"): (8, 2, 6, 2),
    ("union", "straggle"): (7, 3, 4, 0),
    ("greedy", "clean"): (6, 2, 4, 0),
    ("greedy", "crash"): (5, 2, 3, 0),
    ("greedy", "duplicate"): (8, 2, 6, 2),
    ("greedy", "straggle"): (7, 3, 4, 0),
    ("chain", "clean"): (6, 3, 3, 0),
    ("chain", "crash"): (4, 2, 2, 0),
    ("chain", "duplicate"): (7, 3, 4, 1),
    ("chain", "straggle"): (6, 3, 3, 0),
    ("tree", "clean"): (4, 2, 3, 0),
    ("tree", "crash"): (4, 2, 2, 0),
    ("tree", "duplicate"): (4, 2, 4, 1),
    ("tree", "straggle"): (8, 5, 3, 0),
}


@pytest.fixture(scope="module")
def instance():
    return planted_partition_instance(40, 80, opt_size=4, seed=11).instance


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("coordinator", COORDINATORS)
@pytest.mark.parametrize("entry", ["sync", "async"])
def test_result_and_trace_pinned(instance, entry, coordinator, case):
    result, trace = run_cell(instance, entry, coordinator, case)
    result.verify(instance, allow_partial=bool(result.degradations))
    assert (result_digest(result), _digest(trace)) == EXPECTED_DIGESTS[
        (entry, coordinator, case)
    ]


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("coordinator", COORDINATORS)
def test_async_schedule_pinned(instance, coordinator, case):
    result, _ = run_cell(instance, "async", coordinator, case)
    observed = tuple(int(result.diagnostics[key]) for key in SCHEDULE_KEYS)
    assert observed == EXPECTED_SCHEDULE[(coordinator, case)]


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("coordinator", COORDINATORS)
def test_sync_and_async_merge_agree(instance, coordinator, case):
    sync, _ = run_cell(instance, "sync", coordinator, case)
    async_, _ = run_cell(instance, "async", coordinator, case)
    assert sync.cover == async_.cover
    assert sync.certificate == async_.certificate
    assert sync.comm == async_.comm
    assert sync.degradations == async_.degradations
