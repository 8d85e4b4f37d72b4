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

A second grid pins :func:`run_distributed` on the data-path variants
the first one leaves out: the ``by-element`` and ``hash`` routing
strategies, a ``SetGroupedOrder`` and a canonical arrival order, and
stream faults (``corrupt`` plus ``duplicate`` :class:`FaultSpec`s,
applied per shard), each under every coordinator.  Its literals were
recorded from the code before routing, ingest and localization moved
onto edge columns.

A third grid pins what the wire carried, which result equality ignores:
the :class:`~repro.distributed.transport.TransportReport` per-link
bytes, frames and retransmits, plus the loopback transport's logical
clock and idle ticks, for every coordinator (chain and tree under fixed
and adaptive τ) at W ∈ {1, 3, 8} over a jittered, lossy loopback with a
duplicated shard.  Its literals were recorded from the code before the
chain and tree merges moved onto one protocol path.

A fourth grid pins the protocol merges where set keys repeat across
parties: chain and tree under adaptive τ with ``by-element`` and
``hash`` routing, plus one quorum-degraded cell per coordinator (one
shard lost, so the merge runs partial and leaves elements uncovered).
Its literals were recorded from the code before the protocol merge
state moved from Python sets onto arrays.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections.abc import Mapping

import pytest

from repro.distributed import run_distributed
from repro.distributed.asyncsim import run_distributed_async
from repro.distributed.transport import LoopbackTransport
from repro.faults.injectors import FaultSpec
from repro.faults.shards import PERMANENT, ShardFaultPlan, ShardFaultSpec
from repro.generators.planted import planted_partition_instance
from repro.obs.tracer import TraceCollector
from repro.streaming.orders import CanonicalOrder, RandomOrder, SetGroupedOrder

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
    so operational metadata (transport byte reports) stays
    out, exactly as it stays out of ``DistributedResult.__eq__``.
    Every mapping (a dict or a column-backed ``Certificate``) is its
    sorted items.
    Floats are kept as their ``repr`` so no digit is lost.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.compare
        }
    if isinstance(value, Mapping):
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
        "11ad892164330d5b",
    ),
    ("async", "greedy", "crash"): (
        "5c75dd3c1d92467e",
        "711f9968d1f3e3de",
    ),
    ("async", "greedy", "duplicate"): (
        "c019dd409f86a9f5",
        "915098110423c9bc",
    ),
    ("async", "greedy", "straggle"): (
        "e03074c2be0b26a8",
        "6a0de79d7e218089",
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


#: Stream faults for the data-path grid: some edges point at unknown ids
#: (dropped and counted by the worker), some arrive twice.
STREAM_FAULTS = (
    FaultSpec(kind="corrupt", rate=0.1, seed=1),
    FaultSpec(kind="duplicate", rate=0.15, seed=2),
)

#: Data-path variant -> (strategy, order factory, stream faults).
DATA_PATHS = {
    "by-element": ("by-element", lambda: RandomOrder(seed=7), None),
    "hash": ("hash", lambda: RandomOrder(seed=7), None),
    "set-grouped": ("by-set", lambda: SetGroupedOrder(seed=7), None),
    "canonical-hash": ("hash", CanonicalOrder, None),
    "stream-faults": ("by-set", lambda: RandomOrder(seed=7), STREAM_FAULTS),
    "hash-stream-faults": ("hash", lambda: RandomOrder(seed=7), STREAM_FAULTS),
}


def run_data_path_cell(instance, coordinator: str, path: str):
    """Run one data-path cell; returns ``(result, trace_jsonl)``."""
    strategy, make_order, faults = DATA_PATHS[path]
    collector = TraceCollector()
    result = run_distributed(
        instance,
        workers=4,
        algorithm="kk",
        strategy=strategy,
        coordinator=coordinator,
        order=make_order(),
        seed=5,
        backend="serial",
        comm_log=True,
        collector=collector,
        faults=faults,
    )
    return result, collector.to_jsonl()


#: (coordinator, data path) -> (result digest, trace digest).
EXPECTED_DATA_PATH_DIGESTS = {
    ("union", "by-element"): (
        "b70012be4c677be1",
        "46dd6e4cf81695dc",
    ),
    ("union", "canonical-hash"): (
        "966f0182fcc3aab6",
        "a2f2f9158325b0d5",
    ),
    ("union", "hash"): (
        "ed71dd824a99e41c",
        "146d666a12ab35f5",
    ),
    ("union", "hash-stream-faults"): (
        "d9fb6d33904c16bd",
        "ca97e69895a6fb6f",
    ),
    ("union", "set-grouped"): (
        "39090079bbf658ec",
        "b71aa6c013f6c709",
    ),
    ("union", "stream-faults"): (
        "20b898fcd315c70d",
        "13aa725984c87a99",
    ),
    ("greedy", "by-element"): (
        "1287ca97bb1b56a7",
        "250644da67327d07",
    ),
    ("greedy", "canonical-hash"): (
        "71a33ee77da49b05",
        "f3871b66523174e6",
    ),
    ("greedy", "hash"): (
        "9b01d76e32ccd1ee",
        "3da843e2ae3d9f02",
    ),
    ("greedy", "hash-stream-faults"): (
        "7c34d392953fc397",
        "cb3fcb3c70819207",
    ),
    ("greedy", "set-grouped"): (
        "0ed63db2df927142",
        "0ea699159d643978",
    ),
    ("greedy", "stream-faults"): (
        "15580a66c8d79fd0",
        "2970d5bc56ade269",
    ),
    ("chain", "by-element"): (
        "54a723b9e8a1bb58",
        "6ccd9819468ec162",
    ),
    ("chain", "canonical-hash"): (
        "1622cfc91032e9ae",
        "fe2b2d0d7c3e6110",
    ),
    ("chain", "hash"): (
        "309a7b41738ef810",
        "1deac23634aab7e3",
    ),
    ("chain", "hash-stream-faults"): (
        "741c776e22d3c13f",
        "ea989cea94387b70",
    ),
    ("chain", "set-grouped"): (
        "a76131592cf1a695",
        "9f828d56dcad8a62",
    ),
    ("chain", "stream-faults"): (
        "2580ae92add4fc7d",
        "066714e447e1d678",
    ),
    ("tree", "by-element"): (
        "095e99dce3dd2049",
        "18d56a2fe398f703",
    ),
    ("tree", "canonical-hash"): (
        "eaf765a63fc89d37",
        "4b552239b86eb765",
    ),
    ("tree", "hash"): (
        "c0d821f1ef84a6b4",
        "9d876b968e40f69a",
    ),
    ("tree", "hash-stream-faults"): (
        "7c485420840ea12c",
        "844d677c4c0d3a8d",
    ),
    ("tree", "set-grouped"): (
        "9a5d775ca2974881",
        "e2f34bd9a1594cdc",
    ),
    ("tree", "stream-faults"): (
        "10afa95e05016286",
        "6545590a9c8b4276",
    ),
}


@pytest.mark.parametrize("path", sorted(DATA_PATHS))
@pytest.mark.parametrize("coordinator", COORDINATORS)
def test_data_path_pinned(instance, coordinator, path):
    result, trace = run_data_path_cell(instance, coordinator, path)
    if DATA_PATHS[path][2] is None:
        result.verify(instance)
        assert result.diagnostics["dropped_invalid_edges"] == 0
    else:
        assert result.diagnostics["dropped_invalid_edges"] > 0
    assert (result_digest(result), _digest(trace)) == (
        EXPECTED_DATA_PATH_DIGESTS[(coordinator, path)]
    )


#: Wire grid: coordinator -> the τ modes it runs under.  The star
#: coordinators have no take-threshold; the protocol merges run with the
#: fixed √(n/W) and with adaptive re-estimation.
WIRE_MODES = {
    "union": ("fixed",),
    "greedy": ("fixed",),
    "chain": ("fixed", "adaptive"),
    "tree": ("fixed", "adaptive"),
}
WIRE_WIDTHS = (1, 3, 8)
WIRE_CELLS = [
    (coordinator, mode, workers)
    for coordinator, modes in WIRE_MODES.items()
    for mode in modes
    for workers in WIRE_WIDTHS
]


def run_wire_cell(instance, coordinator: str, mode: str, workers: int):
    """Run one wire cell over a lossy, jittered loopback; returns the
    :class:`~repro.distributed.transport.TransportReport`."""
    result = run_distributed_async(
        instance,
        workers=workers,
        algorithm="kk",
        strategy="by-set",
        coordinator=coordinator,
        order=RandomOrder(seed=7),
        seed=5,
        backend="serial",
        adaptive_threshold=mode == "adaptive",
        shard_faults=ShardFaultPlan({0: ShardFaultSpec(duplicate=True)}),
        schedule_seed=3,
        transport=LoopbackTransport(seed=1, jitter=2, drop_rate=0.2),
    )
    result.verify(instance)
    return result.transport


def wire_signature(report) -> tuple:
    """``(per-link digest, total bytes, frames, retransmits, logical
    clock, idle ticks)`` of one transport report."""
    links = {
        "bytes": report.per_link_bytes,
        "frames": report.per_link_frames,
        "retransmits": report.per_link_retransmits,
    }
    return (
        _digest(json.dumps(links, sort_keys=True)),
        report.total_bytes,
        report.total_frames,
        report.retransmits,
        int(report.diagnostics["logical_clock"]),
        int(report.diagnostics["idle_ticks"]),
    )


#: (coordinator, τ mode, W) -> wire_signature.  TransportReport is
#: excluded from result equality, so the grids above cannot see a change
#: to hand-off frame bytes; this one pins them.
EXPECTED_WIRE = {
    ('union', 'fixed', 1): ('2c0fe03c5341bb65', 1702, 2, 1, 2, 1),
    ('union', 'fixed', 3): ('24a7e446c2b8b6b7', 3308, 4, 1, 8, 5),
    ('union', 'fixed', 8): ('2b94fa59d120b8ab', 8289, 11, 3, 20, 12),
    ('greedy', 'fixed', 1): ('da2a543c78c96f43', 3450, 2, 1, 2, 1),
    ('greedy', 'fixed', 3): ('cd182dd31dac3cd4', 5940, 4, 1, 8, 5),
    ('greedy', 'fixed', 8): ('d69145e627013b1b', 11103, 11, 3, 20, 12),
    ('chain', 'fixed', 1): ('ff04725de9805093', 0, 0, 0, 0, 0),
    ('chain', 'fixed', 3): ('1f9153f2fc33723b', 2541, 3, 1, 5, 3),
    ('chain', 'fixed', 8): ('25c469fd079a7dd4', 8646, 10, 3, 18, 11),
    ('chain', 'adaptive', 1): ('ff04725de9805093', 0, 0, 0, 0, 0),
    ('chain', 'adaptive', 3): ('1f9153f2fc33723b', 2541, 3, 1, 5, 3),
    ('chain', 'adaptive', 8): ('1473ff3b18e10e18', 8822, 10, 3, 18, 11),
    ('tree', 'fixed', 1): ('ff04725de9805093', 0, 0, 0, 0, 0),
    ('tree', 'fixed', 3): ('ed05afa0109214a6', 2674, 3, 1, 5, 3),
    ('tree', 'fixed', 8): ('b8f13db1d1390c08', 9303, 10, 3, 18, 11),
    ('tree', 'adaptive', 1): ('ff04725de9805093', 0, 0, 0, 0, 0),
    ('tree', 'adaptive', 3): ('1e50e1620aadeff2', 3080, 3, 1, 5, 3),
    ('tree', 'adaptive', 8): ('4f671bb41a636917', 9675, 10, 3, 18, 11),
}


@pytest.mark.parametrize("coordinator,mode,workers", WIRE_CELLS)
def test_wire_pinned(instance, coordinator, mode, workers):
    report = run_wire_cell(instance, coordinator, mode, workers)
    assert report.transport == "loopback"
    assert wire_signature(report) == EXPECTED_WIRE[(coordinator, mode, workers)]


#: Protocol grid: the cells where set keys repeat across parties (by-element
#: and hash routing) under adaptive τ, plus one quorum-degraded cell per
#: coordinator (by-element routing with shard 1 lost, so the elements it
#: held stay uncovered and the protocol residue patch runs partial).
#: Cell -> (coordinator, strategy, adaptive, degraded).
PROTOCOL_CELLS = {
    ("chain", "adaptive-by-element"): ("by-element", True, False),
    ("chain", "adaptive-hash"): ("hash", True, False),
    ("tree", "adaptive-by-element"): ("by-element", True, False),
    ("tree", "adaptive-hash"): ("hash", True, False),
    **{
        (coordinator, "degraded-by-element"): ("by-element", False, True)
        for coordinator in COORDINATORS
    },
}


def run_protocol_cell(instance, coordinator: str, cell: str):
    """Run one protocol cell; returns ``(result, trace_jsonl)``."""
    strategy, adaptive, degraded = PROTOCOL_CELLS[(coordinator, cell)]
    collector = TraceCollector()
    extra = {}
    if degraded:
        extra = {
            "shard_faults": ShardFaultPlan(
                {1: ShardFaultSpec(crash_attempts=PERMANENT)}
            ),
            "min_shards": 3,
        }
    result = run_distributed(
        instance,
        workers=4,
        algorithm="kk",
        strategy=strategy,
        coordinator=coordinator,
        order=RandomOrder(seed=7),
        seed=5,
        backend="serial",
        adaptive_threshold=adaptive,
        comm_log=True,
        collector=collector,
        **extra,
    )
    return result, collector.to_jsonl()


#: (coordinator, cell) -> (result digest, trace digest).  Recorded from
#: the code before the protocol merge state moved onto arrays.
EXPECTED_PROTOCOL_DIGESTS = {
    ("chain", "adaptive-by-element"): (
        "1a5e60b6582292a9",
        "6ccd9819468ec162",
    ),
    ("chain", "adaptive-hash"): (
        "f1212e2fa92cca95",
        "a5d001e34abc625a",
    ),
    ("chain", "degraded-by-element"): (
        "1f2080c72b3fe97b",
        "e170db91adbe5712",
    ),
    ("greedy", "degraded-by-element"): (
        "4a1dcb93ac8bdfe6",
        "f46d5f2536251f99",
    ),
    ("tree", "adaptive-by-element"): (
        "e175894bd71ff4c8",
        "8acf45f97342bdee",
    ),
    ("tree", "adaptive-hash"): (
        "9b12acf2922fbdee",
        "6b160c15336daee4",
    ),
    ("tree", "degraded-by-element"): (
        "aea4f32bc749e52b",
        "9ca64bf520271f0c",
    ),
    ("union", "degraded-by-element"): (
        "aa63c8e1cd4723c2",
        "a04b310c9b9fdd74",
    ),
}


@pytest.mark.parametrize("coordinator,cell", sorted(PROTOCOL_CELLS))
def test_protocol_path_pinned(instance, coordinator, cell):
    result, trace = run_protocol_cell(instance, coordinator, cell)
    degraded = PROTOCOL_CELLS[(coordinator, cell)][2]
    result.verify(instance, allow_partial=degraded)
    assert bool(result.degradations) == bool(result.uncovered) == degraded
    assert (result_digest(result), _digest(trace)) == (
        EXPECTED_PROTOCOL_DIGESTS[(coordinator, cell)]
    )
