"""Zero-copy shard shipping: lifecycle, leak safety, payload sizes.

Three contracts from ``repro/distributed/shmem.py``:

1. **Lifecycle** — segments round-trip their columns exactly, cleanup
   is idempotent and actually unlinks the backing file, and nothing is
   left registered for the atexit sweep afterwards.
2. **Leak safety** — a worker raising mid-shard (or the dispatch
   failing any other way) still leaves zero named segments behind; the
   parent's ``finally`` owns the unlink.
3. **O(descriptor) shipping** — a shipped :class:`ShardTask` pickles to
   a near-constant size however long the stream is, while the classic
   pickled-edges payload grows linearly; and the shipping mode is
   operational only (shared-memory and pickle dispatches produce
   dataclass-equal results).

Plus the :meth:`ShardAccumulator.feed_columns` fast path, which must
build byte-identical accumulator state to the scalar :meth:`feed`.
"""

from __future__ import annotations

import dataclasses
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import (
    ProcessBackend,
    backends,
    build_shard_tasks,
    run_distributed,
)
from repro.distributed.shmem import (
    _LIVE_SEGMENTS,
    EdgeSegment,
    SpanView,
    measure_shipping,
    shared_memory_available,
    ship_tasks,
)
from repro.distributed.worker import ShardAccumulator
from repro.generators.planted import planted_partition_instance
from repro.generators.random_instances import fixed_size_instance
from repro.obs.tracer import TraceCollector
from repro.types import Edge

pytestmark = pytest.mark.skipif(
    not shared_memory_available(), reason="no multiprocessing.shared_memory"
)

SHM_DIR = Path("/dev/shm")


def _named_segments():
    """Names of this package's segments currently backed in /dev/shm."""
    if not SHM_DIR.is_dir():  # pragma: no cover - non-tmpfs platforms
        return set()
    return {p.name for p in SHM_DIR.glob("repro-*")}


@pytest.fixture(scope="module")
def instance():
    return planted_partition_instance(80, 40, opt_size=8, seed=11).instance


class TestSegmentLifecycle:
    def test_columns_round_trip(self):
        shards = [
            (np.array([3, 1, 4], dtype=np.int64), np.array([1, 5, 9], dtype=np.int64)),
            (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)),
            (np.array([2, 7], dtype=np.int64), np.array([1, 8], dtype=np.int64)),
        ]
        segment = EdgeSegment.create(shards)
        try:
            assert len(segment.spans) == 3
            assert [s.length for s in segment.spans] == [3, 0, 2]
            assert [s.offset for s in segment.spans] == [0, 3, 3]
            assert all(s.total == 5 for s in segment.spans)
            for (set_ids, elements), span in zip(shards, segment.spans):
                view = SpanView(span)
                try:
                    assert view.set_ids.tolist() == set_ids.tolist()
                    assert view.elements.tolist() == elements.tolist()
                finally:
                    view.close()
        finally:
            segment.cleanup()

    def test_cleanup_unlinks_and_is_idempotent(self):
        segment = EdgeSegment.create(
            [(np.array([1], dtype=np.int64), np.array([2], dtype=np.int64))]
        )
        name = segment.name
        assert name in _LIVE_SEGMENTS
        if SHM_DIR.is_dir():
            assert name in _named_segments()
        segment.cleanup()
        segment.cleanup()  # idempotent
        assert name not in _LIVE_SEGMENTS
        assert name not in _named_segments()

    def test_zero_length_span_attaches_nothing(self):
        segment = EdgeSegment.create(
            [(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))]
        )
        try:
            view = SpanView(segment.spans[0])
            assert len(view.set_ids) == 0
            assert len(view.elements) == 0
            view.close()
            view.close()  # idempotent
        finally:
            segment.cleanup()

    def test_view_close_releases_mapping(self):
        segment = EdgeSegment.create(
            [(np.array([5, 6], dtype=np.int64), np.array([7, 8], dtype=np.int64))]
        )
        try:
            view = SpanView(segment.spans[0])
            view.close()
            # After close the views are detached placeholders.
            assert len(view.set_ids) == 0
        finally:
            segment.cleanup()


class TestShipTasks:
    def test_spans_partition_the_stream(self, instance):
        tasks = build_shard_tasks(instance, workers=4, seed=0)
        total = sum(len(t.edges) for t in tasks)
        shipped, segment = ship_tasks(tasks)
        assert segment is not None
        try:
            assert all(t.edges == () for t in shipped)
            assert all(t.span is not None for t in shipped)
            assert sum(t.span.length for t in shipped) == total
            # Shipped edges read back equal to the originals, in order.
            for original, task in zip(tasks, shipped):
                view = SpanView(task.span)
                try:
                    pairs = list(
                        zip(view.set_ids.tolist(), view.elements.tolist())
                    )
                    assert pairs == [tuple(e) for e in original.edges]
                finally:
                    view.close()
        finally:
            segment.cleanup()

    def test_fallback_returns_tasks_unchanged(self, instance, monkeypatch):
        import repro.distributed.shmem as shmem

        monkeypatch.setattr(shmem, "_shared_memory", None)
        tasks = build_shard_tasks(instance, workers=3, seed=1)
        shipped, segment = ship_tasks(tasks)
        assert segment is None
        assert shipped == list(tasks)

    def test_pickled_task_is_descriptor_sized(self):
        # The regression this suite exists for: a shipped task's pickle
        # must stay O(descriptor) as the stream grows, while the classic
        # payload grows with it.  (n, m) are held fixed — the task's
        # set_order legitimately scales with m, but never with edges.
        sizes = []
        for set_size in (4, 40):
            inst = fixed_size_instance(200, 300, set_size, seed=3)
            tasks = build_shard_tasks(inst, workers=2, seed=3)
            shipped, segment = ship_tasks(tasks)
            assert segment is not None
            try:
                plain = max(
                    len(pickle.dumps(t, pickle.HIGHEST_PROTOCOL))
                    for t in tasks
                )
                slim = max(
                    len(pickle.dumps(t, pickle.HIGHEST_PROTOCOL))
                    for t in shipped
                )
                sizes.append((plain, slim))
            finally:
                segment.cleanup()
        (small_plain, small_slim), (large_plain, large_slim) = sizes
        assert large_plain > 4 * small_plain  # payload grows with stream
        assert abs(large_slim - small_slim) < 128  # descriptor stays flat
        assert large_slim < large_plain / 10

    def test_measure_shipping_reports(self, instance):
        tasks = build_shard_tasks(instance, workers=4, seed=0)
        report = measure_shipping(tasks, "pickle")
        assert report.mode == "pickle"
        assert report.tasks == 4
        assert report.stream_edges == instance.num_edges
        assert report.total_task_bytes == sum(report.task_bytes)
        assert report.max_task_bytes == max(report.task_bytes)
        shipped, segment = ship_tasks(tasks)
        assert segment is not None
        try:
            shm_report = measure_shipping(shipped, "shared-memory", segment)
            assert shm_report.stream_edges == instance.num_edges
            assert shm_report.segment_bytes == segment.nbytes
            assert shm_report.total_task_bytes < report.total_task_bytes
        finally:
            segment.cleanup()


class TestLeakSafety:
    def test_crashing_worker_leaves_no_segments(self, instance):
        # A task whose algorithm cannot resolve raises inside the child;
        # the parent's finally must still unlink the dispatch's segment.
        tasks = [
            dataclasses.replace(task, algorithm="no-such-algorithm")
            for task in build_shard_tasks(instance, workers=2, seed=0)
        ]
        before = _named_segments()
        backend = ProcessBackend()
        with pytest.raises(Exception):
            backend.run_tasks(tasks, max_workers=2)
        assert _named_segments() == before
        assert not _LIVE_SEGMENTS

    def test_successful_dispatch_leaves_no_segments(self, instance):
        tasks = build_shard_tasks(instance, workers=2, algorithm="kk", seed=5)
        before = _named_segments()
        backend = ProcessBackend()
        envelopes = backend.run_tasks(tasks, max_workers=2)
        assert len(envelopes) == 2
        assert backend.last_shipping is not None
        assert backend.last_shipping.mode == "shared-memory"
        assert _named_segments() == before
        assert not _LIVE_SEGMENTS


class TestShippingModeIsOperational:
    def test_shm_and_pickle_results_equal(self, instance, monkeypatch):
        kwargs = dict(
            workers=4, algorithm="kk", seed=29, backend="process",
            max_workers=2,
        )
        shm_trace, pickled_trace = TraceCollector(), TraceCollector()
        shm = run_distributed(instance, collector=shm_trace, **kwargs)
        # The platform probe alone picks the mode; fake a platform
        # without shared memory to take the pickled-edges fallback.
        monkeypatch.setattr(backends, "shared_memory_available", lambda: False)
        pickled = run_distributed(instance, collector=pickled_trace, **kwargs)
        assert shm == pickled
        assert shm_trace.to_jsonl() == pickled_trace.to_jsonl()
        assert shm.shipping is not None and shm.shipping.mode == "shared-memory"
        assert pickled.shipping is not None and pickled.shipping.mode == "pickle"
        assert (
            shm.shipping.max_task_bytes < pickled.shipping.max_task_bytes
        )

    def test_inline_dispatch_ships_nothing(self, instance):
        tasks = build_shard_tasks(instance, workers=3, seed=2)
        backend = ProcessBackend()
        backend.run_tasks(tasks, max_workers=1)
        assert backend.last_shipping is None


EDGES = st.lists(
    st.tuples(st.integers(-2, 12), st.integers(-2, 15)), max_size=80
)


class TestFeedColumnsEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(pairs=EDGES)
    def test_matches_scalar_feed(self, pairs):
        edges = [Edge(s, u) for s, u in pairs]
        set_ids = np.array([s for s, _ in pairs], dtype=np.int64)
        elements = np.array([u for _, u in pairs], dtype=np.int64)
        scalar = ShardAccumulator(0, n=16, m=13)
        vector = ShardAccumulator(0, n=16, m=13)
        scalar.feed(edges)
        # Feed in two chunks to exercise cross-chunk first-appearance.
        half = len(pairs) // 2
        vector.feed_columns(set_ids[:half], elements[:half])
        vector.feed_columns(set_ids[half:], elements[half:])
        assert vector.edges_fed == scalar.edges_fed
        assert vector.clean == scalar.clean
        assert vector.dropped == scalar.dropped
        assert vector.set_ids == scalar.set_ids
        assert vector.members_by_set == scalar.members_by_set


class TestShipTasksCleanupPaths:
    """Regressions for the create-to-rewrite window and the atexit sweep."""

    def test_rewrite_failure_cleans_segment_promptly(
        self, instance, monkeypatch
    ):
        # If the task rewrite between segment creation and return blows
        # up, the brand-new segment must be unlinked on the spot — not
        # parked in the registry until the atexit sweep.
        from repro.distributed import shmem

        tasks = build_shard_tasks(instance, workers=3, seed=5)
        before = _named_segments()

        def broken_replace(*args, **kwargs):
            raise RuntimeError("rewrite failed")

        monkeypatch.setattr(shmem, "replace", broken_replace)
        with pytest.raises(RuntimeError, match="rewrite failed"):
            ship_tasks(tasks)
        assert _named_segments() == before
        assert not shmem._LIVE_SEGMENTS

    def test_atexit_sweep_survives_a_failing_cleanup(self, instance):
        # One segment whose cleanup raises must not abort the sweep:
        # the remaining live segments still get unlinked, and the bad
        # handle is dropped from the registry so a second sweep is a
        # no-op instead of a re-raise.
        from repro.distributed import shmem

        tasks = build_shard_tasks(instance, workers=2, seed=6)
        _, first = ship_tasks(tasks)
        _, second = ship_tasks(tasks)
        assert first is not None and second is not None

        original_cleanup = first.cleanup
        calls = {"count": 0}

        def failing_cleanup():
            calls["count"] += 1
            raise OSError("unlink refused")

        first.cleanup = failing_cleanup
        try:
            shmem._cleanup_live_segments()
            assert calls["count"] == 1
            assert first.name not in shmem._LIVE_SEGMENTS
            assert second.name not in _named_segments()
            # Second sweep: the failing handle is gone, nothing raises.
            shmem._cleanup_live_segments()
            assert calls["count"] == 1
        finally:
            first.cleanup = original_cleanup
            first.cleanup()
        assert first.name not in _named_segments()
        assert not shmem._LIVE_SEGMENTS

    def test_unlink_failure_does_not_block_later_segments(self, instance):
        # The ISSUE scenario verbatim: a segment whose *unlink* raises
        # mid-sweep must not prevent later live segments from being
        # unlinked.  The sweep snapshots the live set up front, so the
        # failing segment's own registry mutation (cleanup pops itself
        # before unlinking) cannot perturb the iteration either.
        from repro.distributed import shmem

        tasks = build_shard_tasks(instance, workers=2, seed=8)
        _, first = ship_tasks(tasks)
        _, second = ship_tasks(tasks)
        assert first is not None and second is not None

        real_unlink = first._shm.unlink

        def refusing_unlink():
            raise OSError("unlink refused")

        first._shm.unlink = refusing_unlink
        try:
            shmem._cleanup_live_segments()
        finally:
            first._shm.unlink = real_unlink
        # The later segment was unlinked despite the earlier failure,
        # and no handle lingers to make a second sweep re-raise.
        assert second.name not in _named_segments()
        assert not shmem._LIVE_SEGMENTS
        shmem._cleanup_live_segments()  # no-op, nothing raises
        real_unlink()  # reclaim the segment the fault left behind
        assert first.name not in _named_segments()

    def test_failed_cleanup_drop_is_by_identity(self, instance):
        # The sweep drops a failed segment's handle by *identity*; a
        # different live segment that happens to sit under the failing
        # segment's name (shm name reuse) must survive the drop.
        from repro.distributed import shmem

        tasks = build_shard_tasks(instance, workers=2, seed=9)
        _, failing = ship_tasks(tasks)
        _, survivor = ship_tasks(tasks)
        assert failing is not None and survivor is not None

        def boom():
            raise OSError("unlink refused")

        failing.cleanup = boom
        # Simulate name reuse: the survivor owns the failing segment's
        # original name slot; the failing handle sits under a stale key.
        shmem._LIVE_SEGMENTS.pop(failing.name)
        shmem._LIVE_SEGMENTS.pop(survivor.name)
        stale_key = "stale:" + failing.name
        shmem._LIVE_SEGMENTS[stale_key] = failing
        shmem._LIVE_SEGMENTS[failing.name] = survivor
        try:
            shmem._cleanup_live_segments()
            # The stale alias holding the failing handle is gone, and a
            # pop-by-name sweep would have evicted the survivor's
            # reused-name entry instead — it must still be there.
            assert stale_key not in shmem._LIVE_SEGMENTS
            assert shmem._LIVE_SEGMENTS.get(failing.name) is survivor
            # The survivor itself was still swept (snapshot iteration).
            assert survivor.name not in _named_segments()
        finally:
            del failing.cleanup
            shmem._LIVE_SEGMENTS.clear()
            failing.cleanup()
            survivor.cleanup()
        assert not shmem._LIVE_SEGMENTS
