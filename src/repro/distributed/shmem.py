"""Zero-copy shard shipping over POSIX shared memory.

The process backend used to pickle every shard's full edge tuple into
its :class:`~repro.distributed.backends.ShardTask` — O(stream) bytes
serialized per worker, re-materialized edge by edge in every child.
This module replaces that payload with a *descriptor*: the parent
copies all shards' edge columns once into a single
:mod:`multiprocessing.shared_memory` segment and each task carries only
a :class:`ShardSpan` — segment name, offset, length — so the pickled
task stays O(1) in the stream size and the child reads its shard as two
``int64`` numpy views over the same physical pages.

Segment layout (one segment per :meth:`EdgeSegment.create` call)::

    int64[total]  set_ids,  all shards concatenated in shard order
    int64[total]  elements, same order

Shard ``i`` owns rows ``[offset_i, offset_i + length_i)`` of both
columns.  Segment names are ``repro-<pid-hex>-<random-hex>``: unique
per creating process, collision-safe against stale segments from a
crashed predecessor with a recycled pid.

Lifecycle discipline (the leak-safety contract tested by
``tests/test_distributed_shmem.py``):

* the **parent** creates the segment, ships the spans, and unlinks it
  in a ``finally`` as soon as the pool returns — worker crashes
  included;
* a module-level ``atexit`` hook unlinks anything still live if the
  parent itself dies between create and cleanup.  Cleanup is owner-pid
  guarded so a forked pool child inheriting the registry can never
  unlink its parent's segments;
* the **child** attaches read-only views with
  :mod:`multiprocessing.resource_tracker` registration suppressed
  (CPython < 3.13 registers on attach as well as create, and pool
  children share the parent's tracker process — an attach-side
  registration would make the tracker double-unlink the parent's
  segment and corrupt its cache), and closes its mapping in a
  ``finally``.

When :mod:`multiprocessing.shared_memory` is unavailable, or segment
creation fails at runtime (no ``/dev/shm``, exhausted quota), shipping
falls back to the classic pickled-edges path: :func:`ship_tasks`
returns the tasks unchanged and the backend reports ``mode="pickle"``.
"""

from __future__ import annotations

import atexit
import os
import pickle
import secrets
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.streaming.stream import FrozenEdges

try:  # pragma: no cover - import guard exercised only on exotic builds
    from multiprocessing import resource_tracker as _resource_tracker
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _resource_tracker = None
    _shared_memory = None

_WORD_BYTES = 8


def shared_memory_available() -> bool:
    """Whether this interpreter can create shared-memory segments."""
    return _shared_memory is not None


@dataclass(frozen=True)
class ShardSpan:
    """Descriptor of one shard's rows inside an edge segment.

    This is the whole cross-process payload for a shard's edges: a
    segment name plus three integers, O(1) in the stream size.
    """

    segment: str
    offset: int
    length: int
    total: int


@dataclass(frozen=True)
class ShippingReport:
    """What one process-backend dispatch physically shipped.

    Operational metadata: recorded on the result for perfbench and
    tests, excluded from result equality — the shipping mode must not
    change what is computed.
    """

    mode: str  #: ``"shared-memory"`` or ``"pickle"``
    tasks: int
    stream_edges: int
    task_bytes: Tuple[int, ...]
    segment_bytes: int = 0

    @property
    def total_task_bytes(self) -> int:
        """Pickled bytes across every shipped task."""
        return sum(self.task_bytes)

    @property
    def max_task_bytes(self) -> int:
        """Largest single pickled task payload."""
        return max(self.task_bytes, default=0)


#: Segments created by this process and not yet cleaned up.
_LIVE_SEGMENTS: Dict[str, "EdgeSegment"] = {}
_ATEXIT_REGISTERED = False


def _cleanup_live_segments() -> None:
    """Unlink every still-live segment this process created (atexit).

    Best-effort sweep: one segment's failure (say, a mapping pinned by
    a pool initializer that raised before any task ran) must not leave
    the remaining live segments leaked — each cleanup is isolated.  The
    live set is snapshotted up front (``cleanup()`` mutates it as it
    runs), and a failed segment's handle is dropped *by identity*, not
    by name — popping by name could evict a newer, still-live segment
    that reused the label.
    """
    for segment in list(_LIVE_SEGMENTS.values()):
        try:
            segment.cleanup()
        except Exception:
            # Drop the handle so a repeated sweep cannot re-raise over
            # the same segment; the OS reclaims it at process exit.
            stale = [
                name
                for name, live in _LIVE_SEGMENTS.items()
                if live is segment
            ]
            for name in stale:
                _LIVE_SEGMENTS.pop(name, None)


def _track_segment(segment: "EdgeSegment") -> None:
    global _ATEXIT_REGISTERED
    _LIVE_SEGMENTS[segment.name] = segment
    if not _ATEXIT_REGISTERED:
        atexit.register(_cleanup_live_segments)
        _ATEXIT_REGISTERED = True


def _attach_untracked(name: str):
    """Attach to an existing segment without tracker registration.

    The attaching process does not own the segment, so it must not be
    registered for cleanup — the creating parent (which shares the same
    tracker process under a forking pool) already is.  Python 3.13 has
    ``track=False`` for exactly this; earlier versions register
    unconditionally on attach, so registration is suppressed for the
    duration of the constructor instead.  Pool children execute tasks
    one at a time, so the temporary patch cannot race.
    """
    try:
        return _shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    if _resource_tracker is None:  # pragma: no cover
        return _shared_memory.SharedMemory(name=name)
    original = _resource_tracker.register
    _resource_tracker.register = lambda *args, **kwargs: None
    try:
        return _shared_memory.SharedMemory(name=name)
    finally:
        _resource_tracker.register = original


class EdgeSegment:
    """Parent-side owner handle for one shared edge-column segment."""

    def __init__(
        self,
        shm,
        buffer: Optional[np.ndarray],
        spans: Tuple[ShardSpan, ...],
        owner_pid: int,
    ) -> None:
        self._shm = shm
        self._buffer = buffer
        self.spans = spans
        self._owner_pid = owner_pid
        self._closed = False

    @property
    def name(self) -> str:
        """The segment's attachable name."""
        return self._shm.name

    @property
    def nbytes(self) -> int:
        """Size of the underlying segment in bytes."""
        return self._shm.size

    @classmethod
    def create(
        cls, shard_columns: Sequence[Tuple[np.ndarray, np.ndarray]]
    ) -> "EdgeSegment":
        """Copy per-shard ``(set_ids, elements)`` columns into one segment.

        One O(total edges) copy on the parent side; every child then
        reads its shard zero-copy.  Raises :class:`OSError` (including
        the shared-memory module's failures) when the platform refuses;
        callers fall back to pickled shipping.
        """
        if _shared_memory is None:
            raise OSError("multiprocessing.shared_memory is unavailable")
        total = sum(len(set_ids) for set_ids, _ in shard_columns)
        name = f"repro-{os.getpid():x}-{secrets.token_hex(4)}"
        shm = _shared_memory.SharedMemory(
            create=True, size=max(_WORD_BYTES, 2 * total * _WORD_BYTES), name=name
        )
        try:
            buffer = np.ndarray((2, total), dtype=np.int64, buffer=shm.buf)
            offset = 0
            spans: List[ShardSpan] = []
            for set_ids, elements in shard_columns:
                k = len(set_ids)
                if k:
                    buffer[0, offset : offset + k] = set_ids
                    buffer[1, offset : offset + k] = elements
                spans.append(
                    ShardSpan(
                        segment=shm.name, offset=offset, length=k, total=total
                    )
                )
                offset += k
        except BaseException:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
            raise
        segment = cls(
            shm=shm, buffer=buffer, spans=tuple(spans), owner_pid=os.getpid()
        )
        _track_segment(segment)
        return segment

    def cleanup(self) -> None:
        """Close and unlink the segment; idempotent, owner-pid guarded.

        A forked child inheriting this handle (pool workers under the
        ``fork`` start method run the parent's atexit hooks) must never
        unlink the parent's live segment — hence the pid guard.
        """
        if self._closed or os.getpid() != self._owner_pid:
            return
        self._closed = True
        _LIVE_SEGMENTS.pop(self.name, None)
        self._buffer = None
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - stray view; freed at exit
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass


_EMPTY_COLUMN = np.empty(0, dtype=np.int64)


class SpanView:
    """Child-side attachment resolving a :class:`ShardSpan` to columns.

    ``set_ids`` / ``elements`` are zero-copy views over the shared
    pages (empty arrays for a zero-length span — nothing is attached).
    Callers must drop any derived views before :meth:`close`.
    """

    def __init__(self, span: ShardSpan) -> None:
        self._shm = None
        self.set_ids: np.ndarray = _EMPTY_COLUMN
        self.elements: np.ndarray = _EMPTY_COLUMN
        if span.length == 0 or _shared_memory is None:
            return
        shm = _attach_untracked(span.segment)
        self._shm = shm
        columns = np.ndarray((2, span.total), dtype=np.int64, buffer=shm.buf)
        stop = span.offset + span.length
        self.set_ids = columns[0, span.offset : stop]
        self.elements = columns[1, span.offset : stop]

    def close(self) -> None:
        """Drop the views and close this process's mapping (idempotent)."""
        if self._shm is None:
            return
        self.set_ids = _EMPTY_COLUMN
        self.elements = _EMPTY_COLUMN
        shm, self._shm = self._shm, None
        try:
            shm.close()
        except BufferError:  # pragma: no cover - stray view; freed at exit
            pass


def ship_tasks(tasks: Sequence) -> Tuple[List, Optional[EdgeSegment]]:
    """Convert tasks' edge payloads into spans over one fresh segment.

    Each task's edge columns are copied straight into the segment (no
    per-edge records).  Returns ``(shipped_tasks, segment)``.  Shipped
    tasks carry empty ``edges`` and a :class:`ShardSpan`; the caller
    owns the returned segment and must :meth:`EdgeSegment.cleanup` it
    once the pool is done.  On any shared-memory failure the original tasks come back
    with ``segment=None`` — the pickled-edges fallback.
    """
    columns = [FrozenEdges(task.edges).columns() for task in tasks]
    try:
        segment = EdgeSegment.create(columns)
    except OSError:
        return list(tasks), None
    try:
        shipped = [
            replace(task, edges=(), span=segment.spans[index])
            for index, task in enumerate(tasks)
        ]
    except BaseException:
        # The segment was created but no task will ever reference it —
        # without this, it would leak until the atexit sweep.
        segment.cleanup()
        raise
    return shipped, segment


def measure_shipping(
    tasks: Sequence, mode: str, segment: Optional[EdgeSegment] = None
) -> ShippingReport:
    """Measure what a dispatch of ``tasks`` physically serializes.

    ``task_bytes`` is the pickled size of each task exactly as the
    process pool would ship it — O(descriptor) under shared memory,
    O(shard) under the pickle fallback.
    """
    task_bytes = tuple(
        len(pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL))
        for task in tasks
    )
    if segment is not None:
        stream_edges = sum(
            task.span.length for task in tasks if task.span is not None
        )
    else:
        stream_edges = sum(len(task.edges) for task in tasks)
    return ShippingReport(
        mode=mode,
        tasks=len(tasks),
        stream_edges=stream_edges,
        task_bytes=task_bytes,
        segment_bytes=segment.nbytes if segment is not None else 0,
    )
