"""One-pass edge streams over a set-cover instance.

An :class:`EdgeStream` couples an instance with an arrival order and
enforces the single-pass discipline: once consumed, a stream refuses to
be iterated again (algorithms that accidentally take two passes fail
loudly in tests instead of silently cheating).

The builders freeze the ``int64`` columns an arrival order makes of
:meth:`SetCoverInstance.edge_columns` once, into a :class:`FrozenEdges`
buffer *shared* across every view of the ordering: creating a fresh
one-pass view is O(1).  Every consumer advances through one clamped
take (:meth:`EdgeStream._take_bounds`): batch consumers (see
:class:`StreamReader`) get column slices of the buffer, and per-edge
iteration turns the same slices into ``Edge`` records chunk by chunk.

Use :func:`stream_of` for the common case, or :class:`ReplayableStream`
in experiment harnesses where several algorithms must see the *same*
ordered stream.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import InvalidStreamError, StreamExhaustedError
from repro.streaming.instance import SetCoverInstance
from repro.streaming.orders import ArrivalOrder, CanonicalOrder, pair_columns
from repro.types import Edge

#: Edges a per-edge iteration converts to records at a time.
_CHUNK = 4096

EdgesLike = Union["FrozenEdges", Sequence[Edge]]


def _records(set_ids: np.ndarray, elements: np.ndarray) -> Iterator[Edge]:
    """``Edge`` records of two columns, made lazily.

    ``tuple.__new__`` builds each record in C; calling ``Edge`` would
    run the NamedTuple's Python-level ``__new__`` per edge, about twice
    the cost.
    """
    return map(tuple.__new__, repeat(Edge), zip(set_ids.tolist(), elements.tolist()))


class FrozenEdges:
    """An immutable edge ordering shared by every view of a stream.

    Holds the edges as a pair of numpy ``int64`` columns
    ``(set_ids, elements)``.  Built from ``(set, element)`` records, it
    converts them once at construction; built from columns
    (:meth:`from_columns`), it adopts them.  Iterating yields
    :class:`~repro.types.Edge` records made from the columns on demand
    (nothing is cached).  Wrapping an existing :class:`FrozenEdges` or
    passing the same instance to many streams never copies.
    """

    __slots__ = ("_set_ids", "_elements", "_extremes")

    def __init__(self, edges: EdgesLike) -> None:
        self._extremes: Optional[Tuple[int, int, int, int]] = None
        if isinstance(edges, FrozenEdges):
            self._set_ids, self._elements = edges.columns()
            return
        if not isinstance(edges, (list, tuple)):
            edges = tuple(edges)
        self._set_ids, self._elements = pair_columns(edges)

    @classmethod
    def from_columns(
        cls, set_ids: np.ndarray, elements: np.ndarray
    ) -> "FrozenEdges":
        """Adopt ``int64`` edge columns of equal length without copying."""
        if len(set_ids) != len(elements):
            raise InvalidStreamError(
                f"edge columns differ in length: {len(set_ids)} set ids, "
                f"{len(elements)} elements"
            )
        frozen = cls.__new__(cls)
        frozen._set_ids = set_ids
        frozen._elements = elements
        frozen._extremes = None
        return frozen

    def __len__(self) -> int:
        return len(self._set_ids)

    def __iter__(self) -> Iterator[Edge]:
        return _records(self._set_ids, self._elements)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrozenEdges):
            return NotImplemented
        return all(
            np.array_equal(mine, theirs)
            for mine, theirs in zip(self.columns(), other.columns())
        )

    def __hash__(self) -> int:
        return hash(tuple(column.tobytes() for column in self.columns()))

    def __reduce__(self):
        return (FrozenEdges.from_columns, self.columns())

    def __repr__(self) -> str:
        return f"FrozenEdges(N={len(self)})"

    def columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """Numpy ``(set_ids, elements)`` columns of the ordering.

        Shared by every stream view; slices of the returned arrays are
        numpy views, so chunked consumers never copy edge data.
        """
        return self._set_ids, self._elements

    def check_ids(self, n: int, m: int) -> None:
        """Raise :class:`InvalidStreamError` unless every edge is in range.

        Set ids must lie in ``range(m)`` and elements in ``range(n)``.
        The columns' extremes are found once and kept, so the buffer a
        replayable stream shares is scanned only on its first check.
        """
        if self._extremes is None:
            set_ids, elements = self._set_ids, self._elements
            self._extremes = (
                (
                    int(set_ids.min()),
                    int(set_ids.max()),
                    int(elements.min()),
                    int(elements.max()),
                )
                if len(set_ids)
                else (0, -1, 0, -1)
            )
        low_set, high_set, low_element, high_element = self._extremes
        if low_set >= 0 and high_set < m and low_element >= 0 and high_element < n:
            return
        set_ids, elements = self._set_ids, self._elements
        bad = np.flatnonzero(
            (set_ids < 0) | (set_ids >= m) | (elements < 0) | (elements >= n)
        )[0]
        raise InvalidStreamError(
            f"edge {int(bad)} ({int(set_ids[bad])}, {int(elements[bad])}) "
            f"is outside the instance: set ids lie in range({m}) and "
            f"elements in range({n})"
        )


class StreamReader:
    """Sequential batched cursor over a one-pass :class:`EdgeStream`.

    Obtained from :meth:`EdgeStream.reader`; the stream is marked
    consumed at that point, so the reader is the only way to advance it.
    :meth:`take_columns` returns the next edges as numpy views of the
    shared buffer's columns, for vectorized processing.
    """

    __slots__ = ("_stream", "_frozen")

    def __init__(self, stream: "EdgeStream") -> None:
        self._stream = stream
        self._frozen = stream._frozen

    @property
    def position(self) -> int:
        """Number of edges consumed so far."""
        return self._stream._position

    @property
    def remaining(self) -> int:
        """Number of edges not yet consumed."""
        return len(self._frozen) - self._stream._position

    def take_columns(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Consume up to ``k`` edges, returned as numpy column views.

        The returned chunk may be shorter than ``k`` at end of stream
        *or* when the stream has a pending checkpoint (takes never cross
        one); callers consuming a fixed quota must loop until the quota
        is filled or the chunk comes back empty.
        """
        if k < 0:
            raise ValueError(f"cannot take {k} edges")
        set_ids, elements = self._frozen.columns()
        stream = self._stream
        start, stop = stream._take_bounds(k)
        stream._position = stop
        return set_ids[start:stop], elements[start:stop]

    def peek_columns(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """The next up to ``k`` edges as numpy column views, not consumed.

        For a kernel that finds the events of a phase it is about to
        take with one pass of column masks: a peek moves nothing and
        fires no checkpoint, so the kernel must still take every edge
        before its state reflects it.
        """
        if k < 0:
            raise ValueError(f"cannot peek {k} edges")
        set_ids, elements = self._frozen.columns()
        start = self._stream._position
        return set_ids[start : start + k], elements[start : start + k]

    def take_rest_columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """Consume every remaining edge as numpy column views."""
        return self.take_columns(len(self._frozen) - self._stream._position)


class EdgeStream:
    """A single-pass stream of ``(set_id, element)`` edges.

    Parameters
    ----------
    instance:
        The underlying set-cover instance.
    edges:
        The ordered edge sequence to present; :func:`stream_of` passes
        the columns an :class:`~repro.streaming.orders.ArrivalOrder`
        makes of ``instance.edge_columns()``.  A :class:`FrozenEdges`
        is adopted without copying, so replayable harnesses share one
        buffer across every view; ``(set, element)`` records are frozen
        into columns once.
    order_name:
        Label recorded in experiment output.
    declared_length:
        Length ``N`` the stream *claims* to have; defaults to the true
        buffer length.  A mismatching value models hostile or buggy
        producers (fault injection, malformed files); consumers that
        trust :attr:`length` for epoch sizing will be misled, which is
        exactly what robustness tests probe.  :attr:`actual_length`
        always reports the truth.
    """

    def __init__(
        self,
        instance: SetCoverInstance,
        edges: EdgesLike,
        order_name: str = "canonical",
        declared_length: Optional[int] = None,
    ) -> None:
        self.instance = instance
        self._frozen = edges if isinstance(edges, FrozenEdges) else FrozenEdges(edges)
        self.order_name = order_name
        if declared_length is not None and declared_length < 0:
            raise InvalidStreamError(
                f"declared_length must be >= 0, got {declared_length}"
            )
        self._declared_length = declared_length
        self._consumed = False
        self._position = 0
        # Sorted positions at which _on_checkpoint() fires before the
        # edge at that position is consumed.  Subclasses (e.g. the
        # lower-bound boundary prober) populate this; batched takes are
        # clamped so they never cross a pending checkpoint, keeping the
        # hook's view of consumer state exact.
        self._checkpoints: List[int] = []

    @property
    def length(self) -> int:
        """The stream length N as *declared* (usually the true count)."""
        if self._declared_length is not None:
            return self._declared_length
        return len(self._frozen)

    @property
    def actual_length(self) -> int:
        """The number of edges the buffer genuinely holds."""
        return len(self._frozen)

    @property
    def position(self) -> int:
        """Number of edges already yielded."""
        return self._position

    @property
    def consumed(self) -> bool:
        """Whether iteration has started (one-pass guard)."""
        return self._consumed

    def _start_pass(self) -> None:
        if self._consumed:
            raise StreamExhaustedError(
                "edge stream already consumed; one-pass algorithms may not "
                "re-read the stream (use ReplayableStream in harnesses)"
            )
        self._consumed = True

    def __iter__(self) -> Iterator[Edge]:
        self._start_pass()
        return self._generate()

    def _generate(self) -> Iterator[Edge]:
        # Chunks come through the same clamped take as a batched reader,
        # and the position advances once per edge, so checkpoints fire
        # just before the edge at their position is handed out.
        set_ids, elements = self._frozen.columns()
        while True:
            start, stop = self._take_bounds(_CHUNK)
            if start >= stop:
                break
            for edge in _records(set_ids[start:stop], elements[start:stop]):
                self._position += 1
                yield edge
        self.flush_checkpoints()

    # -- checkpoint hooks ------------------------------------------------

    def _on_checkpoint(self) -> None:
        """Called when consumption reaches a position in ``_checkpoints``."""

    def flush_checkpoints(self) -> None:
        """Fire checkpoints at or before the consumed position.

        Harnesses call this after the consumer finishes so a checkpoint
        placed exactly at the stream end (e.g. an empty final party in
        the lower-bound reduction) still fires — but only once the
        consumer genuinely reached it.
        """
        checkpoints = self._checkpoints
        while checkpoints and checkpoints[0] <= self._position:
            self._on_checkpoint()
            checkpoints.pop(0)

    def _take_bounds(self, k: int) -> Tuple[int, int]:
        """Resolve a batched take: fire due checkpoints, clamp the stop.

        Returns the half-open ``[start, stop)`` slice the take may
        consume; ``stop`` never crosses a pending checkpoint, so the
        next take fires it only after the consumer has processed every
        earlier edge.
        """
        start = self._position
        stop = min(start + k, len(self._frozen))
        checkpoints = self._checkpoints
        if checkpoints:
            while checkpoints and checkpoints[0] == start:
                self._on_checkpoint()
                checkpoints.pop(0)
            if checkpoints and checkpoints[0] < stop:
                stop = checkpoints[0]
        return start, stop

    def reader(self) -> StreamReader:
        """A batched one-pass cursor over this stream (marks it consumed)."""
        self._start_pass()
        return StreamReader(self)

    def peek_all(self) -> FrozenEdges:
        """The shared ordered edge buffer, for verification only.

        Experiment harnesses and tests may inspect the stream; streaming
        algorithms must not (they receive the iterator, not the stream
        object's internals).  The buffer supports ``len`` and iteration
        over :class:`~repro.types.Edge`, and its
        :meth:`~FrozenEdges.columns` are read without a copy.
        """
        return self._frozen

    def __repr__(self) -> str:
        return (
            f"EdgeStream(N={self.length}, order={self.order_name!r}, "
            f"instance={self.instance!r})"
        )


class ReplayableStream:
    """Factory producing fresh one-pass :class:`EdgeStream` views.

    Freezes one ordered edge sequence so that multiple algorithms can be
    compared on the *identical* stream, each receiving its own one-pass
    view.  The frozen buffer is shared by every view: :meth:`fresh` is
    O(1) and never copies edges.
    """

    def __init__(
        self,
        instance: SetCoverInstance,
        order: Optional[ArrivalOrder] = None,
    ) -> None:
        self.instance = instance
        stream = stream_of(instance, order)
        self.order_name = stream.order_name
        self._frozen = stream.peek_all()

    @property
    def length(self) -> int:
        """The stream length N."""
        return len(self._frozen)

    def fresh(self) -> EdgeStream:
        """A new, unconsumed one-pass view of the frozen ordering."""
        return EdgeStream(self.instance, self._frozen, order_name=self.order_name)

    def edges(self) -> FrozenEdges:
        """The shared frozen edge buffer (verification only)."""
        return self._frozen

    def __repr__(self) -> str:
        return (
            f"ReplayableStream(N={self.length}, order={self.order_name!r}, "
            f"instance={self.instance!r})"
        )


def stream_of(
    instance: SetCoverInstance,
    order: Optional[ArrivalOrder] = None,
) -> EdgeStream:
    """Build a one-pass stream of ``instance`` under ``order``.

    With ``order=None`` the canonical (set-grouped, deterministic)
    enumeration is streamed.
    """
    order = order if order is not None else CanonicalOrder()
    frozen = FrozenEdges.from_columns(*order.apply_columns(*instance.edge_columns()))
    return EdgeStream(instance, frozen, order_name=order.name)


def concat_streams(first: EdgeStream, second: EdgeStream) -> EdgeStream:
    """Concatenate two unconsumed streams over the same universe.

    Used by the lower-bound reduction, where the last party appends the
    complement set's edges after the shared prefix.  Both inputs must be
    unconsumed; the result is a fresh stream over the combined instance
    of the *first* stream (callers are responsible for id consistency).
    """
    if first.consumed or second.consumed:
        raise StreamExhaustedError("cannot concatenate consumed streams")
    head, tail = first.peek_all().columns(), second.peek_all().columns()
    return EdgeStream(
        first.instance,
        FrozenEdges.from_columns(*map(np.concatenate, zip(head, tail))),
        order_name=f"{first.order_name}+{second.order_name}",
    )
