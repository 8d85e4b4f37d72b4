"""Common machinery shared by all streaming set-cover algorithms.

:class:`StreamingSetCoverAlgorithm` fixes the run protocol: an algorithm
is constructed once with its parameters and seed, then :meth:`run` makes
exactly one pass over an :class:`~repro.streaming.stream.EdgeStream` and
returns a :class:`~repro.core.solution.StreamingResult`.  A fresh
:class:`SpaceMeter` is created per run, and the standard "remember the
first set containing each element" patching store (Algorithm 1 line 4 /
Algorithm 2 line 10) is provided here because every algorithm in the
paper relies on it to guarantee feasibility.
"""

from __future__ import annotations

import math
import numbers
import random
from collections.abc import Mapping
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

import numpy as np

from repro.core.solution import StreamingResult
from repro.errors import (
    ConfigurationError,
    InvalidCoverError,
    PartialState,
    ReproError,
)
from repro.obs import events as obs_events
from repro.obs.tracer import NULL_TRACER, NullTracer, RecordingTracer
from repro.streaming.space import SpaceBudget, SpaceMeter
from repro.streaming.stream import EdgeStream
from repro.types import ElementId, SeedLike, SetId, first_occurrences, make_rng

Tracer = Union[NullTracer, RecordingTracer]
"""Anything honouring the tracer protocol (``enabled``/``span``/``event``/``count``)."""


class FirstSetStore:
    """Remembers, per element, the first set seen to contain it.

    Mirrors Algorithm 1 line 4 and Algorithm 2 lines 9–10.  The map is
    an ``int64`` array over the universe (−1 for an element not yet
    seen) plus the recorded elements in the order they were recorded
    (what :attr:`mapping` iterates); it costs Õ(n) space,
    charged as two words per recorded element to the given meter under
    the component name ``"first-set"``.  The meter is updated only when
    new elements are recorded, never per edge, and once per chunk on
    the columnar path.  Without ``universe_size`` the array grows to
    the largest element observed.  Element ids must be non-negative
    (the algorithms' runs check their streams first).
    """

    COMPONENT = "first-set"

    def __init__(
        self, meter: SpaceMeter, universe_size: Optional[int] = None
    ) -> None:
        self._meter = meter
        self._universe_size = universe_size
        self._first = np.full(universe_size or 0, -1, dtype=np.int64)
        self._order = np.empty(universe_size or 0, dtype=np.int64)
        self._count = 0

    def _reserve(self, size: int) -> np.ndarray:
        """The first-set array, grown (doubling) to hold ids below ``size``."""
        first = self._first
        if size > len(first):
            grown = np.full(max(size, 2 * len(first)), -1, dtype=np.int64)
            grown[: len(first)] = first
            self._first = first = grown
            order = np.empty(len(grown), dtype=np.int64)
            order[: self._count] = self._order[: self._count]
            self._order = order
        return first

    def _recorded(self, elements: Union[int, np.ndarray], added: int) -> None:
        """Append ``added`` newly recorded ``elements``; charge two words each."""
        count = self._count
        self._order[count : count + added] = elements
        self._count = count + added
        self._meter.set_component(self.COMPONENT, 2 * self._count)

    def observe(self, set_id: SetId, element: ElementId) -> None:
        """Record ``set_id`` as the witness for ``element`` if it is first."""
        first = self._first
        if element >= len(first):
            first = self._reserve(element + 1)
        if first[element] < 0:
            first[element] = set_id
            self._recorded(element, 1)

    def observe_columns(
        self, set_ids: np.ndarray, elements: np.ndarray
    ) -> None:
        """Batch :meth:`observe` over numpy edge columns.

        Equivalent to calling :meth:`observe` for every edge in order,
        but O(chunk) vectorized: once every universe element has been
        seen this degenerates to a single count check per chunk.
        """
        if self._count == self._universe_size or not len(elements):
            return
        first = self._reserve(int(elements.max()) + 1)
        fresh = np.flatnonzero(first[elements] < 0)
        if not len(fresh):
            return
        uniques, within = first_occurrences(elements[fresh], len(first))
        sets = set_ids[fresh[within]]
        budget = self._meter.budget
        if budget is not None:
            # Per-element writes would stop at the element whose two
            # words cross the budget, after writing it; ``uniques``
            # ascend, as those writes would.
            fit = max(1, (budget.words - self._meter.current_words) // 2 + 1)
            uniques, sets = uniques[:fit], sets[:fit]
        first[uniques] = sets
        self._recorded(uniques, len(uniques))

    def get(self, element: ElementId) -> Optional[SetId]:
        """The first set observed to contain ``element``, or ``None``."""
        first = self._first
        if 0 <= element < len(first) and first[element] >= 0:
            return int(first[element])
        return None

    @property
    def mapping(self) -> Mapping[ElementId, SetId]:
        """A live, read-only ``element -> first set`` view, in recording order.

        Exposed so algorithms can register it as salvageable state: if
        a pass dies mid-stream, the first-set witnesses collected so far
        are a legitimate partial certificate.
        """
        return _FirstSetView(self)

    def __len__(self) -> int:
        return self._count

    def patch(
        self,
        certificate: Dict[ElementId, SetId],
        cover: Set[SetId],
        universe_size: int,
    ) -> int:
        """Complete ``certificate``/``cover`` using stored first sets.

        Every element without a witness gets its first-seen set; the set
        is added to the cover.  Returns the number of patched elements.
        Raises :class:`InvalidCoverError` if some element was never seen
        in the stream at all (infeasible instance or truncated stream),
        after patching every lower element.  The unwitnessed elements
        come from a mask of the certificate's keys and are written as
        one batch per container.
        """
        witnessed = np.zeros(universe_size, dtype=bool)
        keys = np.fromiter(certificate.keys(), dtype=np.int64, count=len(certificate))
        witnessed[keys[(keys >= 0) & (keys < universe_size)]] = True
        missing = np.flatnonzero(~witnessed)
        firsts = np.full(len(missing), -1, dtype=np.int64)
        known = missing < len(self._first)
        firsts[known] = self._first[missing[known]]
        unseen = np.flatnonzero(firsts < 0)
        stop = int(unseen[0]) if len(unseen) else len(missing)
        elements, sets = missing[:stop].tolist(), firsts[:stop].tolist()
        certificate.update(zip(elements, sets))
        cover.update(sets)
        if stop < len(missing):
            raise InvalidCoverError(
                f"element {missing[stop]} never appeared in the stream; "
                "cannot patch a feasible cover"
            )
        return stop


class _FirstSetView(Mapping):
    """The recorded ``element -> first set`` pairs of a :class:`FirstSetStore`."""

    def __init__(self, store: FirstSetStore) -> None:
        self._store = store

    def __getitem__(self, element: ElementId) -> SetId:
        first = self._store.get(element)
        if first is None:
            raise KeyError(element)
        return first

    def __iter__(self) -> Iterator[ElementId]:
        store = self._store
        return iter(store._order[: store._count].tolist())

    def __len__(self) -> int:
        return len(self._store)


def uniforms(rng: random.Random, k: int) -> np.ndarray:
    """``k`` draws of ``rng.random()``, in call order, as a float64 array.

    An exact replay of CPython's ``random()``, which builds each double
    from two 32-bit Mersenne Twister outputs ``a``, ``b`` as
    ``((a >> 5)·2²⁶ + (b >> 6)) / 2⁵³``.  ``getrandbits(64·k)`` returns
    the same ``2k`` outputs, least significant first, so the doubles
    are equal and ``rng`` is left where ``k`` calls would leave it.
    Exact for :class:`random.Random` itself only (a subclass may
    override ``random()``); algorithms reject any other seed object.
    """
    if k <= 0:
        return np.empty(0, dtype=np.float64)
    words = np.frombuffer(
        rng.getrandbits(64 * k).to_bytes(8 * k, "little"), dtype="<u4"
    )
    high = (words[0::2] >> 5).astype(np.float64)
    return (high * 67108864.0 + (words[1::2] >> 6)) * (1.0 / 9007199254740992.0)


class CoinTape:
    """One run's ``rng.random()`` draws, read ahead and settled exactly.

    :meth:`peek` shows the next draws past the cursor without consuming
    them, :meth:`advance` consumes them, and :meth:`commit` leaves
    ``rng`` exactly where that many ``rng.random()`` calls would.
    Draws come from :func:`uniforms` in refills of at least
    :attr:`BLOCK`; consumed draws are dropped at the next refill, so the
    buffer stays near one window of draws.  Each refill first records
    the RNG state (``getstate``), and :meth:`commit` rewinds to the last
    record at or before the cursor and replays the rest with one
    ``getrandbits``: at most a refill's worth, nothing when every draw
    was consumed.  Callers commit in a ``finally`` block and keep the
    cursor current before any step that may raise, so a failed run
    leaves the RNG where a draw-by-draw loop would have stopped.
    """

    #: Smallest refill, in draws.
    BLOCK = 4096

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._buffer = np.empty(0, dtype=np.float64)
        self._base = 0  # draw index of buffer[0]
        self._cursor = 0  # draw index of the next unconsumed draw
        # (draw index, RNG state before that draw), one per refill.
        self._marks: List[Tuple[int, tuple]] = []

    def peek(self, k: int) -> np.ndarray:
        """The next ``k`` draws after the cursor, not consumed."""
        start = self._cursor - self._base
        if start + k > len(self._buffer):
            held = self._buffer[start:]
            self._base = self._cursor
            self._marks = self._marks[self._last_mark() :]
            self._marks.append((self._cursor + len(held), self._rng.getstate()))
            more = uniforms(self._rng, max(k - len(held), self.BLOCK))
            self._buffer = np.concatenate((held, more))
            start = 0
        return self._buffer[start : start + k]

    def advance(self, k: int) -> None:
        """Consume the next ``k`` draws."""
        self.peek(k)
        self._cursor += k

    def commit(self) -> None:
        """Leave ``rng`` after the consumed draws; start a fresh tape."""
        if self._cursor < self._base + len(self._buffer):
            position, state = self._marks[self._last_mark()]
            self._rng.setstate(state)
            if self._cursor > position:
                self._rng.getrandbits(64 * (self._cursor - position))
        self._buffer = np.empty(0, dtype=np.float64)
        self._base = self._cursor = 0
        self._marks = []

    def _last_mark(self) -> int:
        """Index of the last mark at or before the cursor (0 if none)."""
        index = 0
        for i, (position, _) in enumerate(self._marks):
            if position <= self._cursor:
                index = i
        return index


def check_probability(probability: float) -> float:
    """``probability`` itself, or :class:`ValueError` if it is not finite.

    A NaN would fail both boundary tests of a coin and then
    ``random() < nan`` is silently ``False``, turning a scaling-formula
    bug into a biased coin.
    """
    if not math.isfinite(probability):
        raise ValueError(f"coin probability must be finite, got {probability!r}")
    return probability


def check_alpha(alpha: float) -> float:
    """``alpha`` as a float, or :class:`ConfigurationError` unless a finite real ≥ 1."""
    if (
        isinstance(alpha, bool)
        or not isinstance(alpha, numbers.Real)
        or not math.isfinite(alpha)
        or alpha < 1
    ):
        raise ConfigurationError(f"alpha must be a finite real >= 1, got {alpha!r}")
    return float(alpha)


class StreamingSetCoverAlgorithm:
    """Abstract base for one-pass edge-arrival set-cover algorithms.

    Subclasses implement :meth:`_run` and may assume ``self._meter`` and
    ``self._rng`` are freshly prepared.  Construction parameters are
    immutable across runs; all per-run state must live inside
    :meth:`_run`.
    """

    #: Human-readable algorithm name; subclasses override.
    name = "abstract"

    def __init__(
        self,
        seed: SeedLike = None,
        space_budget: Optional[SpaceBudget] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if isinstance(seed, random.Random) and type(seed) is not random.Random:
            # The batched coins replay random.Random's own generator; a
            # subclass may override random() or (SystemRandom) keep no state.
            raise ConfigurationError(
                f"seed must be a random.Random, not a {type(seed).__name__}"
            )
        self._seed = seed
        self._space_budget = space_budget
        self._rng: random.Random = make_rng(seed)
        self._meter = SpaceMeter(budget=space_budget)
        self._salvage_cover: Optional[Iterable[SetId]] = None
        self._salvage_certificate: Optional[Mapping[ElementId, SetId]] = None
        self._tracer: Tracer = tracer if tracer is not None else NULL_TRACER

    @property
    def tracer(self) -> Tracer:
        """The active tracer (:data:`NULL_TRACER` unless one was attached)."""
        return self._tracer

    def set_tracer(self, tracer: Optional[Tracer]) -> None:
        """Attach ``tracer`` to future runs (``None`` restores the no-op).

        Exists so harnesses can instrument algorithms built by factories
        whose signatures they do not control (the registry, perfbench,
        the chaos grid) without widening every subclass constructor.
        """
        self._tracer = tracer if tracer is not None else NULL_TRACER

    def run(self, stream: EdgeStream) -> StreamingResult:
        """Execute one pass over ``stream`` and return the result.

        The meter is reset so results reflect this run only; the RNG is
        *not* reset (consecutive runs draw fresh randomness — pass a new
        instance for independent replications with recorded seeds).

        Any :class:`ReproError` escaping the pass (budget exhaustion,
        infeasible patching on a truncated stream, ...) is re-raised
        carrying a :class:`~repro.errors.PartialState` snapshot of the
        live containers the subclass registered via
        :meth:`_register_salvage`, so ``best_effort`` degradation can
        salvage the work already done instead of discarding the pass.

        An edge whose set or element id lies outside the instance raises
        :class:`~repro.errors.InvalidStreamError` before the pass starts
        (the ``skip_bad_edges`` and ``best_effort`` policies drop such
        edges first).
        """
        stream.peek_all().check_ids(stream.instance.n, stream.instance.m)
        self._meter = SpaceMeter(budget=self._space_budget)
        self._salvage_cover = None
        self._salvage_certificate = None
        tracer = self._tracer
        with tracer.span(
            obs_events.SPAN_RUN,
            algorithm=self.name,
            stream_length=stream.length,
        ):
            try:
                result = self._run(stream)
            except ReproError as error:
                if error.partial is None:
                    certificate = dict(self._salvage_certificate or {})
                    # With no explicit cover container, the witnesses named
                    # by the certificate are the best available cover.
                    cover = (
                        frozenset(self._salvage_cover)
                        if self._salvage_cover is not None
                        else frozenset(certificate.values())
                    )
                    error.partial = PartialState(
                        cover=cover,
                        certificate=certificate,
                        edges_consumed=stream.position,
                        meter_peak=self._meter.peak_words,
                    )
                if tracer.enabled:
                    tracer.event(
                        obs_events.RUN_FAILED,
                        error=type(error).__name__,
                        edges_consumed=stream.position,
                        peak_words=self._meter.peak_words,
                    )
                raise
            except Exception as error:
                if tracer.enabled:
                    tracer.event(
                        obs_events.RUN_FAILED,
                        error=type(error).__name__,
                        edges_consumed=stream.position,
                        peak_words=self._meter.peak_words,
                    )
                raise
            result.algorithm = result.algorithm or self.name
            if tracer.enabled:
                tracer.event(
                    obs_events.SPACE_SAMPLE,
                    phase="final",
                    peak_words=result.space.peak_words,
                    final_words=result.space.final_words,
                )
        return result

    def _run(self, stream: EdgeStream) -> StreamingResult:
        raise NotImplementedError

    # -- helpers for subclasses -------------------------------------------

    def _register_salvage(
        self,
        cover: Optional[Iterable[SetId]] = None,
        certificate: Optional[Mapping[ElementId, SetId]] = None,
    ) -> None:
        """Register live containers to snapshot if the pass fails.

        Subclasses call this once their cover / certificate containers
        exist (and may call again when a later phase replaces them).
        The references stay live — at failure time :meth:`run` copies
        whatever they hold into the error's :class:`PartialState`.
        """
        if cover is not None:
            self._salvage_cover = cover
        if certificate is not None:
            self._salvage_certificate = certificate

    def _coin(self, probability: float) -> bool:
        """Bernoulli draw — the paper's ``Coin(p)`` primitive.

        Non-finite probabilities raise (see :func:`check_probability`).
        """
        check_probability(probability)
        if self._tracer.enabled:
            self._tracer.count(obs_events.COIN_FLIP)
        if probability >= 1.0:
            return True
        if probability <= 0.0:
            return False
        return self._rng.random() < probability

    def _trace(self, etype: str, **attrs) -> None:
        """Emit a point event when tracing is on (no-op otherwise)."""
        if self._tracer.enabled:
            self._tracer.event(etype, **attrs)

    def _trace_count(self, name: str, delta: int = 1) -> None:
        """Accumulate a span counter when tracing is on (no-op otherwise)."""
        if self._tracer.enabled:
            self._tracer.count(name, delta)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
