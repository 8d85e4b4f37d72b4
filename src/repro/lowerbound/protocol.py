"""One-way multi-party communication protocol simulation.

Theorem 2 converts a one-pass streaming algorithm into a one-way
``t``-party protocol: party 1 runs the algorithm on its share of the
edges and forwards the *memory state*; party ``i`` resumes from the
received state; the longest forwarded message lower-bounds the
algorithm's space.

This module provides both directions:

* :class:`OneWayChain` — a generic simulator for hand-written protocols
  (parties are callables ``(incoming_message, party_input) -> Message``)
  with exact word-level message accounting.  The deterministic 2√(nt)
  protocol (:mod:`repro.distributed.chain`) does not run through it:
  that module cannot import this package, so it keeps its own party
  loop.
* :func:`run_partitioned_stream` — drives a *real* streaming algorithm
  over edges partitioned among parties and records the algorithm's live
  state size (its :class:`SpaceMeter` reading) at every party boundary.
  Those readings are exactly the message sizes of the induced protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generic, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.core.base import StreamingSetCoverAlgorithm
from repro.core.solution import StreamingResult
from repro.errors import ProtocolError
from repro.streaming.instance import SetCoverInstance
from repro.streaming.stream import EdgeStream, EdgesLike, FrozenEdges

PayloadT = TypeVar("PayloadT")


@dataclass
class Message(Generic[PayloadT]):
    """A protocol message: a payload plus its size in words.

    Parties are on their honour to declare ``words`` consistent with
    their payload; the hand-written protocols in this package compute it
    from explicit formulas that the tests check against the payload.
    """

    payload: PayloadT
    words: int

    def __post_init__(self) -> None:
        if self.words < 0:
            raise ProtocolError(f"message size must be >= 0, got {self.words}")


@dataclass
class ProtocolResult(Generic[PayloadT]):
    """Transcript summary of one protocol execution."""

    output: PayloadT
    message_words: List[int] = field(default_factory=list)

    @property
    def max_message_words(self) -> int:
        """Length of the longest message — the quantity lower bounds govern."""
        return max(self.message_words) if self.message_words else 0


PartyFn = Callable[[Optional[Message], object], Message]


class OneWayChain:
    """Sequential one-way protocol: party 1 → party 2 → … → party t.

    Parameters
    ----------
    parties:
        One callable per party.  Party ``i`` receives the message of
        party ``i-1`` (``None`` for the first) and its own input, and
        returns a :class:`Message`.  The last party's message payload is
        the protocol output.
    """

    def __init__(self, parties: Sequence[PartyFn]) -> None:
        if len(parties) < 2:
            raise ProtocolError(
                f"a protocol needs at least 2 parties, got {len(parties)}"
            )
        self._parties = list(parties)

    def execute(self, inputs: Sequence[object]) -> ProtocolResult:
        """Run the chain on per-party ``inputs`` and return the transcript."""
        if len(inputs) != len(self._parties):
            raise ProtocolError(
                f"{len(self._parties)} parties but {len(inputs)} inputs"
            )
        message: Optional[Message] = None
        sizes: List[int] = []
        for party, party_input in zip(self._parties, inputs):
            message = party(message, party_input)
            if not isinstance(message, Message):
                raise ProtocolError(
                    f"party returned {type(message).__name__}, expected Message"
                )
            sizes.append(message.words)
        assert message is not None
        # The final "message" is the output announcement; by convention
        # it is excluded from the max-message statistic (the lower bound
        # concerns inter-party communication).
        return ProtocolResult(output=message.payload, message_words=sizes[:-1])


class _BoundaryProbingStream(EdgeStream):
    """Stream that snapshots an algorithm's meter at party boundaries.

    ``boundaries[i]`` is the number of edges owned by parties ``1..i``
    combined; just before the first edge of party ``i+1`` is consumed
    (and once at stream end) the algorithm's current word count is
    recorded.  Implemented on the base stream's checkpoint hooks, so it
    works for per-edge iteration and batched readers alike — batched
    takes are clamped at the boundaries, guaranteeing the algorithm has
    processed exactly parties ``1..i`` when the snapshot is taken.
    """

    def __init__(
        self,
        instance: SetCoverInstance,
        edges: EdgesLike,
        boundaries: Sequence[int],
        meter_reader: Callable[[], int],
        order_name: str = "partitioned",
    ) -> None:
        super().__init__(instance, edges, order_name=order_name)
        # Duplicates are meaningful: an empty party yields a boundary at
        # the same position as its predecessor and still sends a message.
        self._checkpoints = sorted(boundaries)
        self._meter_reader = meter_reader
        self.recorded: List[int] = []

    def _on_checkpoint(self) -> None:
        self.recorded.append(self._meter_reader())


def run_partitioned_stream(
    algorithm: StreamingSetCoverAlgorithm,
    instance: SetCoverInstance,
    party_edges: Sequence[EdgesLike],
) -> Tuple[StreamingResult, List[int]]:
    """Run ``algorithm`` over party-partitioned edges, measuring messages.

    The edges of all parties are concatenated in party order (this *is*
    the adversarial stream of the reduction) and the algorithm's live
    state size is recorded at each of the ``len(party_edges) - 1``
    hand-off points.  Returns the run result and those message sizes in
    words.  A party is a :class:`~repro.streaming.stream.FrozenEdges`
    (its columns are concatenated as they are) or a sequence of
    ``(set, element)`` records, which reach the same columns through
    ``FrozenEdges``.
    """
    if len(party_edges) < 2:
        raise ProtocolError("need at least two parties worth of edges")
    columns = [FrozenEdges(edges).columns() for edges in party_edges]
    boundaries = np.cumsum([len(set_ids) for set_ids, _ in columns[:-1]]).tolist()
    stream = _BoundaryProbingStream(
        instance,
        FrozenEdges.from_columns(
            np.concatenate([set_ids for set_ids, _ in columns]),
            np.concatenate([elements for _, elements in columns]),
        ),
        boundaries,
        meter_reader=lambda: algorithm._meter.current_words,
    )
    result = algorithm.run(stream)
    # A boundary at the very end of the stream (empty last party) fires
    # once the algorithm has consumed everything.
    stream.flush_checkpoints()
    if len(stream.recorded) != len(boundaries):
        raise ProtocolError(
            f"expected {len(boundaries)} boundary snapshots, got "
            f"{len(stream.recorded)} (algorithm did not consume the stream?)"
        )
    return result, stream.recorded
