"""Coordinators: pluggable strategies for merging shard outputs.

Every coordinator consumes the :class:`~repro.distributed.worker.ShardOutput`
list, charges each message a shard (conceptually) uploads to the
:class:`~repro.distributed.comm.CommMeter`, and returns a
:class:`MergeOutcome`.  Four strategies, trading communication, cover
quality, and merge latency:

``union``
    Star topology.  Every shard uploads its (cover, certificate) pair;
    the coordinator returns the union.  Cheapest communication, largest
    covers — a shard's locally necessary pick is often globally
    redundant.
``greedy``
    Star topology.  Every shard uploads its cover sets *with their
    observed membership*; the coordinator reruns offline greedy over the
    pooled candidates.  More words per shard, near-offline-greedy cover
    quality — the merge-friendly regime of Bateni–Esfandiari–Mirrokni.
``chain``
    Line topology.  The shards relay the deterministic 2√(nW) protocol
    state (uncovered set, witnesses, chosen keys) along
    ``shard[0] → … → shard[W-1]``; the coordinator announces the last
    shard's output.  Under by-set routing this reproduces
    :func:`repro.lowerbound.simple_protocol.run_simple_protocol` exactly
    — same cover size, same ``max_message_words``.
``tree``
    Tournament topology.  Every shard runs the chain party step against
    the full universe, then states pair up and merge bottom-up in
    ``⌈log₂ W⌉`` rounds — same W−1 total messages as the chain, but
    same-round hand-offs are independent, so the merge's critical path
    on the async logical clock drops from Θ(W) to Θ(log W), at the
    cost of witness-heavy early messages (tracked per round).

``chain`` and ``tree`` both accept a fixed ``threshold`` override or
``adaptive=True`` mid-merge τ re-estimation, carried through
:class:`CoordinatorOptions`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

import numpy as np

from repro.distributed.chain import (
    ProtocolOutcome,
    StateSnapshot,
    chain_merge,
    tournament_merge,
)
from repro.core.solution import Certificate, greedy_picks
from repro.distributed.comm import (
    CommMeter,
    words_for_candidate_message,
    words_for_cover_message,
)
from repro.distributed.transport import (
    Transport,
    candidate_upload_wire,
    cover_upload_wire,
    handoff_wire,
    handoff_words,
    read_candidate_upload,
    read_cover_upload,
    tree_handoff_wire,
)
from repro.distributed.worker import ShardOutput
from repro.errors import (
    ConfigurationError,
    InvalidCoverError,
    InvalidParameterError,
    TransportError,
)
from repro.obs.events import MESSAGE_SENT
from repro.streaming.instance import SetCoverInstance
from repro.types import ElementId, SetId, first_occurrences


@dataclass
class MergeOutcome:
    """A coordinator's verdict: the global cover plus merge diagnostics.

    ``uncovered`` is empty for a full merge; a quorum-degraded merge
    (``allow_partial=True`` with shard outputs missing) lists the
    elements the surviving shards could not cover — the caller turns
    that into explicit :class:`~repro.faults.resilient.DegradationRecord`s.
    """

    cover: Tuple[SetId, ...]
    certificate: Mapping[ElementId, SetId]
    diagnostics: Dict[str, float] = field(default_factory=dict)
    uncovered: Tuple[ElementId, ...] = ()


def _send(
    comm: CommMeter,
    tracer,
    src: str,
    dst: str,
    words: int,
    transport: Transport,
    kind: str,
    payload: object,
) -> object:
    """Charge one message to the meter, move it, and return the payload.

    The meter is charged *first* — a :class:`~repro.errors.CommBudgetError`
    fires before anything crosses the wire, so a budget-tripped run
    shows the over-budget message as metered but never transmitted.
    The payload travels as real bytes and the **delivered** copy is
    returned (merges consume the return value, so the wire is on the
    data path).  One charged message maps to exactly one transport
    frame, which is what makes the ``TransportReport`` frame counts
    equal the ``CommReport`` message counts structurally.
    """
    link = comm.record(src, dst, words)
    if tracer.enabled:
        tracer.event(MESSAGE_SENT, link=link, words=words)
    return transport.send(src, dst, kind, payload)


@dataclass(frozen=True)
class CoordinatorOptions:
    """Strategy-specific merge options, validated per coordinator.

    The one way to pass a threshold to :func:`make_coordinator`: every
    option names the CLI flag it rides in on, and validation rejects
    options the chosen strategy cannot honour with an error that names
    that flag — so
    ``--threshold``/``--adaptive-threshold`` on a star coordinator
    fails identically whether it arrives via the CLI, the executor, or
    a direct call.
    """

    #: Fixed greedy take-threshold override (``--threshold``); only the
    #: protocol coordinators (chain, tree) accept it.
    threshold: Optional[float] = None
    #: Re-estimate τ from the forwarded state at every merge step
    #: (``--adaptive-threshold``); mutually exclusive with
    #: :attr:`threshold`.
    adaptive_threshold: bool = False


class Coordinator:
    """Interface: merge shard outputs into one cover, metering comm.

    ``allow_partial`` is the quorum-degraded mode: ``outputs`` may be a
    *subset* of the planned shards (survivors only, in shard-index
    order) and the merge must return a valid-but-partial cover with
    :attr:`MergeOutcome.uncovered` listing what was lost — instead of
    raising on an uncoverable universe.

    ``transport`` carries every charged message as real bytes
    (:mod:`repro.distributed.transport`); the merge consumes the
    *delivered* payloads, so a transport that corrupted a message would
    corrupt the merge — parity across transports is therefore a real
    end-to-end property, not a bookkeeping identity.  ``tracer``
    receives one ``MESSAGE_SENT`` event per charged message.
    """

    name = "abstract"
    #: Whether this strategy honours the ``--threshold`` /
    #: ``--adaptive-threshold`` options (the greedy take-threshold only
    #: exists in the protocol merges).
    accepts_threshold = False

    def merge(
        self,
        instance: SetCoverInstance,
        outputs: Sequence[ShardOutput],
        comm: CommMeter,
        tracer,
        transport: Transport,
        allow_partial: bool = False,
    ) -> MergeOutcome:
        raise NotImplementedError


def _first_witnesses(
    n: int, elements: Sequence[np.ndarray], witnesses: Sequence[np.ndarray]
) -> Certificate:
    """The union of shard certificate columns, the first shard winning.

    Each element keeps the witness of its first occurrence across the
    concatenated columns and the pairs stay in first-occurrence order:
    the dict that ``setdefault`` over the shards in order would build.
    Elements are non-negative ids; ``n`` is the universe size.
    """
    if not elements:
        return Certificate([], [])
    flat = np.concatenate(elements)
    bound = max(n, int(flat.max()) + 1) if len(flat) else n
    distinct, first = first_occurrences(flat, bound)
    order = np.argsort(first, kind="stable")
    return Certificate(distinct[order], np.concatenate(witnesses)[first[order]])


class UnionCoordinator(Coordinator):
    """Union of shard covers; certificates merged deterministically."""

    name = "union"

    def merge(
        self,
        instance: SetCoverInstance,
        outputs: Sequence[ShardOutput],
        comm: CommMeter,
        tracer,
        transport: Transport,
        allow_partial: bool = False,
    ) -> MergeOutcome:
        cover: Set[SetId] = set()
        elements: List[np.ndarray] = []
        witnesses: List[np.ndarray] = []
        for out in outputs:
            delivered = _send(
                comm,
                tracer,
                f"shard[{out.index}]",
                "coordinator",
                words_for_cover_message(len(out.cover), len(out.certificate)),
                transport,
                "cover",
                cover_upload_wire(out.index, out.cover, out.certificate),
            )
            _, shard_cover, shard_certificate = read_cover_upload(delivered)
            cover.update(shard_cover)
            shard_elements, shard_witnesses = shard_certificate.columns()
            elements.append(shard_elements)
            witnesses.append(shard_witnesses)
        certificate = _first_witnesses(instance.n, elements, witnesses)
        covered = np.zeros(instance.n, dtype=bool)
        certified = certificate.columns()[0]
        covered[certified[certified < instance.n]] = True
        uncovered = tuple(np.flatnonzero(~covered).tolist())
        if uncovered and not allow_partial:
            raise InvalidCoverError(
                f"union merge leaves {len(uncovered)} element(s) uncovered; "
                "shard covers do not jointly cover the universe"
            )
        return MergeOutcome(
            cover=tuple(sorted(cover)),
            certificate=certificate,
            diagnostics={"shards_contributing": float(len(outputs))},
            uncovered=uncovered,
        )


class GreedyCoordinator(Coordinator):
    """Offline greedy over the shards' candidate sets.

    Each shard uploads every set in its cover together with the
    membership it observed (1 word for the id plus 1 per member); the
    coordinator pools candidates — unioning partial views of the same
    set — and reruns offline greedy
    (:func:`~repro.core.solution.greedy_picks`) over them.
    """

    name = "greedy"

    def merge(
        self,
        instance: SetCoverInstance,
        outputs: Sequence[ShardOutput],
        comm: CommMeter,
        tracer,
        transport: Transport,
        allow_partial: bool = False,
    ) -> MergeOutcome:
        candidates: Dict[SetId, Set[ElementId]] = {}
        for out in outputs:
            views = out.rows.as_mapping(out.cover)
            delivered = _send(
                comm,
                tracer,
                f"shard[{out.index}]",
                "coordinator",
                words_for_candidate_message([len(views[sid]) for sid in out.cover]),
                transport,
                "candidates",
                candidate_upload_wire(out.index, out.cover, views),
            )
            _, uploads = read_candidate_upload(delivered)
            for sid, members in uploads:
                candidates.setdefault(sid, set()).update(members)

        # Ascending ids, so a tied gain goes to the smallest set id.
        uncovered: Set[ElementId] = set(range(instance.n))
        cover: List[SetId] = []
        certificate: Dict[ElementId, SetId] = {}
        for sid, _, covered in greedy_picks(
            {sid: candidates[sid] for sid in sorted(candidates)}, uncovered
        ):
            for u in covered:
                certificate[u] = sid
            uncovered.difference_update(covered)
            cover.append(sid)
        if uncovered and not allow_partial:
            raise InvalidCoverError(
                f"greedy merge stalled with {len(uncovered)} element(s) "
                "uncovered; shard covers do not jointly cover the universe"
            )
        return MergeOutcome(
            cover=tuple(cover),
            certificate=certificate,
            diagnostics={
                "candidate_sets": float(len(candidates)),
                "greedy_rounds": float(len(cover)),
            },
            uncovered=tuple(sorted(uncovered)),
        )


class _ProtocolCoordinator(Coordinator):
    """The one merge body of the protocol coordinators (chain, tree).

    Parties are the shards in index order; party ``i``'s sets are the
    shard's ``set_order`` enumeration with the membership it observed.
    The subclass names the protocol engine, which returns the hand-off
    edges between parties.  Each hand-off is charged to the link between
    the *actual* shard indices of its two parties (e.g.
    ``shard[0]->shard[2]`` when shard 1 was lost to a quorum-degraded
    merge) at the forwarded state's exact word count, so
    ``max_message_words`` is the protocol's longest message — the
    quantity Theorem 2's lower bound governs.  The state then crosses
    the transport, and the delivered payload's word count must equal
    the charge.
    """

    accepts_threshold = True
    #: The protocol engine (:func:`~repro.distributed.chain.chain_merge`
    #: or :func:`~repro.distributed.chain.tournament_merge`).
    engine: Callable[..., ProtocolOutcome]
    #: Whether the diagnostics carry the round structure
    #: (``merge_rounds``, ``round_max_words_{r}``).
    reports_rounds = False

    def __init__(
        self,
        threshold: Optional[float] = None,
        adaptive: bool = False,
    ) -> None:
        self.threshold = threshold
        self.adaptive = adaptive

    #: ``(hop, round, src shard, dst shard, state) -> payload``: the wire
    #: form of one hand-off.
    wire: Callable[[int, int, int, int, StateSnapshot], Dict[str, object]]

    def merge(
        self,
        instance: SetCoverInstance,
        outputs: Sequence[ShardOutput],
        comm: CommMeter,
        tracer,
        transport: Transport,
        allow_partial: bool = False,
    ) -> MergeOutcome:
        outcome = self.engine(
            instance.n,
            [out.rows for out in outputs],
            threshold=self.threshold,
            partial=allow_partial,
            capture_states=True,
            adaptive=self.adaptive,
        )
        for hop, (round_index, src, dst) in enumerate(outcome.edges):
            words = outcome.message_words[hop]
            src_index, dst_index = outputs[src].index, outputs[dst].index
            payload = self.wire(
                hop,
                round_index,
                src_index,
                dst_index,
                outcome.forwarded_states[hop],
            )
            kind = str(payload["kind"])
            delivered = _send(
                comm,
                tracer,
                f"shard[{src_index}]",
                f"shard[{dst_index}]",
                words,
                transport,
                kind,
                payload,
            )
            if handoff_words(delivered) != words:
                raise TransportError(
                    f"{kind} {hop} (round {round_index}) "
                    f"delivered {handoff_words(delivered)} word(s) of "
                    f"state but {words} were charged; the wire dropped "
                    "or altered protocol state"
                )
        diagnostics = {
            "threshold": outcome.threshold,
            "protocol_messages": float(len(outcome.message_words)),
            "max_message_words": float(outcome.max_message_words),
            "adaptive_threshold": 1.0 if self.adaptive else 0.0,
        }
        if self.reports_rounds:
            diagnostics["merge_rounds"] = float(outcome.rounds)
            for r, words in enumerate(outcome.round_max_words):
                diagnostics[f"round_max_words_{r}"] = float(words)
        return MergeOutcome(
            cover=tuple(outcome.cover),
            certificate=outcome.certificate,
            diagnostics=diagnostics,
            uncovered=outcome.uncovered,
        )


class ChainCoordinator(_ProtocolCoordinator):
    """The deterministic 2√(nW) chain protocol over shard views.

    Hand-off ``i`` relays the state from the ``i``-th to the
    ``(i+1)``-th surviving shard (``shard[0]->shard[1]``, … in a full
    merge) as a framed ``handoff`` payload.
    """

    name = "chain"
    engine = staticmethod(chain_merge)
    # Kept in the class namespace so the merge can be wrapped per class.
    merge = _ProtocolCoordinator.merge

    @staticmethod
    def wire(hop, round_index, src, dst, state):
        return handoff_wire(hop, *state)


class TournamentCoordinator(_ProtocolCoordinator):
    """The chain protocol folded into a ``⌈log₂ W⌉``-round tournament.

    The merge runs :func:`~repro.distributed.chain.tournament_merge`,
    so round 0 of a full merge pairs ``shard[0]->shard[1]``,
    ``shard[2]->shard[3]``, … and each edge ships a framed
    ``tree-handoff`` payload.  Same W−1 total messages as the chain;
    what changes is the dependency structure — same-round edges are
    independent, which the async scheduler exploits to deliver them on
    one logical tick.  The known cost is message size: a leaf ships
    witnesses for every element it holds, so per-round maxima land in
    the diagnostics (``round_max_words_{r}``) next to the headline
    ``max_message_words``.
    """

    name = "tree"
    engine = staticmethod(tournament_merge)
    reports_rounds = True
    merge = _ProtocolCoordinator.merge

    @staticmethod
    def wire(hop, round_index, src, dst, state):
        return tree_handoff_wire(round_index, src, dst, *state)


#: Public name -> coordinator class.
COORDINATOR_REGISTRY: Dict[str, Type[Coordinator]] = {
    "union": UnionCoordinator,
    "greedy": GreedyCoordinator,
    "chain": ChainCoordinator,
    "tree": TournamentCoordinator,
}


def registered_coordinators() -> List[str]:
    """Registry names in deterministic (sorted) order."""
    return sorted(COORDINATOR_REGISTRY)


def make_coordinator(
    name: str,
    options: Optional[CoordinatorOptions] = None,
) -> Coordinator:
    """Construct a registered coordinator by name.

    ``options`` carries the strategy-specific knobs
    (:class:`CoordinatorOptions`); options the named strategy cannot
    honour raise :class:`~repro.errors.ConfigurationError` naming the
    offending flag.
    """
    try:
        cls = COORDINATOR_REGISTRY[name]
    except KeyError:
        known = ", ".join(registered_coordinators())
        raise InvalidParameterError(
            "coordinator", name, f"known coordinators: {known}"
        ) from None
    opts = options if options is not None else CoordinatorOptions()
    if not cls.accepts_threshold:
        if opts.threshold is not None:
            raise ConfigurationError(
                f"coordinator {name!r} does not accept --threshold; only "
                "the protocol merges (chain, tree) have a take-threshold"
            )
        if opts.adaptive_threshold:
            raise ConfigurationError(
                f"coordinator {name!r} does not accept "
                "--adaptive-threshold; only the protocol merges "
                "(chain, tree) have a take-threshold"
            )
        return cls()
    if opts.threshold is not None and opts.adaptive_threshold:
        raise ConfigurationError(
            "--threshold and --adaptive-threshold are mutually exclusive"
        )
    return cls(
        threshold=opts.threshold, adaptive=opts.adaptive_threshold
    )
