"""Deterministic asynchronous delivery simulation for coordinators.

The synchronous executor pretends every shard finishes at once and every
message arrives instantly.  Real clusters do neither: shards straggle,
links lag, and a star coordinator sees uploads in whatever order the
network happens to deliver them.  This module drives the *same* shard
tasks and the *same* coordinators through an adversarial transport —

* :class:`AsyncScheduler` — a pending-message pool on a **logical
  clock**: every posted :class:`Message` becomes available after its
  per-link delay, the :class:`DeliveryPolicy` picks which available
  message lands next, and each delivery advances the clock one step.
  :class:`RandomDelivery` draws the choice from a seeded RNG (so one
  integer reproduces an entire adversarial schedule);
  :class:`FixedDelivery` pins an explicit priority order, letting tests
  enumerate *every* delivery permutation of a small run.
* :func:`run_distributed_async` — the asynchronous twin of
  :func:`~repro.distributed.executor.run_distributed`, running the same
  executor body (identical routing, seed discipline, retry/deadline
  recovery and merge).  After the merge it replays the merge's
  messages through the scheduler: star coordinators
  (``union``/``greedy``) receive every surviving shard's upload in
  their **inbox** — deduplicated by shard index, the drained inbox is
  exactly the survivors the merge consumed, so duplicate and reordered
  deliveries cannot change it — while the ``chain`` coordinator's
  hand-offs are relayed sequentially (hand-off ``i+1`` is posted only
  after hand-off ``i`` lands), which is what makes its completion time
  grow linearly in ``W`` where the star topologies stay flat.

Parity is structural, not coincidental: the merge is the synchronous
path's own merge call, over the same outputs charging the same
:class:`~repro.distributed.comm.CommMeter`, so for any fault-free
delivery schedule the cover, certificate, and comm report are
byte-identical to :func:`run_distributed`'s.  The schedule only shows
up in the *diagnostics* — ``logical_steps``, ``delivered_messages``,
``idle_ticks``, ``duplicates_dropped`` — and in the trace's ``async``
cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.distributed.backends import ShardOutcome
from repro.distributed.chain import tournament_rounds
from repro.distributed.comm import (
    CommMeter,
    CommReport,
    check_link_delays,
    link_label,
)
from repro.distributed.executor import (
    DistributedConfig,
    DistributedResult,
    _run_sharded,
    check_seed,
)
from repro.distributed.worker import ShardOutput
from repro.errors import InvalidParameterError, ProtocolError
from repro.faults.shards import ShardFaultPlan
from repro.obs.events import MESSAGE_DELIVERED, SPAN_ASYNC
from repro.obs.tracer import NULL_TRACER
from repro.streaming.instance import SetCoverInstance
from repro.types import SeedLike, make_rng


@dataclass(frozen=True)
class Message:
    """One in-flight message of an asynchronous run.

    ``seq`` is the posting order (unique per scheduler); the transport
    may deliver in any order consistent with availability, which is the
    whole point.  ``payload`` is opaque to the scheduler — uploads carry
    the posting shard's index so receivers can deduplicate.
    """

    seq: int
    src: str
    dst: str
    kind: str
    words: int
    payload: object
    posted_step: int
    available_step: int

    @property
    def link(self) -> str:
        """The ``src->dst`` label this message travels on."""
        return link_label(self.src, self.dst)


class DeliveryPolicy:
    """Strategy choosing which available message is delivered next."""

    name = "abstract"

    def choose(self, deliverable: Sequence[Message]) -> int:
        """Index into ``deliverable`` of the message to deliver."""
        raise NotImplementedError


class FifoDelivery(DeliveryPolicy):
    """Deliver in posting order — the synchronous-looking baseline."""

    name = "fifo"

    def choose(self, deliverable: Sequence[Message]) -> int:
        return min(range(len(deliverable)), key=lambda i: deliverable[i].seq)


class RandomDelivery(DeliveryPolicy):
    """Seeded uniformly random choice among the available messages.

    One integer seed reproduces the entire adversarial schedule — the
    chaos harness discipline applied to the transport.
    """

    name = "random"

    def __init__(self, seed: SeedLike = 0) -> None:
        self.seed = seed
        self._rng = make_rng(seed)

    def choose(self, deliverable: Sequence[Message]) -> int:
        return self._rng.randrange(len(deliverable))


class FixedDelivery(DeliveryPolicy):
    """Deliver by an explicit priority over posting sequence numbers.

    ``priority[seq]`` ranks message ``seq``; lower ranks deliver first
    and unranked messages fall back to their ``seq``.  Feeding every
    permutation of ``range(k)`` enumerates every delivery order of a
    ``k``-message run — the exhaustive-parity test harness.
    """

    name = "fixed"

    def __init__(self, priority: Sequence[int]) -> None:
        self._rank: Dict[int, int] = {
            seq: rank for rank, seq in enumerate(priority)
        }

    def choose(self, deliverable: Sequence[Message]) -> int:
        return min(
            range(len(deliverable)),
            key=lambda i: (
                self._rank.get(deliverable[i].seq, len(self._rank)),
                deliverable[i].seq,
            ),
        )


class AsyncScheduler:
    """Pending-message pool with a logical clock and per-player inboxes.

    The clock starts at 0 and advances one step per delivery; when no
    pending message is available yet the clock *idles* forward to the
    earliest availability (counted in ``idle_ticks``).  Per-link delays
    come from ``link_delays`` (keyed by ``src->dst`` label), falling
    back to ``default_delay``; :meth:`post` can pin an absolute
    availability instead for senders that finish late (stragglers).
    """

    def __init__(
        self,
        policy: Optional[DeliveryPolicy] = None,
        link_delays: Optional[Mapping[str, int]] = None,
        default_delay: int = 1,
        tracer=None,
    ) -> None:
        self.policy = policy if policy is not None else FifoDelivery()
        self.link_delays = check_link_delays(link_delays, default_delay)
        self.default_delay = default_delay
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.clock = 0
        self.delivered = 0
        self.idle_ticks = 0
        self._seq = 0
        self._pending: List[Message] = []
        self._inboxes: Dict[str, List[Message]] = {}

    def link_delay(self, src: str, dst: str) -> int:
        """The configured delay of the ``src->dst`` link."""
        return self.link_delays.get(link_label(src, dst), self.default_delay)

    def post(
        self,
        src: str,
        dst: str,
        kind: str,
        words: int = 0,
        payload: object = None,
        available_step: Optional[int] = None,
    ) -> Message:
        """Add a message to the pending pool.

        Without ``available_step`` the message becomes available after
        its link delay from *now*; an explicit ``available_step`` models
        a sender that only finishes at a known logical step.
        """
        available = (
            available_step
            if available_step is not None
            else self.clock + self.link_delay(src, dst)
        )
        message = Message(
            seq=self._seq,
            src=src,
            dst=dst,
            kind=kind,
            words=words,
            payload=payload,
            posted_step=self.clock,
            available_step=max(available, self.clock),
        )
        self._seq += 1
        self._pending.append(message)
        return message

    def pending(self) -> int:
        """Number of messages still in flight."""
        return len(self._pending)

    def inbox(self, player: str) -> List[Message]:
        """Messages delivered to ``player``, in delivery order."""
        return list(self._inboxes.get(player, ()))

    def _deliverable(self) -> List[Message]:
        """The pending messages available now, idling the clock to the
        earliest availability (counted in ``idle_ticks``) if none is."""
        deliverable = [
            m for m in self._pending if m.available_step <= self.clock
        ]
        if deliverable:
            return deliverable
        horizon = min(m.available_step for m in self._pending)
        self.idle_ticks += horizon - self.clock
        self.clock = horizon
        return [m for m in self._pending if m.available_step <= self.clock]

    def _deliver_one(self, deliverable: List[Message], step: int) -> Message:
        """Pop the policy's pick off ``deliverable`` and deliver it to
        its receiver's inbox, traced at logical step ``step``."""
        choice = self.policy.choose(deliverable)
        if not 0 <= choice < len(deliverable):
            raise ProtocolError(
                f"delivery policy {self.policy.name!r} chose index {choice} "
                f"out of {len(deliverable)} deliverable message(s)"
            )
        message = deliverable.pop(choice)
        self._pending.remove(message)
        self.delivered += 1
        self._inboxes.setdefault(message.dst, []).append(message)
        if self.tracer.enabled:
            self.tracer.event(
                MESSAGE_DELIVERED,
                link=message.link,
                kind=message.kind,
                words=message.words,
                seq=message.seq,
                step=step,
            )
        return message

    def deliver_next(self) -> Optional[Message]:
        """Deliver one message chosen by the policy; ``None`` when idle.

        Advances the clock: first idling to the earliest availability if
        nothing is deliverable yet, then one step for the delivery
        itself — so a run's final clock reading is its completion time
        in logical steps.
        """
        if not self._pending:
            return None
        message = self._deliver_one(self._deliverable(), self.clock + 1)
        self.clock += 1
        return message

    def deliver_available(self) -> List[Message]:
        """Deliver every currently-available message in ONE logical step.

        The batch twin of :meth:`deliver_next`, modelling parallel
        links: the clock charges *latency*, not bandwidth, so
        independent messages whose availability has arrived all land
        together on a single tick (idling to the earliest availability
        first when none has).  The policy still orders the batch, so
        per-inbox delivery order stays deterministic under seeded
        delivery.  This is what lets a tournament merge's same-round
        hand-offs cost one step instead of one step each — the whole
        point of the tree topology.  Returns the delivered batch,
        empty when nothing is pending.
        """
        if not self._pending:
            return []
        deliverable = self._deliverable()
        self.clock += 1
        batch: List[Message] = []
        while deliverable:
            batch.append(self._deliver_one(deliverable, self.clock))
        return batch

    def drain(self) -> List[Message]:
        """Deliver every pending message; returns them in delivery order."""
        out: List[Message] = []
        while True:
            message = self.deliver_next()
            if message is None:
                return out
            out.append(message)


class _ScheduleReplay:
    """The asynchronous half of a run: the merge's messages on a schedule.

    The shared executor body calls this once, after the merge, with the
    surviving shard outputs keyed by shard index, every shard's
    recovery outcome (its completion step is when the shard's first
    message may leave), and the merge's comm meter (whose per-link
    words size the replayed messages).  Recovery events land on
    :attr:`tracer` too, so the ``async`` cell reads as one timeline.
    """

    def __init__(
        self,
        scheduler: AsyncScheduler,
        coordinator: str,
        workers: int,
        shard_faults: Optional[ShardFaultPlan],
        schedule_seed: int,
    ) -> None:
        self.scheduler = scheduler
        self.tracer = scheduler.tracer
        self.coordinator = coordinator
        self.workers = workers
        self.shard_faults = (
            shard_faults if shard_faults is not None else ShardFaultPlan()
        )
        self.schedule_seed = schedule_seed

    def __call__(
        self,
        outputs: Dict[int, ShardOutput],
        outcomes: Sequence[ShardOutcome],
        comm: CommMeter,
    ) -> Dict[str, float]:
        completion = {o.index: o.completion_step for o in outcomes}
        survivors = sorted(outputs)
        scheduler = self.scheduler
        with self.tracer.span(
            SPAN_ASYNC,
            coordinator=self.coordinator,
            policy=scheduler.policy.name,
            workers=self.workers,
        ):
            # Every replayed message carries the words the merge metered
            # on its link; each link carries one message per merge.
            report = comm.report()
            if self.coordinator == "chain":
                dropped = self._chain(survivors, completion, report)
            elif self.coordinator == "tree":
                dropped = self._tree(survivors, completion, report)
            else:
                dropped = self._star(survivors, completion, report)
        return {
            "logical_steps": float(scheduler.clock),
            "delivered_messages": float(scheduler.delivered),
            "idle_ticks": float(scheduler.idle_ticks),
            "duplicates_dropped": float(dropped),
            "schedule_seed": float(self.schedule_seed),
        }

    def _copies(self, index: int) -> int:
        return 2 if self.shard_faults.spec_for(index).duplicate else 1

    def _chain(
        self,
        survivors: List[int],
        completion: Dict[int, int],
        report: CommReport,
    ) -> int:
        # The chain is inherently sequential: hand-off i+1 can only be
        # posted once hand-off i has landed, and a hand-off leaves shard
        # a no earlier than the shard finished — the clock measures the
        # protocol's O(W) critical path.
        scheduler = self.scheduler
        seen_hops = set()
        dropped = 0
        for a, b in zip(survivors, survivors[1:]):
            src, dst = f"shard[{a}]", f"shard[{b}]"
            ready = max(
                scheduler.clock + scheduler.link_delay(src, dst),
                completion.get(a, 0),
            )
            for _ in range(self._copies(a)):
                scheduler.post(
                    src,
                    dst,
                    kind="handoff",
                    words=report.link_words(src, dst),
                    payload=a,
                    available_step=ready,
                )
            for message in scheduler.drain():
                hop = (message.src, message.dst)
                if hop in seen_hops:
                    dropped += 1
                seen_hops.add(hop)
        return dropped

    def _tree(
        self,
        survivors: List[int],
        completion: Dict[int, int],
        report: CommReport,
    ) -> int:
        # Tournament topology: hand-offs within a round are independent,
        # so each round is posted as a batch and delivered with
        # :meth:`AsyncScheduler.deliver_available` — the whole round
        # lands on one logical tick (plus its idle-to-availability),
        # which is exactly the Θ(log W) critical path the tree buys over
        # the chain's Θ(W).
        scheduler = self.scheduler
        ready: Dict[int, int] = {i: completion.get(i, 0) for i in survivors}
        seen_edges = set()
        dropped = 0
        for round_pairs in tournament_rounds(range(len(survivors))):
            expected = 0
            for src_pos, dst_pos in round_pairs:
                a = survivors[src_pos]
                b = survivors[dst_pos]
                src, dst = f"shard[{a}]", f"shard[{b}]"
                # A hand-off leaves its src no earlier than both
                # endpoints finished their previous round (the dst must
                # have its own state ready to merge into).
                avail = max(
                    scheduler.clock + scheduler.link_delay(src, dst),
                    ready[a],
                    ready[b],
                )
                copies = self._copies(a)
                expected += copies
                for _ in range(copies):
                    scheduler.post(
                        src,
                        dst,
                        kind="tree-handoff",
                        words=report.link_words(src, dst),
                        payload=a,
                        available_step=avail,
                    )
            delivered_round = 0
            while delivered_round < expected:
                batch = scheduler.deliver_available()
                delivered_round += len(batch)
                for message in batch:
                    edge = (message.src, message.dst)
                    if edge in seen_edges:
                        dropped += 1
                    seen_edges.add(edge)
            for src_pos, dst_pos in round_pairs:
                ready.pop(survivors[src_pos], None)
                ready[survivors[dst_pos]] = scheduler.clock
        return dropped

    def _star(
        self,
        survivors: List[int],
        completion: Dict[int, int],
        report: CommReport,
    ) -> int:
        # Star topology: every surviving shard posts its upload (a cover
        # message for union, a candidate message for greedy), available
        # once the shard finished plus the link delay.  Deduplicated by
        # shard index, the fully drained inbox is exactly the sorted
        # survivors the merge consumed, so duplicate and reordered
        # deliveries cannot change it.
        scheduler = self.scheduler
        for i in survivors:
            src = f"shard[{i}]"
            ready = completion.get(i, 0) + scheduler.link_delay(
                src, "coordinator"
            )
            for _ in range(self._copies(i)):
                scheduler.post(
                    src,
                    "coordinator",
                    kind="envelope",
                    words=report.link_words(src, "coordinator"),
                    payload=i,
                    available_step=ready,
                )
        scheduler.drain()
        received = [m.payload for m in scheduler.inbox("coordinator")]
        return len(received) - len(set(received))


def run_distributed_async(
    instance: SetCoverInstance,
    workers: int,
    *,
    schedule_seed: Optional[int] = 0,
    delivery: Optional[DeliveryPolicy] = None,
    link_delays: Optional[Mapping[str, int]] = None,
    default_delay: int = 1,
    **options: Any,
) -> DistributedResult:
    """Asynchronous twin of :func:`~repro.distributed.executor.run_distributed`.

    Same options (:class:`~repro.distributed.executor.DistributedConfig`
    fields, by keyword), same result type, same executor body, plus the
    delivery schedule: ``delivery`` (default
    :class:`RandomDelivery` seeded with ``schedule_seed``),
    ``link_delays`` / ``default_delay`` in logical steps.  Shards always
    run under the retry/deadline recovery layer.  The returned result's
    cover, certificate, and comm report are byte-identical to
    :func:`~repro.distributed.executor.run_distributed`'s for *any*
    fault-free schedule; the schedule surfaces in ``diagnostics``
    (``logical_steps``, ``delivered_messages``, ``idle_ticks``,
    ``duplicates_dropped``, ``schedule_seed``) and the ``async`` trace
    cell.  Topology sets the critical path: the chain relays hand-offs
    sequentially (Θ(W) logical steps), the ``tree`` coordinator's
    same-round hand-offs are delivered as one batch per round
    (Θ(log W) steps), and the star coordinators post everything at
    once.  ``seed`` and ``schedule_seed`` must be ints (``None`` means
    0), ``default_delay`` and every ``link_delays`` value non-bool ints
    ``>= 0``, and ``delivery`` a :class:`DeliveryPolicy` (or ``None``);
    anything else raises :class:`~repro.errors.InvalidParameterError`
    before any shard runs.
    """
    config = DistributedConfig(**options)
    schedule_seed = check_seed("schedule_seed", schedule_seed)
    if delivery is not None and not isinstance(delivery, DeliveryPolicy):
        raise InvalidParameterError(
            "delivery", delivery, "expected a DeliveryPolicy (or None)"
        )
    policy = (
        delivery if delivery is not None else RandomDelivery(schedule_seed)
    )
    scheduler = AsyncScheduler(
        policy=policy,
        link_delays=link_delays,
        default_delay=default_delay,
        tracer=(
            config.collector.tracer_for("async")
            if config.collector is not None
            else NULL_TRACER
        ),
    )
    replay = _ScheduleReplay(
        scheduler, config.coordinator, workers, config.shard_faults, schedule_seed
    )
    return _run_sharded(instance, workers, config, replay=replay)
