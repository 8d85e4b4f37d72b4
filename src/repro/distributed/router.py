"""Partitioning an ordered edge stream across simulated workers.

A :class:`ShardRouter` splits one arrival-ordered edge sequence into
``W`` shard-local sequences, preserving the global arrival order inside
every shard.  Three strategies:

``by-set``
    Sets are dealt to workers round-robin over a seeded shuffle — the
    *reference* partition of the deterministic t-party protocol
    (:func:`repro.lowerbound.simple_protocol.split_instance_among_parties`
    delegates to the same deal), so every edge of a set lands on one
    worker and that worker knows the set's membership exactly.  This is
    the partition under which the chain merge reproduces the protocol
    bit-for-bit.
``by-element``
    Elements are dealt the same way; a set's edges scatter, so workers
    hold *partial* membership views (the merge-friendly-sketch regime of
    distributed coverage).
``hash``
    Each edge is routed independently by a seeded splitmix64-style hash
    of ``(set_id, element)`` — the maximally scattered baseline.

Routing is a pure function of ``(edges, strategy, workers, seed)``:
no global RNG, no dependence on thread counts, so the distributed
determinism contract starts here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.streaming.instance import SetCoverInstance
from repro.streaming.stream import EdgeStream
from repro.types import Edge, SeedLike, make_rng

#: Every routing strategy :class:`ShardRouter` understands.
STRATEGIES: Tuple[str, ...] = ("by-set", "by-element", "hash")

_MASK64 = (1 << 64) - 1


def _splitmix64(value: int) -> int:
    """The splitmix64 finalizer: a high-quality 64-bit integer mix."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def edge_hash_worker(set_id: int, element: int, workers: int, seed: int) -> int:
    """Deterministic worker index for one edge under the hash strategy.

    Python's builtin ``hash`` is salted per process; this mix is not, so
    the partition is reproducible across runs and machines.
    """
    return _splitmix64(_splitmix64(seed ^ (set_id << 1)) ^ element) % workers


def deal_round_robin(
    num_items: int, workers: int, seed: SeedLike = None
) -> Tuple[List[int], List[List[int]]]:
    """Deal ``range(num_items)`` to ``workers`` round-robin (seeded shuffle).

    Returns ``(assignment, per_worker)``: ``assignment[item]`` is the
    worker owning ``item``, and ``per_worker[w]`` lists worker ``w``'s
    items *in deal order* — the order the t-party protocol enumerates a
    party's sets, which the chain merge must reproduce.  Workers beyond
    ``num_items`` simply receive empty shares; they are legal (an empty
    party forwards protocol state untouched).
    """
    if workers < 1:
        raise ConfigurationError(f"need at least 1 worker, got {workers}")
    if num_items < 0:
        raise ConfigurationError(f"num_items must be >= 0, got {num_items}")
    rng = make_rng(seed)
    order = list(range(num_items))
    rng.shuffle(order)
    assignment = [0] * num_items
    per_worker: List[List[int]] = [[] for _ in range(workers)]
    for position, item in enumerate(order):
        worker = position % workers
        assignment[item] = worker
        per_worker[worker].append(item)
    return assignment, per_worker


@dataclass(frozen=True)
class ShardPlan:
    """The output of routing: per-shard edge sequences plus metadata.

    Attributes
    ----------
    strategy, workers, seed:
        The routing configuration that produced the plan.
    shard_edges:
        ``shard_edges[w]`` is worker ``w``'s edge sequence, preserving
        global arrival order.  The shards are a disjoint, exhaustive
        partition of the routed edges.
    set_order:
        ``set_order[w]`` lists the set ids worker ``w`` is responsible
        for, in the order the chain merge enumerates them: the deal
        order for ``by-set`` (including dealt sets that have no edges),
        first-appearance order in the shard stream otherwise.
    order_name:
        Label of the arrival order the routed edges came from.
    """

    strategy: str
    workers: int
    seed: int
    shard_edges: Tuple[Tuple[Edge, ...], ...]
    set_order: Tuple[Tuple[int, ...], ...]
    order_name: str = "canonical"

    @property
    def total_edges(self) -> int:
        """Number of edges across all shards."""
        return sum(len(edges) for edges in self.shard_edges)

    def shard_sizes(self) -> Tuple[int, ...]:
        """Edge count per shard, by worker index."""
        return tuple(len(edges) for edges in self.shard_edges)


class ShardRouter:
    """Routes an ordered edge sequence to ``workers`` simulated shards."""

    def __init__(
        self, strategy: str = "by-set", workers: int = 2, seed: int = 0
    ) -> None:
        if strategy not in STRATEGIES:
            known = ", ".join(STRATEGIES)
            raise ConfigurationError(
                f"unknown shard strategy {strategy!r}; known strategies: {known}"
            )
        if workers < 1:
            raise ConfigurationError(f"need at least 1 worker, got {workers}")
        self.strategy = strategy
        self.workers = workers
        self.seed = seed

    def route_edges(
        self,
        instance: SetCoverInstance,
        edges: Sequence[Edge],
        order_name: str = "canonical",
    ) -> ShardPlan:
        """Partition ``edges`` (an ordering of ``instance``) into shards."""
        workers = self.workers
        buckets: List[List[Edge]] = [[] for _ in range(workers)]
        if self.strategy == "by-set":
            assignment, per_worker = deal_round_robin(
                instance.m, workers, seed=self.seed
            )
            for edge in edges:
                buckets[assignment[edge[0]]].append(edge)
            set_order = tuple(tuple(items) for items in per_worker)
        elif self.strategy == "by-element":
            assignment, _ = deal_round_robin(instance.n, workers, seed=self.seed)
            for edge in edges:
                buckets[assignment[edge[1]]].append(edge)
            set_order = _first_appearance_sets(buckets)
        else:  # hash
            seed = self.seed
            for edge in edges:
                buckets[edge_hash_worker(edge[0], edge[1], workers, seed)].append(
                    edge
                )
            set_order = _first_appearance_sets(buckets)
        return ShardPlan(
            strategy=self.strategy,
            workers=workers,
            seed=self.seed,
            shard_edges=tuple(tuple(bucket) for bucket in buckets),
            set_order=set_order,
            order_name=order_name,
        )

    def route_stream(self, stream: EdgeStream) -> ShardPlan:
        """Partition an *unconsumed* one-pass stream into shards.

        The source stream is marked consumed (its one and only pass is
        spent on the routing read), mirroring the fault injector's
        discipline — the shard streams are the only live views.
        """
        edges = stream.peek_all()
        stream.reader()  # spend the stream's single pass on the routing read
        return self.route_edges(
            stream.instance, edges, order_name=stream.order_name
        )

    def __repr__(self) -> str:
        return (
            f"ShardRouter(strategy={self.strategy!r}, workers={self.workers}, "
            f"seed={self.seed})"
        )


def _first_appearance_sets(
    buckets: Sequence[Sequence[Edge]],
) -> Tuple[Tuple[int, ...], ...]:
    """Per-shard set ids in order of first appearance in the shard stream."""
    orders: List[Tuple[int, ...]] = []
    for bucket in buckets:
        seen = {}
        for edge in bucket:
            if edge[0] not in seen:
                seen[edge[0]] = None  # dict preserves insertion order
        orders.append(tuple(seen))
    return tuple(orders)
