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

Routing runs on the ``int64`` edge columns of a
:class:`~repro.streaming.stream.FrozenEdges` buffer: every strategy
computes one worker index per edge (a lookup into the deal's assignment
array, or the vectorized hash), and one stable argsort by worker lays
the shards out as contiguous spans that keep the arrival order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.streaming.instance import SetCoverInstance
from repro.streaming.stream import EdgesLike, EdgeStream, FrozenEdges
from repro.types import SeedLike, first_occurrences, make_rng, shuffle

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


def _splitmix64_columns(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_splitmix64` over a ``uint64`` column.

    Bit-for-bit identical to the scalar mix: ``uint64`` arithmetic wraps
    modulo 2**64 exactly like the scalar's explicit masking.
    """
    values = values + np.uint64(0x9E3779B97F4A7C15)
    values = (values ^ (values >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    values = (values ^ (values >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return values ^ (values >> np.uint64(31))


def edge_hash_workers_columns(
    set_ids: np.ndarray, elements: np.ndarray, workers: int, seed: int
) -> np.ndarray:
    """Vectorized :func:`edge_hash_worker` over ``int64`` edge columns.

    Returns an ``int64`` worker index per edge, identical to calling the
    scalar function edge by edge (property-tested).
    """
    seed_word = np.uint64(seed & _MASK64)
    inner = _splitmix64_columns(
        seed_word ^ (set_ids.astype(np.uint64) << np.uint64(1))
    )
    outer = _splitmix64_columns(inner ^ elements.astype(np.uint64))
    return (outer % np.uint64(workers)).astype(np.int64)


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
    shuffle(rng, order)
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
        global arrival order, as a column-backed
        :class:`~repro.streaming.stream.FrozenEdges` span.  The shards
        are a disjoint, exhaustive partition of the routed edges.
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
    shard_edges: Tuple[FrozenEdges, ...]
    set_order: Tuple[Tuple[int, ...], ...]
    order_name: str = "canonical"

    @property
    def total_edges(self) -> int:
        """Number of edges across all shards."""
        return sum(len(edges) for edges in self.shard_edges)


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
        edges: EdgesLike,
        order_name: str = "canonical",
    ) -> ShardPlan:
        """Partition ``edges`` (an ordering of ``instance``) into shards.

        An edge outside the instance raises
        :class:`~repro.errors.InvalidStreamError`.
        """
        frozen = FrozenEdges(edges)
        frozen.check_ids(instance.n, instance.m)
        set_ids, elements = frozen.columns()
        workers = self.workers
        if self.strategy == "by-set":
            assignment, per_worker = deal_round_robin(
                instance.m, workers, seed=self.seed
            )
            set_order = tuple(tuple(items) for items in per_worker)
            shard_of = np.asarray(assignment, dtype=np.int64)[set_ids]
        elif self.strategy == "by-element":
            assignment, _ = deal_round_robin(instance.n, workers, seed=self.seed)
            shard_of = np.asarray(assignment, dtype=np.int64)[elements]
        else:  # hash
            shard_of = edge_hash_workers_columns(
                set_ids, elements, workers, self.seed
            )
        if workers > 1:
            # A stable sort by worker keeps arrival order inside each span;
            # on the narrowest unsigned type it is a radix sort.
            narrow = shard_of.astype(np.min_scalar_type(workers - 1))
            by_shard = np.argsort(narrow, kind="stable")
            set_ids = set_ids[by_shard]
            elements = elements[by_shard]
        bounds = np.zeros(workers + 1, dtype=np.int64)
        np.cumsum(np.bincount(shard_of, minlength=workers), out=bounds[1:])
        spans = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]
        if self.strategy != "by-set":
            set_order = tuple(
                _first_appearance_sets(set_ids[a:b], instance.m)
                for a, b in spans
            )
        return ShardPlan(
            strategy=self.strategy,
            workers=workers,
            seed=self.seed,
            shard_edges=tuple(
                FrozenEdges.from_columns(set_ids[a:b], elements[a:b])
                for a, b in spans
            ),
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


def _first_appearance_sets(set_ids: np.ndarray, m: int) -> Tuple[int, ...]:
    """The distinct set ids (in ``range(m)``) of one shard span, by first appearance."""
    distinct, first = first_occurrences(set_ids, m)
    return tuple(distinct[np.argsort(first)].tolist())
