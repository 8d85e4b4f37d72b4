"""A simulated shard worker: one registry algorithm over one shard.

A :class:`Worker` receives the shard of edges the router assigned to it,
rebuilds a *local* set-cover instance from what it actually saw (dense
local ids, so any registry algorithm runs unmodified), executes the
algorithm one-pass with its own :class:`~repro.streaming.space.SpaceMeter`
inside a ``shard`` tracer span, and maps the local cover back to global
ids.  The :class:`ShardOutput` it returns is everything a coordinator
may legitimately use: the global cover and certificate, the membership
view the shard observed, and a :class:`ShardReport` of shard-local
diagnostics.

Workers are deliberately pure: a worker's output is a function of
``(edges, set_order, algorithm, seed, alpha)`` alone, never of which
thread executed it — the executor relies on this for the determinism
contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms import make_algorithm
from repro.faults.injectors import InjectionReport
from repro.obs.events import SPAN_SHARD
from repro.obs.tracer import NULL_TRACER
from repro.streaming.instance import SetCoverInstance
from repro.streaming.space import SpaceReport
from repro.streaming.stream import EdgeStream
from repro.types import Edge, ElementId, SeedLike, SetId


@dataclass(frozen=True)
class InstanceShape:
    """The part of an instance a shard worker actually needs.

    A worker validates edges against the global ``(n, m)`` shape and
    labels its local instance with the global name — nothing else.
    Shipping this three-field shape instead of the full
    :class:`SetCoverInstance` keeps a pickled
    :class:`~repro.distributed.backends.ShardTask` small and
    self-contained.
    """

    n: int
    m: int
    name: str = ""

    @classmethod
    def of(cls, instance: "SetCoverInstance") -> "InstanceShape":
        return cls(n=instance.n, m=instance.m, name=instance.name or "")


@dataclass
class ShardReport:
    """Shard-local diagnostics carried into the distributed result."""

    index: int
    edges: int
    local_n: int
    local_m: int
    cover_size: int
    certificate_size: int
    space: SpaceReport
    dropped_invalid: int = 0
    injection: Optional[InjectionReport] = None


@dataclass
class ShardOutput:
    """Everything a shard uploads to (or exposes for) a coordinator.

    ``cover`` and ``certificate`` use *global* ids.  ``members_by_set``
    is the shard's membership view — for each set the shard is
    responsible for, the global elements it saw edges for (the full
    membership under by-set routing, a partial view otherwise).
    ``set_order`` is the deterministic enumeration order of the shard's
    sets (the chain merge's party order).
    """

    index: int
    cover: FrozenSet[SetId]
    certificate: Dict[ElementId, SetId]
    members_by_set: Dict[SetId, FrozenSet[ElementId]]
    set_order: Tuple[SetId, ...]
    report: ShardReport = field(
        default_factory=lambda: ShardReport(
            index=0,
            edges=0,
            local_n=0,
            local_m=0,
            cover_size=0,
            certificate_size=0,
            space=SpaceReport(peak_words=0, final_words=0),
        )
    )


_EMPTY_SPACE = SpaceReport(peak_words=0, final_words=0)


class ShardAccumulator:
    """Incremental shard ingest: the first half of a worker's pass.

    Accumulates a shard's edge stream — validation against the global
    shape, local set/element id discovery, membership build — through
    :meth:`feed` (edge tuples, :meth:`Worker.run`) or
    :meth:`feed_columns` (edge columns, the shared-memory span path of
    :func:`~repro.distributed.backends.execute_shard_task`).  Both entry
    points accumulate identical state for identical shard streams, and
    :meth:`Worker.run_accumulated` runs the algorithm pass over it.
    """

    def __init__(
        self,
        index: int,
        n: int,
        m: int,
        base_set_order: Sequence[SetId] = (),
    ) -> None:
        self.index = index
        self.n = n
        self.m = m
        self.clean: List[Edge] = []
        self.dropped = 0
        self.set_ids: List[SetId] = list(base_set_order)
        self._listed = set(self.set_ids)
        self.members_by_set: Dict[SetId, set] = {s: set() for s in self.set_ids}
        self._elements: set = set()
        self.edges_fed = 0

    def feed(self, edges: Sequence[Edge]) -> None:
        """Ingest one chunk of the shard's stream, in arrival order."""
        self.edges_fed += len(edges)
        n, m = self.n, self.m
        for edge in edges:
            s, u = edge[0], edge[1]
            if 0 <= s < m and 0 <= u < n:
                self.clean.append(edge)
                if s not in self._listed:
                    self._listed.add(s)
                    self.set_ids.append(s)
                    self.members_by_set[s] = set()
                self.members_by_set[s].add(u)
                self._elements.add(u)
            else:
                self.dropped += 1

    def feed_columns(self, set_ids: np.ndarray, elements: np.ndarray) -> None:
        """Ingest one chunk given as ``int64`` edge columns, in order.

        The column twin of :meth:`feed`, used by the shared-memory
        path: bounds validation and the dropped
        count are computed vectorized, then the surviving edges update
        the same per-edge structures :meth:`feed` maintains, in the
        same order — so both entry points accumulate identical state
        for identical shard streams (asserted by
        ``tests/test_distributed_shmem.py``).
        """
        k = len(set_ids)
        self.edges_fed += k
        if not k:
            return
        valid = (
            (set_ids >= 0)
            & (set_ids < self.m)
            & (elements >= 0)
            & (elements < self.n)
        )
        kept = int(np.count_nonzero(valid))
        self.dropped += k - kept
        if not kept:
            return
        if kept != k:
            set_ids = set_ids[valid]
            elements = elements[valid]
        clean = self.clean
        listed = self._listed
        members_by_set = self.members_by_set
        observed = self._elements
        for s, u in zip(set_ids.tolist(), elements.tolist()):
            clean.append(Edge(s, u))
            if s not in listed:
                listed.add(s)
                self.set_ids.append(s)
                members_by_set[s] = set()
            members_by_set[s].add(u)
            observed.add(u)

    def elements_sorted(self) -> List[ElementId]:
        """The shard's observed global element ids, ascending."""
        return sorted(self._elements)

    def set_order(self) -> Tuple[SetId, ...]:
        """Base order plus first-appearance stragglers — the party order."""
        return tuple(self.set_ids)


class Worker:
    """Runs one registry algorithm over one shard's edges."""

    def __init__(
        self,
        index: int,
        algorithm: str = "kk",
        seed: SeedLike = 0,
        alpha: Optional[float] = None,
        tracer=None,
    ) -> None:
        self.index = index
        self.algorithm = algorithm
        self.seed = seed
        self.alpha = alpha
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def run(
        self,
        instance: SetCoverInstance,
        edges: Sequence[Edge],
        set_order: Sequence[SetId],
        injection: Optional[InjectionReport] = None,
    ) -> ShardOutput:
        """Execute the shard pass and return the global-id output.

        ``set_order`` is the router's deterministic enumeration of the
        sets this shard is responsible for; sets appearing in the edges
        but not listed (possible only under fault corruption) are
        appended in first-appearance order.  Edges referencing ids
        outside the global instance shape — corrupt-fault debris — are
        dropped and counted, never crash the worker.

        ``instance`` may be the full :class:`SetCoverInstance` or just
        its :class:`InstanceShape` — only ``n``, ``m`` and ``name`` are
        read, which is what lets a pickled shard task travel without
        the instance.
        """
        accumulator = ShardAccumulator(
            self.index, instance.n, instance.m, base_set_order=set_order
        )
        accumulator.feed(edges)
        return self.run_accumulated(
            accumulator, instance_name=instance.name or "", injection=injection
        )

    def run_accumulated(
        self,
        accumulator: ShardAccumulator,
        instance_name: str = "",
        injection: Optional[InjectionReport] = None,
    ) -> ShardOutput:
        """Execute the algorithm pass over an already-ingested shard.

        :meth:`run` feeds edge tuples and calls this; the shared-memory
        path feeds edge columns and calls it directly.  Both produce
        identical output for identical shard streams.
        """
        clean = accumulator.clean
        dropped = accumulator.dropped
        set_ids = accumulator.set_ids
        members_by_set = accumulator.members_by_set
        elements = accumulator.elements_sorted()

        frozen_members = {
            s: frozenset(members) for s, members in members_by_set.items()
        }
        base_report = ShardReport(
            index=self.index,
            edges=len(clean),
            local_n=len(elements),
            local_m=len(set_ids),
            cover_size=0,
            certificate_size=0,
            space=_EMPTY_SPACE,
            dropped_invalid=dropped,
            injection=injection,
        )
        if not clean:
            # Nothing arrived: no local instance can even be built.  The
            # shard contributes an empty cover, which every coordinator
            # handles (an empty party forwards chain state untouched).
            return ShardOutput(
                index=self.index,
                cover=frozenset(),
                certificate={},
                members_by_set=frozen_members,
                set_order=tuple(set_ids),
                report=base_report,
            )

        to_local_set = {g: i for i, g in enumerate(set_ids)}
        to_local_elem = {g: i for i, g in enumerate(elements)}
        local_instance = SetCoverInstance(
            len(elements),
            (
                sorted(to_local_elem[u] for u in members_by_set[g])
                for g in set_ids
            ),
            name=f"{instance_name or 'instance'}|shard[{self.index}]",
        )
        local_edges = [
            Edge(to_local_set[edge[0]], to_local_elem[edge[1]])
            for edge in clean
        ]

        algorithm = make_algorithm(
            self.algorithm,
            local_instance,
            seed=self.seed,
            alpha=self.alpha,
            tracer=self.tracer,
        )
        with self.tracer.span(
            SPAN_SHARD,
            worker=self.index,
            algorithm=self.algorithm,
            edges=len(local_edges),
            local_n=local_instance.n,
            local_m=local_instance.m,
        ):
            result = algorithm.run(
                EdgeStream(
                    local_instance,
                    local_edges,
                    order_name=f"shard[{self.index}]",
                )
            )

        cover = frozenset(set_ids[s] for s in result.cover)
        certificate = {
            elements[u]: set_ids[s] for u, s in result.certificate.items()
        }
        base_report.cover_size = len(cover)
        base_report.certificate_size = len(certificate)
        base_report.space = result.space
        return ShardOutput(
            index=self.index,
            cover=cover,
            certificate=certificate,
            members_by_set=frozen_members,
            set_order=tuple(set_ids),
            report=base_report,
        )
