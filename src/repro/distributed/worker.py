"""A simulated shard worker: one registry algorithm over one shard.

A :class:`Worker` receives the shard of edges the router assigned to it,
relabels what it actually saw to dense *local* ids — over an
:class:`InstanceShape` of the local ``(n, m)``, so any registry
algorithm runs unmodified — executes the algorithm one-pass with its
own :class:`~repro.streaming.space.SpaceMeter` inside a ``shard``
tracer span, and maps the local cover back to global
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
from typing import FrozenSet, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms import make_algorithm
from repro.core.solution import Certificate, witness_columns
from repro.distributed.chain import SetRows
from repro.faults.injectors import InjectionReport
from repro.obs.events import SPAN_SHARD
from repro.obs.tracer import NULL_TRACER
from repro.streaming.instance import SetCoverInstance
from repro.streaming.space import SpaceReport
from repro.streaming.stream import EdgesLike, EdgeStream, FrozenEdges
from repro.types import ElementId, SeedLike, SetId


@dataclass(frozen=True)
class InstanceShape:
    """The part of an instance a shard worker actually needs.

    A worker validates edges against the global ``(n, m)`` shape and
    labels its local instance with the global name — nothing else.
    Shipping this three-field shape instead of the full
    :class:`SetCoverInstance` keeps a pickled
    :class:`~repro.distributed.backends.ShardTask` small and
    self-contained.  The shard's *local* instance is an
    ``InstanceShape`` too: the algorithms read only ``n`` and ``m``.
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

    ``cover`` and ``certificate`` use *global* ids; the certificate is
    the algorithm's, relabelled by two gathers (a
    :class:`~repro.core.solution.Certificate`).  ``rows`` is the
    shard's membership view in CSR form: one row per set the shard is
    responsible for, in the deterministic enumeration order of the
    shard's sets (the chain merge's party order), holding the global
    elements it saw edges for (the full membership under by-set
    routing, a partial view otherwise), ascending.
    """

    index: int
    cover: FrozenSet[SetId]
    certificate: Mapping[ElementId, SetId]
    rows: SetRows
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

    @property
    def set_order(self) -> Tuple[SetId, ...]:
        """The shard's sets in party order (one per row)."""
        return self.rows.keys


_EMPTY_SPACE = SpaceReport(peak_words=0, final_words=0)
_EMPTY_COLUMN = np.empty(0, dtype=np.int64)
_EMPTY_CERTIFICATE = Certificate(_EMPTY_COLUMN, _EMPTY_COLUMN)


@dataclass(frozen=True)
class LocalShard:
    """A shard's clean stream in dense local ids, plus the id maps.

    ``set_ids[i]`` is the global id of local set ``i`` (the party
    order: the base order, then first-appearance stragglers) and
    ``elements[j]`` the global id of local element ``j`` (ascending).
    ``local_sets`` / ``local_elements`` are the clean edges in arrival
    order, relabelled; ``rows`` holds, for every global set id in party
    order, the global elements the shard saw for it.
    """

    set_ids: np.ndarray
    elements: np.ndarray
    local_sets: np.ndarray
    local_elements: np.ndarray
    rows: SetRows


class ShardAccumulator:
    """Shard ingest: the first half of a worker's pass.

    :meth:`feed_columns` takes the shard's stream as ``int64`` edge
    columns, in arrival order and in any number of chunks; it validates
    them against the global shape, counts and drops out-of-range edges
    (corrupt-fault debris) and keeps the rest.  :meth:`feed` is the
    adapter for edge sequences.  :meth:`localize` relabels the clean
    stream to dense local ids for :meth:`Worker.run_accumulated`.
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
        self.base_set_order = tuple(base_set_order)
        self.dropped = 0
        self.edges_fed = 0
        self._chunks: List[Tuple[np.ndarray, np.ndarray]] = []
        self._local: Optional[LocalShard] = None

    def feed(self, edges: EdgesLike) -> None:
        """Ingest a chunk of edge tuples: an adapter onto :meth:`feed_columns`."""
        self.feed_columns(*FrozenEdges(edges).columns())

    def feed_columns(self, set_ids: np.ndarray, elements: np.ndarray) -> None:
        """Ingest one chunk given as ``int64`` edge columns, in order.

        The accumulator keeps its own copy of the clean edges, so the
        caller may reuse the columns at once.
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
            set_ids, elements = set_ids[valid], elements[valid]
        self._chunks.append(
            (np.array(set_ids, dtype=np.int64), np.array(elements, dtype=np.int64))
        )
        self._local = None

    def _clean_columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """The kept edges as ``int64`` columns, in arrival order."""
        chunks = self._chunks
        if not chunks:
            return _EMPTY_COLUMN, _EMPTY_COLUMN
        if len(chunks) > 1:
            chunks[:] = [
                (
                    np.concatenate([c[0] for c in chunks]),
                    np.concatenate([c[1] for c in chunks]),
                )
            ]
        return chunks[0]

    @property
    def clean(self) -> FrozenEdges:
        """The kept edges in arrival order."""
        return FrozenEdges.from_columns(*self._clean_columns())

    def localize(self) -> LocalShard:
        """Relabel the clean stream to dense local ids (computed once)."""
        if self._local is None:
            self._local = _localize(
                *self._clean_columns(), self.base_set_order, self.n, self.m
            )
        return self._local

    @property
    def set_ids(self) -> List[SetId]:
        """Global set ids in party order (local set ``i`` is ``set_ids[i]``)."""
        return self.localize().set_ids.tolist()


def _localize(
    set_col: np.ndarray,
    elem_col: np.ndarray,
    base_set_order: Tuple[SetId, ...],
    n: int,
    m: int,
) -> LocalShard:
    """Dense local ids for a clean shard stream, from lookup arrays.

    Every id is in range (the accumulator validated it), so global ids
    index ``m``- and ``n``-sized lookup arrays directly.  Local elements
    are the ranks of the observed global elements.  Local sets follow
    the party order: a set listed in ``base_set_order`` keeps its
    position there (the last one, if listed twice), and an unlisted set
    is appended in order of first appearance.  The membership rows
    follow the party order too; every listing of a set gets its full
    membership.
    """
    base = np.array(base_set_order, dtype=np.int64)
    k = len(set_col)
    if not k:
        return LocalShard(
            set_ids=base,
            elements=_EMPTY_COLUMN,
            local_sets=_EMPTY_COLUMN,
            local_elements=_EMPTY_COLUMN,
            rows=SetRows(
                base_set_order,
                np.zeros(len(base) + 1, dtype=np.int64),
                _EMPTY_COLUMN,
            ),
        )
    local_of = np.full(m, -1, dtype=np.int64)
    in_range = (base >= 0) & (base < m)
    np.maximum.at(local_of, base[in_range], np.flatnonzero(in_range))
    local_sets = local_of[set_col]
    set_ids = base
    unlisted = np.flatnonzero(local_sets < 0)
    if len(unlisted):
        first = np.full(m, k, dtype=np.int64)
        np.minimum.at(first, set_col[unlisted], unlisted)
        stragglers = np.flatnonzero(first < k)
        stragglers = stragglers[np.argsort(first[stragglers])]
        local_of[stragglers] = len(base) + np.arange(len(stragglers))
        local_sets = local_of[set_col]
        set_ids = np.concatenate([base, stragglers])

    observed = np.zeros(n, dtype=bool)
    observed[elem_col] = True
    elements = np.flatnonzero(observed)
    local_elements = (np.cumsum(observed) - 1)[elem_col]
    return LocalShard(
        set_ids=set_ids,
        elements=elements,
        local_sets=local_sets,
        local_elements=local_elements,
        rows=_membership_rows(set_ids, local_of, local_sets, elem_col, n),
    )


def _membership_rows(
    set_ids: np.ndarray,
    local_of: np.ndarray,
    local_sets: np.ndarray,
    elem_col: np.ndarray,
    n: int,
) -> SetRows:
    """The membership of every party-order set as CSR rows.

    One sort of the edge codes ``local_set * n + element`` groups the
    edges by the row their set relabels to, ascending by element within
    it; dropping repeated codes drops repeated edges.  A set listed
    twice relabels to its last listing, so each row then gathers the
    members of the row its set relabels to (itself, unless listed
    twice; a listed id outside ``range(m)`` has no edges).
    """
    codes = np.sort(local_sets * n + elem_col)
    codes = codes[np.concatenate(([True], codes[1:] != codes[:-1]))]
    row_of_code = codes // n
    counts = np.bincount(row_of_code, minlength=len(set_ids))
    starts = np.zeros(len(set_ids), dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    source = np.arange(len(set_ids))
    listed = (set_ids >= 0) & (set_ids < len(local_of))
    source[listed] = local_of[set_ids[listed]]
    lengths = counts[source]
    indptr = np.zeros(len(set_ids) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    gather = np.repeat(starts[source] - indptr[:-1], lengths)
    gather += np.arange(indptr[-1])
    return SetRows(set_ids.tolist(), indptr, codes[gather] % n)


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

    def run_accumulated(
        self,
        accumulator: ShardAccumulator,
        instance_name: str = "",
        injection: Optional[InjectionReport] = None,
    ) -> ShardOutput:
        """Execute the algorithm pass over an already-ingested shard.

        The algorithm sees the shard's clean stream in dense local ids,
        over an :class:`InstanceShape` of the local ``(n, m)``: every
        registry algorithm reads only the shape of its instance.
        """
        local = accumulator.localize()
        set_ids = local.set_ids.tolist()
        local_n = len(local.elements)
        base_report = ShardReport(
            index=self.index,
            edges=len(local.local_sets),
            local_n=local_n,
            local_m=len(set_ids),
            cover_size=0,
            certificate_size=0,
            space=_EMPTY_SPACE,
            dropped_invalid=accumulator.dropped,
            injection=injection,
        )
        if not len(local.local_sets):
            # Nothing arrived: no local instance can even be built.  The
            # shard contributes an empty cover, which every coordinator
            # handles (an empty party forwards chain state untouched).
            return ShardOutput(
                index=self.index,
                cover=frozenset(),
                certificate=_EMPTY_CERTIFICATE,
                rows=local.rows,
                report=base_report,
            )

        local_instance = InstanceShape(
            n=local_n,
            m=len(set_ids),
            name=f"{instance_name or 'instance'}|shard[{self.index}]",
        )
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
            edges=base_report.edges,
            local_n=local_instance.n,
            local_m=local_instance.m,
        ):
            result = algorithm.run(
                EdgeStream(
                    local_instance,
                    FrozenEdges.from_columns(
                        local.local_sets, local.local_elements
                    ),
                    order_name=f"shard[{self.index}]",
                )
            )

        cover = frozenset(set_ids[s] for s in result.cover)
        elements, witnesses = witness_columns(result.certificate)
        certificate = Certificate(
            local.elements[elements], local.set_ids[witnesses]
        )
        base_report.cover_size = len(cover)
        base_report.certificate_size = len(certificate)
        base_report.space = result.space
        return ShardOutput(
            index=self.index,
            cover=cover,
            certificate=certificate,
            rows=local.rows,
            report=base_report,
        )
