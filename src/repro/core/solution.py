"""Cover solutions and certificates produced by streaming algorithms.

The paper requires algorithms to output both a cover ``T ⊆ S`` and a
*cover certificate* ``C : U → T`` naming, for each element, a set in the
cover that contains it (Section 1).  :class:`StreamingResult` bundles
both together with the space report and per-run diagnostics, and knows
how to verify itself against the ground-truth instance.
:class:`Certificate` is the certificate as two ``int64`` columns, written
by :class:`CertificateBuilder` and read column-wise by every consumer
that does not look up single elements.  The module also holds
:func:`greedy_column_picks`, the one plain offline greedy every offline
phase and baseline runs, with :func:`greedy_picks` as its front for
``set id -> members`` mappings.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

import numpy as np

from repro.errors import InvalidCoverError, InvalidInstanceError
from repro.streaming.instance import SetCoverInstance
from repro.streaming.space import SpaceReport
from repro.types import ElementId, SetId, first_occurrences


class Certificate(Mapping):
    """An immutable ``element -> witness`` map held as two ``int64`` columns.

    ``columns()`` returns the distinct elements in insertion order and
    their witnesses, both read-only.  Iteration, ``len``, :meth:`items`,
    :meth:`values`, equality and pickling read the columns and never
    build a dict; a key lookup (``[]``, ``in``, ``get``) builds one index
    dict on first use (:meth:`_lookup`).  Equal to any mapping, from
    either side, with the same pairs, in any order, as a dict is.  The
    constructor takes ownership of its arrays: the caller must not write
    them afterwards, and the elements must be distinct.
    """

    __slots__ = ("_elements", "_witnesses", "_index")

    def __init__(self, elements: object, witnesses: object) -> None:
        elements = np.asarray(elements, dtype=np.int64).view()
        witnesses = np.asarray(witnesses, dtype=np.int64).view()
        if elements.ndim != 1 or elements.shape != witnesses.shape:
            raise ValueError(
                "certificate columns must be two 1-d arrays of one length, "
                f"got shapes {elements.shape} and {witnesses.shape}"
            )
        elements.setflags(write=False)
        witnesses.setflags(write=False)
        self._elements = elements
        self._witnesses = witnesses
        self._index: Optional[Dict[ElementId, SetId]] = None

    def columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(elements, witnesses)``: read-only ``int64`` columns."""
        return self._elements, self._witnesses

    def _lookup(self) -> Dict[ElementId, SetId]:
        """The ``element -> witness`` dict behind key lookups, built once."""
        if self._index is None:
            self._index = dict(
                zip(self._elements.tolist(), self._witnesses.tolist())
            )
        return self._index

    def __getitem__(self, element: ElementId) -> SetId:
        return self._lookup()[element]

    def __iter__(self) -> Iterator[ElementId]:
        return iter(self._elements.tolist())

    def __len__(self) -> int:
        return len(self._elements)

    def items(self) -> "_CertificateItems":
        return _CertificateItems(self)

    def values(self) -> "_CertificateValues":
        return _CertificateValues(self)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Certificate):
            if len(self) != len(other):
                return False
            (mine, my_sets), (theirs, their_sets) = self.columns(), other.columns()
            if not np.array_equal(mine, theirs):
                a, b = np.argsort(mine), np.argsort(theirs)
                mine, my_sets = mine[a], my_sets[a]
                theirs, their_sets = theirs[b], their_sets[b]
                if not np.array_equal(mine, theirs):
                    return False
            return bool(np.array_equal(my_sets, their_sets))
        if isinstance(other, Mapping):
            if len(self) != len(other):
                return False
            missing = object()
            return all(other.get(u, missing) == s for u, s in self.items())
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):
        return Certificate, (self._elements, self._witnesses)

    def __repr__(self) -> str:
        pairs = ", ".join(f"{u}: {s}" for u, s in self.items())
        return f"Certificate({{{pairs}}})"


class _CertificateItems(ItemsView):
    """A :class:`Certificate`'s pairs, zipped from its columns."""

    __slots__ = ()

    def __iter__(self) -> Iterator[Tuple[ElementId, SetId]]:
        elements, witnesses = self._mapping.columns()
        return zip(elements.tolist(), witnesses.tolist())


class _CertificateValues(ValuesView):
    """A :class:`Certificate`'s witnesses, in element insertion order."""

    __slots__ = ()

    def __iter__(self) -> Iterator[SetId]:
        return iter(self._mapping.columns()[1].tolist())


class CertificateBuilder:
    """Writes a :class:`Certificate`: two preallocated ``int64`` columns
    and a cursor, so adding a witness allocates nothing.

    ``capacity`` bounds the entries (a universe size: each element is
    witnessed once).  :meth:`build` hands the filled prefix to a
    :class:`Certificate` without copying; the builder must not be
    written afterwards.
    """

    __slots__ = ("_elements", "_witnesses", "_count")

    def __init__(self, capacity: int) -> None:
        self._elements = np.empty(capacity, dtype=np.int64)
        self._witnesses = np.empty(capacity, dtype=np.int64)
        self._count = 0

    def add(self, element: ElementId, witness: SetId) -> None:
        """Witness ``element`` (not yet witnessed) by ``witness``."""
        count = self._count
        self._elements[count] = element
        self._witnesses[count] = witness
        self._count = count + 1

    def extend(self, elements: np.ndarray, witnesses: np.ndarray) -> None:
        """Witness each of ``elements`` (distinct, none yet witnessed)."""
        count = self._count
        end = count + len(elements)
        self._elements[count:end] = elements
        self._witnesses[count:end] = witnesses
        self._count = end

    @property
    def elements(self) -> np.ndarray:
        """The elements witnessed so far, in the order they were added."""
        return self._elements[: self._count]

    def __len__(self) -> int:
        return self._count

    def build(self) -> Certificate:
        """The certificate written so far."""
        count = self._count
        return Certificate(self._elements[:count], self._witnesses[:count])


def witness_columns(
    certificate: Mapping, by_element: bool = False
) -> Tuple[np.ndarray, np.ndarray]:
    """``certificate`` as ``(elements, witnesses)`` ``int64`` columns.

    In iteration order, or ascending by element with ``by_element``.  A
    :class:`Certificate` hands over its own columns; any other mapping
    of ints is read once per column.
    """
    if isinstance(certificate, Certificate):
        elements, witnesses = certificate.columns()
    else:
        count = len(certificate)
        elements = np.fromiter(certificate, dtype=np.int64, count=count)
        witnesses = np.fromiter(
            certificate.values(), dtype=np.int64, count=count
        )
    if by_element:
        order = np.argsort(elements, kind="stable")
        elements, witnesses = elements[order], witnesses[order]
    return elements, witnesses


@dataclass
class StreamingResult:
    """Output of one streaming-algorithm run.

    Attributes
    ----------
    cover:
        Ids of the sets forming the output cover.
    certificate:
        ``element -> set`` witness map (a dict, or a read-only
        :class:`Certificate` from kk); every universe element must be
        mapped to a cover set containing it for :meth:`verify` to pass.
    space:
        Peak/final space report from the run's :class:`SpaceMeter`.
    algorithm:
        Name of the producing algorithm.
    diagnostics:
        Free-form numeric diagnostics (e.g. invariant probe counters for
        Algorithm 1, level histograms for Algorithm 2).
    """

    cover: FrozenSet[SetId]
    certificate: Mapping[ElementId, SetId]
    space: SpaceReport
    algorithm: str = ""
    diagnostics: Dict[str, float] = field(default_factory=dict)

    @property
    def cover_size(self) -> int:
        """Number of sets in the output cover."""
        return len(self.cover)

    def verify(self, instance: SetCoverInstance) -> None:
        """Raise :class:`InvalidCoverError` unless this is a valid cover.

        Checks three properties the paper demands of the output:
        the certificate is total, every witness actually contains its
        element, and every witness is a member of the reported cover.
        """
        verify_certificate(
            instance, self.cover, self.certificate, self.algorithm or "result"
        )

    def is_valid(self, instance: SetCoverInstance) -> bool:
        """``True`` iff :meth:`verify` passes."""
        try:
            self.verify(instance)
        except InvalidCoverError:
            return False
        return True

    def approximation_ratio(self, opt_size: int) -> float:
        """Cover size divided by a known optimum (or lower bound) size."""
        if opt_size <= 0:
            raise ValueError(f"opt_size must be positive, got {opt_size}")
        return self.cover_size / opt_size

    def covered_elements(self, instance: SetCoverInstance) -> Set[ElementId]:
        """Elements covered by the reported cover (ground-truth union)."""
        return instance.coverage_of(self.cover)


def verify_certificate(
    instance: SetCoverInstance,
    cover: AbstractSet[SetId],
    certificate: Mapping[ElementId, SetId],
    label: str,
    uncovered: Optional[AbstractSet[ElementId]] = None,
) -> None:
    """Raise :class:`InvalidCoverError` unless ``certificate`` proves ``cover``.

    The one cover check behind every result's ``verify``: the
    certificate is total, every witness is a member of the cover, and
    every witness is a set id that contains its element.  Messages start
    with ``label``.  With ``uncovered`` (quorum-degraded runs) totality
    relaxes to *accounted-for* totality: an element without a witness
    must appear in ``uncovered`` — a silently missing element still
    fails.

    All elements are checked at once with column ops (edge membership
    via :meth:`SetCoverInstance.edge_mask`); the first failing element,
    in id order, is then named by the per-element checks below.
    """
    n = instance.n
    elements, witnesses = witness_columns(certificate)
    in_universe = (elements >= 0) & (elements < n)
    elements, witnesses = elements[in_universe], witnesses[in_universe]
    passed = np.zeros(n, dtype=bool)
    if uncovered is not None:
        reported = np.fromiter(uncovered, dtype=np.int64, count=len(uncovered))
        passed[reported[(reported >= 0) & (reported < n)]] = True
    cover_ids = np.fromiter(cover, dtype=np.int64, count=len(cover))
    cover_mask = np.zeros(instance.m, dtype=bool)
    cover_mask[cover_ids[(cover_ids >= 0) & (cover_ids < instance.m)]] = True
    witnessed = instance.edge_mask(witnesses, elements)
    witnessed[witnessed] = cover_mask[witnesses[witnessed]]
    passed[elements] = witnessed
    if passed.all():
        return
    u = int(np.argmin(passed))
    if u not in certificate:
        if uncovered is None:
            raise InvalidCoverError(f"{label}: element {u} has no witness")
        raise InvalidCoverError(
            f"{label}: element {u} has no witness and is not "
            "reported uncovered"
        )
    witness = certificate[u]
    if witness not in cover:
        raise InvalidCoverError(
            f"{label}: witness {witness} for element {u} is not in "
            "the reported cover"
        )
    if not 0 <= witness < instance.m:
        raise InvalidCoverError(
            f"{label}: witness {witness} for element {u} is not a set id "
            f"in range(0, {instance.m})"
        )
    raise InvalidCoverError(f"{label}: set {witness} does not contain element {u}")


def certificate_from_cover(
    instance: SetCoverInstance, cover: FrozenSet[SetId]
) -> Dict[ElementId, SetId]:
    """Build a certificate for ``cover`` from the instance's edge columns.

    Each element's witness is the smallest cover set holding it (its
    first row in the cover's mask over the columns), and the items
    follow ascending ``(set, element)`` order.  Intended for *offline*
    baselines (greedy et al.) where building the witness map after the
    fact is legitimate; streaming algorithms must construct certificates
    during their pass.
    """
    ids = np.fromiter(cover, dtype=np.int64, count=len(cover))
    if len(ids) and not 0 <= ids.min() <= ids.max() < instance.m:
        raise InvalidInstanceError(f"cover has a set id outside range(0, {instance.m})")
    chosen = np.zeros(instance.m, dtype=bool)
    chosen[ids] = True
    set_ids, elements = instance.edge_columns()
    rows = np.flatnonzero(chosen[set_ids])
    covered, first = first_occurrences(elements[rows], instance.n)
    if len(covered) < instance.n:
        missing = np.setdiff1d(np.arange(instance.n), covered)
        raise InvalidCoverError(
            f"cover of size {len(cover)} leaves {len(missing)} element(s) "
            f"uncovered (e.g. {missing[:5].tolist()})"
        )
    rows = rows[np.sort(first)]
    return dict(zip(elements[rows].tolist(), set_ids[rows].tolist()))


GreedyPick = Tuple[SetId, int, List[ElementId]]
"""One offline-greedy pick: ``(set_id, gain, covered_elements_sorted)``."""


def greedy_picks(
    projections: Mapping[SetId, AbstractSet[ElementId]],
    uncovered: AbstractSet[ElementId],
) -> Iterator[GreedyPick]:
    """Plain offline greedy: yield its picks over ``projections``, in order.

    The front for ``set id -> members`` mappings: it flattens them into
    two ``int64`` columns (set index, element id) in mapping order and
    runs :func:`greedy_column_picks`.  Set indices follow
    ``projections`` order, so ties break to the earliest-stored set
    (callers that want the smallest id pass ids ascending).  Elements
    are universe ids: the uncovered mask is dense up to the largest
    member.  ``uncovered`` is read once, before the first pick, so a
    caller may shrink it as the picks arrive.
    """
    if not uncovered or not projections:
        return
    set_list = list(projections)
    flat_sets: List[int] = []
    flat_elems: List[ElementId] = []
    for index, set_id in enumerate(set_list):
        members = projections[set_id]
        flat_sets.extend([index] * len(members))
        flat_elems.extend(members)
    elems = np.asarray(flat_elems, dtype=np.int64)
    size = int(elems.max()) + 1 if len(elems) else 1
    uncovered_mask = np.zeros(size, dtype=bool)
    for element in uncovered:
        if element < size:
            uncovered_mask[element] = True
    picks = greedy_column_picks(
        np.asarray(flat_sets, dtype=np.int64), elems, len(set_list), uncovered_mask
    )
    for index, gain, covered in picks:
        yield set_list[index], gain, covered


def greedy_column_picks(
    set_index: np.ndarray,
    elements: np.ndarray,
    num_sets: int,
    uncovered: np.ndarray,
) -> Iterator[GreedyPick]:
    """Offline greedy on membership columns: yield ``(index, gain, covered)``.

    Set ``set_index[i]`` (in ``range(num_sets)``) holds ``elements[i]``;
    the columns are only read.  ``uncovered`` is a boolean mask over
    element ids that the loop owns and clears as it covers.  Each pick
    is one ``bincount`` over the live entries plus an ``argmax``, whose
    first maximum breaks ties to the smallest index; entries of covered
    elements and picked sets are dropped as the loop goes, so a round
    costs O(live entries).  The loop stops once no set adds anything.
    """
    while True:
        keep = uncovered[elements]
        if not keep.all():
            elements = elements[keep]
            set_index = set_index[keep]
        if not len(elements):
            return
        gains = np.bincount(set_index, minlength=num_sets)
        best = int(np.argmax(gains))
        best_gain = int(gains[best])
        if best_gain == 0:
            return
        chosen = set_index == best
        covered_elements = elements[chosen]
        uncovered[covered_elements] = False
        elements = elements[~chosen]
        set_index = set_index[~chosen]
        yield best, best_gain, sorted(covered_elements.tolist())
