"""Set-cover instances: the static ground truth behind an edge stream.

A :class:`SetCoverInstance` holds a universe ``range(n)`` and a family
of ``m`` sets over it.  All streams, algorithms, verifiers, and
experiment harnesses in the library are defined against this type.

The paper (Section 2) represents an instance as a bipartite incidence
graph ``G = (S, U, E)`` with an edge ``(S_i, u)`` iff ``u ∈ S_i``.  The
instance holds that edge set in one representation, read-only ``int64``
CSR columns built at construction: set ``s`` is
``members[indptr[s]:indptr[s + 1]]``, ascending; ``set_ids`` repeats
each set id over its slice, so :meth:`SetCoverInstance.edge_columns` is
``(set_ids, members)``; and the ascending ``set * n + element`` keys
index :meth:`SetCoverInstance.edge_mask`.  Feasibility (every element
in at least one set) is the paper's standing assumption;
:meth:`validate` enforces it on demand, and generators produce feasible
instances by construction.
"""

from __future__ import annotations

import operator
from itertools import chain
from typing import FrozenSet, Iterable, Iterator, List, Sequence, Set, Tuple

import numpy as np

from repro.errors import InfeasibleInstanceError, InvalidInstanceError
from repro.types import Edge, ElementId, SetId


def _id_column(values: Sequence[object], bound: int, what: str) -> np.ndarray:
    """``values`` as ``int64``; each must be an integer in ``range(bound)``.

    Python and numpy integers (``bool`` included) are ids.  A list numpy
    reads as anything but integers (floats, strings, ``None``, ints
    beyond ``int64``) takes a per-value pass that names the first bad one.
    """
    column = np.asarray(values)
    if column.dtype.kind not in "biu":
        for value in values:
            if not isinstance(value, (int, np.integer, np.bool_)):
                raise InvalidInstanceError(f"{what} {value!r} is not an integer")
            if not 0 <= value < bound:
                raise InvalidInstanceError(f"{what} {value} out of range(0, {bound})")
        return np.fromiter(values, dtype=np.int64, count=len(values))
    outside = (column < 0) | (column >= bound)
    if outside.any():
        value = column[outside.argmax()]
        raise InvalidInstanceError(f"{what} {value} out of range(0, {bound})")
    return column.astype(np.int64, copy=False)


class SetCoverInstance:
    """An immutable set-cover instance over universe ``range(n)``.

    Parameters
    ----------
    n:
        Universe size; elements are ``0 .. n-1``.
    sets:
        Iterable of element collections, one per set, indexed ``0 .. m-1``
        in iteration order.  Elements are Python or numpy integers;
        repeats collapse.
    name:
        Optional human-readable label used in experiment output.
    """

    def __init__(
        self,
        n: int,
        sets: Iterable[Iterable[ElementId]],
        name: str = "",
    ) -> None:
        elements: List[object] = []
        sizes: List[int] = []
        for members in sets:
            start = len(elements)
            elements.extend(members)
            sizes.append(len(elements) - start)
        set_ids = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
        self._build(n, len(sizes), set_ids, elements, name)

    def _build(
        self, n: int, m: int, set_ids: Sequence, elements: Sequence, name: str
    ) -> None:
        """The one column builder: check every id, sort the keys, drop repeats."""
        try:
            n, m = operator.index(n), operator.index(m)
        except TypeError:
            raise InvalidInstanceError(
                f"n and m must be integers, got n={n!r}, m={m!r}"
            ) from None
        if n <= 0:
            raise InvalidInstanceError(f"universe size must be positive, got {n}")
        if m <= 0:
            raise InvalidInstanceError("instance must contain at least one set")
        if n * m > np.iinfo(np.int64).max:
            raise InvalidInstanceError(f"n={n} x m={m} edge keys overflow int64")
        keys = _id_column(set_ids, m, "set id") * n
        keys += _id_column(elements, n, "element")
        keys.sort()
        if len(keys):
            keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        set_column = keys // n
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(set_column, minlength=m), out=indptr[1:])
        self.__setstate__(
            {
                "_n": n,
                "_indptr": indptr,
                "_set_ids": set_column,
                "_members": keys - set_column * n,
                "_edge_keys": keys,
                "name": name,
            }
        )

    def __setstate__(self, state: dict) -> None:
        """Install ``state``, as built or unpickled, with read-only columns."""
        self.__dict__.update(state)
        for column in (self._indptr, self._set_ids, self._members, self._edge_keys):
            column.flags.writeable = False

    # -- basic shape -----------------------------------------------------

    @property
    def n(self) -> int:
        """Universe size."""
        return self._n

    @property
    def m(self) -> int:
        """Number of sets."""
        return len(self._indptr) - 1

    @property
    def num_edges(self) -> int:
        """Total number of (set, element) incidences — the stream length N."""
        return len(self._members)

    def _row(self, set_id: SetId) -> np.ndarray:
        """Set ``set_id``'s members, ascending: a slice of ``members``."""
        if not 0 <= set_id < self.m:
            raise InvalidInstanceError(f"set id {set_id} out of range(0, {self.m})")
        return self._members[self._indptr[set_id] : self._indptr[set_id + 1]]

    def set_members(self, set_id: SetId) -> FrozenSet[ElementId]:
        """The elements of set ``set_id``."""
        return frozenset(self._row(set_id).tolist())

    def set_size(self, set_id: SetId) -> int:
        """``len`` of set ``set_id``."""
        return len(self._row(set_id))

    def sets(self) -> Sequence[FrozenSet[ElementId]]:
        """All sets, indexed by set id; each is read when indexed."""
        return _Sets(self)

    def contains(self, set_id: SetId, element: ElementId) -> bool:
        """Whether element ``element`` is in set ``set_id``."""
        row = self._row(set_id)
        if not 0 <= element < self._n:
            return False
        slot = row.searchsorted(element)
        return bool(slot < len(row) and row[slot] == element)

    # -- derived structure -------------------------------------------------

    def edges(self) -> Iterator[Edge]:
        """Iterate :meth:`edge_columns` as :class:`Edge` records."""
        set_ids, elements = self.edge_columns()
        return map(Edge, set_ids.tolist(), elements.tolist())

    def edge_columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """All incidence edges, grouped by set, elements ascending.

        This is the canonical (deterministic) edge enumeration; arrival
        orders are applied on top of it by :mod:`repro.streaming.orders`.
        Returns the instance's own read-only ``int64`` ``(set_ids,
        elements)`` columns, so column consumers (the stream builders,
        the sharded executor's order and routing steps) never build a
        per-edge record.
        """
        return self._set_ids, self._members

    def edge_mask(self, set_ids: np.ndarray, elements: np.ndarray) -> np.ndarray:
        """Which ``(set_ids[i], elements[i])`` pairs are edges of the instance.

        A pair with an id out of range is not an edge.  The pairs are
        looked up with one ``searchsorted`` over the instance's ascending
        ``set * n + element`` keys.  The queries are sorted first, which
        makes the search two to three times faster than on arrival order.
        """
        set_ids = np.asarray(set_ids, dtype=np.int64)
        elements = np.asarray(elements, dtype=np.int64)
        n = self._n
        mask = (set_ids >= 0) & (set_ids < self.m) & (elements >= 0) & (elements < n)
        known = self._edge_keys
        keys = set_ids[mask] * n + elements[mask]
        order = keys.argsort()
        sorted_keys = keys[order]
        slot = np.searchsorted(known, sorted_keys)
        in_known = slot < len(known)
        in_known[in_known] = known[slot[in_known]] == sorted_keys[in_known]
        found = np.empty(len(keys), dtype=bool)
        found[order] = in_known
        mask[mask] = found
        return mask

    def element_degrees(self) -> Sequence[int]:
        """Degree (number of containing sets) of each element, by id."""
        return tuple(np.bincount(self._members, minlength=self._n).tolist())

    def _holds(self, element: ElementId) -> np.ndarray:
        """Mask over the edges: those whose element is ``element``."""
        if not 0 <= element < self._n:
            raise InvalidInstanceError(f"element {element} out of range(0, {self._n})")
        return self._members == element

    def element_degree(self, element: ElementId) -> int:
        """Degree of a single element."""
        return int(np.count_nonzero(self._holds(element)))

    def covering_sets(self, element: ElementId) -> FrozenSet[SetId]:
        """Ids of the sets containing ``element`` (computed on demand)."""
        return frozenset(self._set_ids[self._holds(element)].tolist())

    def covering_sets_by_element(self) -> List[FrozenSet[SetId]]:
        """:meth:`covering_sets` of every element, indexed by element id.

        One ``np.sort`` of the ``element * m + set`` keys groups the
        edges element-major; :meth:`covering_sets` scans every edge per
        call.
        """
        n, m = self._n, self.m
        keys = np.sort(self._members * m + self._set_ids)
        sets = (keys % m).tolist()
        bounds = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self._members, minlength=n), out=bounds[1:])
        bounds = bounds.tolist()
        return [frozenset(sets[bounds[u] : bounds[u + 1]]) for u in range(n)]

    # -- feasibility and cover checking -----------------------------------

    def validate(self) -> None:
        """Raise :class:`InfeasibleInstanceError` if some element is uncovered.

        The paper assumes feasibility throughout (Section 2); call this
        after constructing instances from untrusted input.
        """
        missing = np.flatnonzero(np.bincount(self._members, minlength=self._n) == 0)
        if len(missing):
            preview = ", ".join(map(str, missing[:5].tolist()))
            raise InfeasibleInstanceError(
                f"{len(missing)} element(s) belong to no set (e.g. {preview})"
            )

    def is_feasible(self) -> bool:
        """``True`` iff every element is contained in at least one set."""
        try:
            self.validate()
        except InfeasibleInstanceError:
            return False
        return True

    def _covered(self, set_ids: Iterable[SetId]) -> np.ndarray:
        """Mask over the universe: the elements the given sets cover."""
        covered = np.zeros(self._n, dtype=bool)
        for set_id in set_ids:
            covered[self._row(set_id)] = True
        return covered

    def coverage_of(self, set_ids: Iterable[SetId]) -> Set[ElementId]:
        """Union of the given sets' members."""
        return set(np.flatnonzero(self._covered(set_ids)).tolist())

    def is_cover(self, set_ids: Iterable[SetId]) -> bool:
        """``True`` iff the given sets jointly cover the whole universe."""
        return bool(self._covered(set_ids).all())

    def uncovered_by(self, set_ids: Iterable[SetId]) -> Set[ElementId]:
        """Elements *not* covered by the given sets."""
        return set(np.flatnonzero(~self._covered(set_ids)).tolist())

    # -- restriction / derived instances -----------------------------------

    def restrict_to_sets(self, set_ids: Sequence[SetId], name: str = "") -> "SetCoverInstance":
        """New instance keeping only the given sets (same universe)."""
        return SetCoverInstance(
            self._n,
            (self._row(s).tolist() for s in set_ids),
            name=name or f"{self.name}|restricted",
        )

    def with_extra_sets(
        self, extra: Iterable[Iterable[ElementId]], name: str = ""
    ) -> "SetCoverInstance":
        """New instance with ``extra`` sets appended after the existing ones."""
        own = (self._row(s).tolist() for s in range(self.m))
        return SetCoverInstance(
            self._n, chain(own, extra), name=name or f"{self.name}+extra"
        )

    # -- dunder -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetCoverInstance):
            return NotImplemented
        return (
            self._n == other._n
            and np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._members, other._members)
        )

    def __hash__(self) -> int:
        return hash((self._n, self._indptr.tobytes(), self._members.tobytes()))

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"SetCoverInstance(n={self._n}, m={self.m}, "
            f"edges={self.num_edges}{label})"
        )


class _Sets(Sequence):
    """An instance's sets by id, each a ``frozenset`` built when indexed."""

    def __init__(self, instance: SetCoverInstance) -> None:
        self._instance = instance

    def __len__(self) -> int:
        return self._instance.m

    def __getitem__(self, index):
        ids = range(self._instance.m)[index]  # IndexError past either end
        if isinstance(ids, range):
            return tuple(map(self._instance.set_members, ids))
        return self._instance.set_members(ids)


def instance_from_edges(
    n: int, m: int, edges: Iterable[Tuple[SetId, ElementId]], name: str = ""
) -> SetCoverInstance:
    """Build an instance of shape ``(n, m)`` from ``(set, element)`` pairs.

    Ids are Python or numpy integers; repeated edges collapse.  Sets
    that receive no edges become empty sets; they are legal (an
    algorithm simply never sees them in the stream) but the instance
    must still be feasible overall if you intend to run cover checks.
    """
    pairs = list(edges)
    if set(map(len, pairs)) - {2}:
        raise InvalidInstanceError("every edge must be a (set, element) pair")
    flat = list(chain.from_iterable(pairs))
    instance = SetCoverInstance.__new__(SetCoverInstance)
    instance._build(n, m, flat[0::2], flat[1::2], name)
    return instance
