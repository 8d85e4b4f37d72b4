"""Set-cover instances: the static ground truth behind an edge stream.

A :class:`SetCoverInstance` holds a universe ``range(n)`` and a family
of ``m`` sets over it.  All streams, algorithms, verifiers, and
experiment harnesses in the library are defined against this type.

The paper (Section 2) represents an instance as a bipartite incidence
graph ``G = (S, U, E)`` with an edge ``(S_i, u)`` iff ``u ∈ S_i``; the
columns of :meth:`SetCoverInstance.edge_columns` enumerate exactly that
edge set.  Feasibility (every element in at least one set) is the paper's
standing assumption; :meth:`validate` enforces it on demand, and
generators produce feasible instances by construction.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import InfeasibleInstanceError, InvalidInstanceError
from repro.types import Edge, ElementId, SetId


class SetCoverInstance:
    """An immutable set-cover instance over universe ``range(n)``.

    Parameters
    ----------
    n:
        Universe size; elements are ``0 .. n-1``.
    sets:
        Iterable of element collections, one per set, indexed ``0 .. m-1``
        in iteration order.
    name:
        Optional human-readable label used in experiment output.
    """

    def __init__(
        self,
        n: int,
        sets: Iterable[Iterable[ElementId]],
        name: str = "",
    ) -> None:
        if n <= 0:
            raise InvalidInstanceError(f"universe size must be positive, got {n}")
        self._n = n
        self._sets: List[FrozenSet[ElementId]] = []
        for set_id, members in enumerate(sets):
            frozen = frozenset(int(u) for u in members)
            for u in frozen:
                if not 0 <= u < n:
                    raise InvalidInstanceError(
                        f"set {set_id} contains element {u} outside universe "
                        f"range(0, {n})"
                    )
            self._sets.append(frozen)
        if not self._sets:
            raise InvalidInstanceError("instance must contain at least one set")
        self.name = name
        self._element_degrees: Optional[List[int]] = None
        self._num_edges: Optional[int] = None
        self._edge_columns: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._edge_keys: Optional[np.ndarray] = None

    # -- basic shape -----------------------------------------------------

    @property
    def n(self) -> int:
        """Universe size."""
        return self._n

    @property
    def m(self) -> int:
        """Number of sets."""
        return len(self._sets)

    @property
    def num_edges(self) -> int:
        """Total number of (set, element) incidences — the stream length N."""
        if self._num_edges is None:
            self._num_edges = sum(len(s) for s in self._sets)
        return self._num_edges

    def set_members(self, set_id: SetId) -> FrozenSet[ElementId]:
        """The elements of set ``set_id``."""
        if not 0 <= set_id < len(self._sets):
            raise InvalidInstanceError(
                f"set id {set_id} out of range(0, {self.m})"
            )
        return self._sets[set_id]

    def set_size(self, set_id: SetId) -> int:
        """``len`` of set ``set_id``."""
        return len(self.set_members(set_id))

    def sets(self) -> Sequence[FrozenSet[ElementId]]:
        """All sets, indexed by set id."""
        return tuple(self._sets)

    def contains(self, set_id: SetId, element: ElementId) -> bool:
        """Whether element ``element`` is in set ``set_id``."""
        return element in self.set_members(set_id)

    # -- derived structure -------------------------------------------------

    def edges(self) -> Iterator[Edge]:
        """Iterate :meth:`edge_columns` as :class:`Edge` records."""
        set_ids, elements = self.edge_columns()
        return map(Edge, set_ids.tolist(), elements.tolist())

    def edge_columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """All incidence edges, grouped by set, elements ascending.

        This is the canonical (deterministic) edge enumeration; arrival
        orders are applied on top of it by :mod:`repro.streaming.orders`.
        Returns read-only ``int64`` ``(set_ids, elements)`` columns,
        built once and cached like the element degrees, so column
        consumers (the stream builders, the sharded executor's order
        and routing steps) never build a per-edge record.
        """
        if self._edge_columns is None:
            sizes = np.fromiter(
                (len(members) for members in self._sets),
                dtype=np.int64,
                count=len(self._sets),
            )
            set_ids = np.repeat(np.arange(len(self._sets), dtype=np.int64), sizes)
            elements = np.fromiter(
                (u for members in self._sets for u in sorted(members)),
                dtype=np.int64,
                count=len(set_ids),
            )
            set_ids.flags.writeable = False
            elements.flags.writeable = False
            self._edge_columns = (set_ids, elements)
        return self._edge_columns

    def edge_mask(self, set_ids: np.ndarray, elements: np.ndarray) -> np.ndarray:
        """Which ``(set_ids[i], elements[i])`` pairs are edges of the instance.

        A pair with an id out of range is not an edge.  The pairs are
        looked up with one ``searchsorted`` over the ``set * n +
        element`` keys of :meth:`edge_columns`, which ascend; the keys
        are built once and cached with the columns.  The queries are
        sorted first, which makes the search two to three times faster
        than on arrival order.
        """
        set_ids = np.asarray(set_ids, dtype=np.int64)
        elements = np.asarray(elements, dtype=np.int64)
        n = self._n
        mask = (set_ids >= 0) & (set_ids < self.m) & (elements >= 0) & (elements < n)
        if self._edge_keys is None:
            known_sets, known_elements = self.edge_columns()
            self._edge_keys = known_sets * n
            self._edge_keys += known_elements
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
        if self._element_degrees is None:
            degrees = [0] * self._n
            for members in self._sets:
                for u in members:
                    degrees[u] += 1
            self._element_degrees = degrees
        return tuple(self._element_degrees)

    def element_degree(self, element: ElementId) -> int:
        """Degree of a single element."""
        if not 0 <= element < self._n:
            raise InvalidInstanceError(
                f"element {element} out of range(0, {self._n})"
            )
        return self.element_degrees()[element]

    def covering_sets(self, element: ElementId) -> FrozenSet[SetId]:
        """Ids of the sets containing ``element`` (computed on demand)."""
        if not 0 <= element < self._n:
            raise InvalidInstanceError(
                f"element {element} out of range(0, {self._n})"
            )
        return frozenset(
            set_id for set_id, members in enumerate(self._sets) if element in members
        )

    # -- feasibility and cover checking -----------------------------------

    def validate(self) -> None:
        """Raise :class:`InfeasibleInstanceError` if some element is uncovered.

        The paper assumes feasibility throughout (Section 2); call this
        after constructing instances from untrusted input.
        """
        covered: Set[ElementId] = set()
        for members in self._sets:
            covered.update(members)
        missing = [u for u in range(self._n) if u not in covered]
        if missing:
            preview = ", ".join(str(u) for u in missing[:5])
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

    def coverage_of(self, set_ids: Iterable[SetId]) -> Set[ElementId]:
        """Union of the given sets' members."""
        covered: Set[ElementId] = set()
        for set_id in set_ids:
            covered.update(self.set_members(set_id))
        return covered

    def is_cover(self, set_ids: Iterable[SetId]) -> bool:
        """``True`` iff the given sets jointly cover the whole universe."""
        return len(self.coverage_of(set_ids)) == self._n

    def uncovered_by(self, set_ids: Iterable[SetId]) -> Set[ElementId]:
        """Elements *not* covered by the given sets."""
        covered = self.coverage_of(set_ids)
        return {u for u in range(self._n) if u not in covered}

    # -- restriction / derived instances -----------------------------------

    def restrict_to_sets(self, set_ids: Sequence[SetId], name: str = "") -> "SetCoverInstance":
        """New instance keeping only the given sets (same universe)."""
        return SetCoverInstance(
            self._n,
            (self.set_members(s) for s in set_ids),
            name=name or f"{self.name}|restricted",
        )

    def with_extra_sets(
        self, extra: Iterable[Iterable[ElementId]], name: str = ""
    ) -> "SetCoverInstance":
        """New instance with ``extra`` sets appended after the existing ones."""
        combined: List[Iterable[ElementId]] = list(self._sets)
        combined.extend(extra)
        return SetCoverInstance(self._n, combined, name=name or f"{self.name}+extra")

    # -- dunder -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetCoverInstance):
            return NotImplemented
        return self._n == other._n and self._sets == other._sets

    def __hash__(self) -> int:
        return hash((self._n, tuple(self._sets)))

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"SetCoverInstance(n={self._n}, m={self.m}, "
            f"edges={self.num_edges}{label})"
        )


def instance_from_edges(
    n: int, m: int, edges: Iterable[Tuple[SetId, ElementId]], name: str = ""
) -> SetCoverInstance:
    """Build an instance of shape ``(n, m)`` from an edge list.

    Sets that receive no edges become empty sets; they are legal (an
    algorithm simply never sees them in the stream) but the instance
    must still be feasible overall if you intend to run cover checks.
    """
    members: Dict[SetId, Set[ElementId]] = {s: set() for s in range(m)}
    for set_id, element in edges:
        if not 0 <= set_id < m:
            raise InvalidInstanceError(f"edge references set {set_id} >= m={m}")
        members[set_id].add(element)
    return SetCoverInstance(n, (members[s] for s in range(m)), name=name)
