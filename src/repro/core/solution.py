"""Cover solutions and certificates produced by streaming algorithms.

The paper requires algorithms to output both a cover ``T ⊆ S`` and a
*cover certificate* ``C : U → T`` naming, for each element, a set in the
cover that contains it (Section 1).  :class:`StreamingResult` bundles
both together with the space report and per-run diagnostics, and knows
how to verify itself against the ground-truth instance.  It also holds
:func:`greedy_picks`, the one plain offline greedy every offline phase
and baseline runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

import numpy as np

from repro.errors import InvalidCoverError
from repro.streaming.instance import SetCoverInstance
from repro.streaming.space import SpaceReport
from repro.types import ElementId, SetId


@dataclass
class StreamingResult:
    """Output of one streaming-algorithm run.

    Attributes
    ----------
    cover:
        Ids of the sets forming the output cover.
    certificate:
        ``element -> set`` witness map; every universe element must be
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
    certificate: Dict[ElementId, SetId]
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
    elements = np.fromiter(certificate, dtype=np.int64, count=len(certificate))
    witnesses = np.fromiter(
        certificate.values(), dtype=np.int64, count=len(certificate)
    )
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
    """Build a certificate for ``cover`` by scanning the instance.

    Intended for *offline* baselines (greedy et al.) where building the
    witness map after the fact is legitimate; streaming algorithms must
    construct certificates during their pass.
    """
    certificate: Dict[ElementId, SetId] = {}
    for set_id in sorted(cover):
        for element in instance.set_members(set_id):
            certificate.setdefault(element, set_id)
    missing = [u for u in range(instance.n) if u not in certificate]
    if missing:
        raise InvalidCoverError(
            f"cover of size {len(cover)} leaves {len(missing)} element(s) "
            f"uncovered (e.g. {missing[:5]})"
        )
    return certificate


GreedyPick = Tuple[SetId, int, List[ElementId]]
"""One offline-greedy pick: ``(set_id, gain, covered_elements_sorted)``."""


def greedy_picks(
    projections: Mapping[SetId, AbstractSet[ElementId]],
    uncovered: AbstractSet[ElementId],
) -> Iterator[GreedyPick]:
    """Plain offline greedy: yield its picks over ``projections``, in order.

    Each pick is the set covering the most still-``uncovered`` elements;
    the loop stops once no set adds anything.  Membership entries live
    in two flat ``int64`` columns (set index, element id) and each pick
    is one ``bincount`` over the still-uncovered entries plus an
    ``argmax``.  ``argmax`` returns the *first* index achieving the
    maximum and set indices follow ``projections`` order, so ties break
    to the earliest-stored set (callers that want the smallest id pass
    ids ascending).  Entries of covered elements and picked sets are
    dropped as the loop proceeds, so each round costs O(live entries),
    not O(m·n).  Elements are universe ids: the uncovered mask is dense
    up to the largest member.  ``uncovered`` is read once, before the
    first pick, so a caller may shrink it as the picks arrive.
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
    set_idx = np.asarray(flat_sets, dtype=np.int64)
    elems = np.asarray(flat_elems, dtype=np.int64)
    num_sets = len(set_list)
    size = int(elems.max()) + 1 if len(elems) else 1
    uncovered_mask = np.zeros(size, dtype=bool)
    for element in uncovered:
        if element < size:
            uncovered_mask[element] = True
    while True:
        keep = uncovered_mask[elems]
        if not keep.all():
            elems = elems[keep]
            set_idx = set_idx[keep]
        if not len(elems):
            return
        gains = np.bincount(set_idx, minlength=num_sets)
        best = int(np.argmax(gains))
        best_gain = int(gains[best])
        if best_gain == 0:
            return
        chosen = set_idx == best
        covered_elements = elems[chosen]
        uncovered_mask[covered_elements] = False
        elems = elems[~chosen]
        set_idx = set_idx[~chosen]
        yield set_list[best], best_gain, sorted(covered_elements.tolist())
