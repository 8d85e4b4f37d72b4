"""Cover solutions and certificates produced by streaming algorithms.

The paper requires algorithms to output both a cover ``T ⊆ S`` and a
*cover certificate* ``C : U → T`` naming, for each element, a set in the
cover that contains it (Section 1).  :class:`StreamingResult` bundles
both together with the space report and per-run diagnostics, and knows
how to verify itself against the ground-truth instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Dict, FrozenSet, Mapping, Optional, Set

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
    every witness contains its element.  Messages start with ``label``.
    With ``uncovered`` (quorum-degraded runs) totality relaxes to
    *accounted-for* totality: an element without a witness must appear
    in ``uncovered`` — a silently missing element still fails.
    """
    for u in range(instance.n):
        if u not in certificate:
            if uncovered is None:
                raise InvalidCoverError(f"{label}: element {u} has no witness")
            if u in uncovered:
                continue
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
        if not instance.contains(witness, u):
            raise InvalidCoverError(
                f"{label}: set {witness} does not contain element {u}"
            )


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
