"""t-party Set-Disjointness instances (the source problem of Theorem 2).

In one-way ``t``-party Set-Disjointness each party ``p`` holds
``S_p ⊆ [m]`` under the promise that the sets are either *pairwise
disjoint* or *uniquely intersecting* (one common element, and every
pairwise intersection equals exactly that element).  Chakrabarti, Khot
and Sun [9] proved one-way communication Ω(m/t), hence some message of
size Ω(m/t²) — the quantitative engine of Theorem 2.

This module generates promise instances of both kinds, with explicit
seeds, for the end-to-end reduction demo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.types import SeedLike, make_rng, shuffle


@dataclass(frozen=True)
class DisjointnessInstance:
    """A promise instance of one-way t-party Set-Disjointness.

    Attributes
    ----------
    m:
        Ground-set size; party sets live in ``range(m)``.
    sets:
        ``sets[p]`` is party ``p``'s set.
    intersecting_element:
        The unique common element if the instance is uniquely
        intersecting; ``None`` for pairwise-disjoint instances.
    """

    m: int
    sets: Tuple[FrozenSet[int], ...]
    intersecting_element: Optional[int]

    @property
    def t(self) -> int:
        """Number of parties."""
        return len(self.sets)

    @property
    def is_intersecting(self) -> bool:
        """Whether the promise case is "uniquely intersecting"."""
        return self.intersecting_element is not None

    def check_promise(self) -> None:
        """Raise :class:`ConfigurationError` unless the promise holds."""
        for p in range(self.t):
            for q in range(p + 1, self.t):
                inter = self.sets[p] & self.sets[q]
                if self.intersecting_element is None:
                    if inter:
                        raise ConfigurationError(
                            f"parties {p},{q} intersect in {sorted(inter)[:3]} "
                            "but instance claims pairwise disjoint"
                        )
                else:
                    if inter != {self.intersecting_element}:
                        raise ConfigurationError(
                            f"parties {p},{q} intersect in {sorted(inter)[:3]}, "
                            f"expected exactly {{{self.intersecting_element}}}"
                        )


def disjoint_instance(
    m: int, t: int, set_size: int, seed: SeedLike = None
) -> DisjointnessInstance:
    """Pairwise-disjoint promise instance: parties get disjoint slices."""
    _validate(m, t, set_size, need=t * set_size)
    rng = make_rng(seed)
    ground = list(range(m))
    shuffle(rng, ground)
    sets: List[FrozenSet[int]] = []
    for p in range(t):
        chunk = ground[p * set_size : (p + 1) * set_size]
        sets.append(frozenset(chunk))
    return DisjointnessInstance(m=m, sets=tuple(sets), intersecting_element=None)


def intersecting_instance(
    m: int, t: int, set_size: int, seed: SeedLike = None
) -> DisjointnessInstance:
    """Uniquely-intersecting instance: disjoint slices plus one shared element."""
    if set_size < 1:
        raise ConfigurationError("set_size must be >= 1")
    _validate(m, t, set_size, need=t * (set_size - 1) + 1)
    rng = make_rng(seed)
    ground = list(range(m))
    shuffle(rng, ground)
    shared = ground[0]
    rest = ground[1:]
    sets: List[FrozenSet[int]] = []
    per_party = set_size - 1
    for p in range(t):
        chunk = rest[p * per_party : (p + 1) * per_party]
        sets.append(frozenset(chunk) | {shared})
    return DisjointnessInstance(
        m=m, sets=tuple(sets), intersecting_element=shared
    )


def random_promise_instance(
    m: int, t: int, set_size: int, seed: SeedLike = None
) -> DisjointnessInstance:
    """A uniformly random choice between the two promise cases."""
    rng = make_rng(seed)
    if rng.random() < 0.5:
        return disjoint_instance(m, t, set_size, seed=rng)
    return intersecting_instance(m, t, set_size, seed=rng)


def _validate(m: int, t: int, set_size: int, need: int) -> None:
    if t < 2:
        raise ConfigurationError(f"need at least 2 parties, got {t}")
    if set_size < 1:
        raise ConfigurationError(f"set_size must be >= 1, got {set_size}")
    if need > m:
        raise ConfigurationError(
            f"ground set m={m} too small for t={t} parties with sets of "
            f"size {set_size} (need {need})"
        )
