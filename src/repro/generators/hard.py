"""Hard instances derived from the lower-bound machinery.

These workloads stress streaming algorithms in exactly the way the
Theorem-2 construction does: one "golden" large set hides among many
small partial sets with tiny pairwise intersections, so an algorithm
that cannot remember enough per-set signal is forced into a cover of
Ω̃(√(nt)) sets where OPT is 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set, Tuple

from repro.errors import ConfigurationError
from repro.lowerbound.family import PartitionedFamily, build_family
from repro.streaming.instance import SetCoverInstance
from repro.types import SeedLike, make_rng, shuffle


@dataclass(frozen=True)
class NeedleInstance:
    """A hard instance with a planted 2-set optimum.

    ``needle_set`` is the full Lemma-1 set ``T_j`` present as one set;
    ``complement_set`` is ``[n] \\ T_j``.  Together they are a cover of
    size 2; every other set is a small partial set that intersects the
    needle in O(log n) elements.
    """

    instance: SetCoverInstance
    needle_set: int
    complement_set: int

    @property
    def opt_upper_bound(self) -> int:
        """OPT is at most 2 by construction."""
        return 2


def needle_in_haystack(
    n: int,
    num_decoys: int,
    t: int = 4,
    seed: SeedLike = None,
) -> NeedleInstance:
    """Build the "needle" workload from a sampled Lemma-1 family.

    Parameters
    ----------
    n:
        Universe size.
    num_decoys:
        Number of small partial sets surrounding the needle.
    t:
        Partition arity of the underlying family (controls the needle
        size ``√(n·t)`` versus decoy size ``√(n/t)``).
    """
    if num_decoys < 1:
        raise ConfigurationError("need at least one decoy")
    rng = make_rng(seed)
    # Family of num_decoys//t + 2 sets: one supplies the needle, the
    # rest supply decoy parts.
    family_m = max(2, num_decoys // t + 2)
    family = build_family(n, family_m, t, seed=rng)

    needle_index = 0
    sets: List[Set[int]] = [set(family.full_set(needle_index))]
    decoys_added = 0
    for i in range(1, family.m):
        for r in range(family.t):
            if decoys_added >= num_decoys:
                break
            sets.append(set(family.parts[i][r]))
            decoys_added += 1
    complement = set(family.complement(needle_index))
    # Feasibility: any element in neither the needle/decoys nor the
    # complement is impossible by construction (complement covers all of
    # [n] minus the needle, and the needle covers itself).
    sets.append(complement)

    order = list(range(len(sets)))
    shuffle(rng, order)
    shuffled = [sets[i] for i in order]
    needle_id = order.index(0)
    complement_id = order.index(len(sets) - 1)
    instance = SetCoverInstance(
        n,
        shuffled,
        name=f"needle(n={n},decoys={decoys_added},t={t})",
    )
    return NeedleInstance(
        instance=instance, needle_set=needle_id, complement_set=complement_id
    )


def layered_hard_instance(
    n: int, layers: int, sets_per_layer: int, seed: SeedLike = None
) -> SetCoverInstance:
    """Geometrically shrinking coverage layers.

    Layer ``ℓ`` sets cover ~``n/2ˡ`` random elements; a good cover uses
    one set per layer (plus patching), but prefix-greedy strategies
    drown in layer-0 sets.  Exercises the level structure of the KK and
    Algorithm-2 inclusion rules across many levels.
    """
    if layers < 1 or sets_per_layer < 1:
        raise ConfigurationError("layers and sets_per_layer must be >= 1")
    rng = make_rng(seed)
    universe = list(range(n))
    sets: List[Set[int]] = []
    for layer in range(layers):
        size = max(1, n >> layer)
        for _ in range(sets_per_layer):
            sets.append(set(rng.sample(universe, min(size, n))))
    covered: Set[int] = set()
    for members in sets:
        covered.update(members)
    for u in range(n):
        if u not in covered:
            sets[rng.randrange(len(sets))].add(u)
    return SetCoverInstance(
        n, sets, name=f"layered(n={n},layers={layers},per={sets_per_layer})"
    )
