"""Instances with a *planted* optimal cover of known size.

Measuring approximation ratios needs a handle on OPT.  A planted
instance partitions the universe into ``opt_size`` blocks, makes each
block one "planted" set (so the planted sets are an exact cover of size
``opt_size``), and then adds ``m - opt_size`` decoy sets that are random
subsets.  OPT is therefore at most ``opt_size`` (and usually exactly
that, since decoys are small or overlapping); every experiment that
reports a ratio uses these instances or an exact solver.

The planted sets' ids are randomly interleaved with the decoys so that
algorithms cannot exploit id order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError
from repro.streaming.instance import SetCoverInstance
from repro.types import SeedLike, make_rng, shuffle


@dataclass(frozen=True)
class PlantedInstance:
    """A set-cover instance together with its planted optimum."""

    instance: SetCoverInstance
    planted_sets: Tuple[int, ...]

    @property
    def opt_upper_bound(self) -> int:
        """Size of the planted cover (an upper bound on OPT)."""
        return len(self.planted_sets)


def planted_partition_instance(
    n: int,
    m: int,
    opt_size: int,
    decoy_size: Optional[int] = None,
    seed: SeedLike = None,
    name: str = "",
) -> PlantedInstance:
    """Universe split into ``opt_size`` planted blocks plus random decoys.

    Parameters
    ----------
    n, m:
        Universe size and total number of sets (``m >= opt_size``).
    opt_size:
        Number of planted sets; they partition the universe so they are
        a cover of exactly this size.
    decoy_size:
        Size of each decoy set (default: ``n // opt_size``, matching the
        planted block size so decoys are individually as attractive).
    seed:
        RNG seed; also controls the id interleaving.
    """
    if opt_size < 1:
        raise ConfigurationError(f"opt_size must be >= 1, got {opt_size}")
    if opt_size > n:
        raise ConfigurationError(
            f"opt_size={opt_size} cannot exceed universe size n={n}"
        )
    if m < opt_size:
        raise ConfigurationError(
            f"m={m} must be at least opt_size={opt_size}"
        )
    rng = make_rng(seed)

    elements = list(range(n))
    shuffle(rng, elements)
    block_size = math.ceil(n / opt_size)
    blocks: List[Set[int]] = [
        set(elements[start : start + block_size])
        for start in range(0, n, block_size)
    ]
    # Rounding can produce fewer than opt_size non-empty blocks; split
    # the largest blocks until the count is exact.
    while len(blocks) < opt_size:
        blocks.sort(key=len, reverse=True)
        largest = sorted(blocks[0])
        half = len(largest) // 2
        if half == 0:
            raise ConfigurationError(
                f"cannot plant {opt_size} non-empty blocks in a universe of {n}"
            )
        blocks[0] = set(largest[:half])
        blocks.append(set(largest[half:]))

    if decoy_size is None:
        decoy_size = max(1, n // opt_size)
    decoy_size = min(decoy_size, n)
    universe = list(range(n))
    decoys: List[Set[int]] = [
        set(rng.sample(universe, decoy_size)) for _ in range(m - opt_size)
    ]

    all_sets: List[Set[int]] = blocks + decoys
    order = list(range(m))
    shuffle(rng, order)
    shuffled = [all_sets[i] for i in order]
    planted_ids = tuple(sorted(order.index(i) for i in range(opt_size)))

    instance = SetCoverInstance(
        n,
        shuffled,
        name=name or f"planted(n={n},m={m},opt={opt_size})",
    )
    return PlantedInstance(instance=instance, planted_sets=planted_ids)


def disjoint_blocks_with_noise(
    n: int,
    opt_size: int,
    decoys_per_block: int,
    noise_overlap: float = 0.5,
    seed: SeedLike = None,
) -> PlantedInstance:
    """Planted cover plus decoys that each straddle two planted blocks.

    The decoys are engineered to *look* useful in a stream prefix (they
    overlap ``noise_overlap`` of two different blocks) while being
    strictly worse than the planted sets — a workload on which greedy
    approaches pay and the probabilistic inclusion rules shine.
    """
    if not 0.0 < noise_overlap <= 1.0:
        raise ConfigurationError(
            f"noise_overlap must be in (0, 1], got {noise_overlap}"
        )
    rng = make_rng(seed)
    base = planted_partition_instance(
        n, opt_size, opt_size, seed=rng, name="blocks-base"
    )
    blocks = [
        sorted(base.instance.set_members(s)) for s in base.planted_sets
    ]
    decoys: List[Set[int]] = []
    for b, block in enumerate(blocks):
        other = blocks[(b + 1) % len(blocks)]
        take_here = max(1, int(noise_overlap * len(block)))
        take_there = max(1, int(noise_overlap * len(other)))
        for _ in range(decoys_per_block):
            decoy = set(rng.sample(block, min(take_here, len(block))))
            decoy.update(rng.sample(other, min(take_there, len(other))))
            decoys.append(decoy)

    all_sets = [set(block) for block in blocks] + decoys
    order = list(range(len(all_sets)))
    shuffle(rng, order)
    shuffled = [all_sets[i] for i in order]
    planted_ids = tuple(sorted(order.index(i) for i in range(opt_size)))
    instance = SetCoverInstance(
        n,
        shuffled,
        name=f"blocks+noise(n={n},opt={opt_size},decoys={len(decoys)})",
    )
    return PlantedInstance(instance=instance, planted_sets=planted_ids)
