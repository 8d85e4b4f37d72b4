"""Uniform random set-cover instances.

Two classic random models:

* :func:`uniform_instance` — every (set, element) incidence present
  independently with probability ``p`` (an Erdős–Rényi bipartite graph).
* :func:`fixed_size_instance` — each set is a uniform random subset of a
  given size.

Both guarantee feasibility by post-passing over the universe and
injecting each uncovered element into a random set (documented, and
rarely triggered at sensible densities).
"""

from __future__ import annotations

import math
from typing import List, Optional, Set

from repro.errors import ConfigurationError
from repro.streaming.instance import SetCoverInstance
from repro.types import SeedLike, make_rng, shuffle


def uniform_instance(
    n: int,
    m: int,
    p: float,
    seed: SeedLike = None,
    name: str = "",
) -> SetCoverInstance:
    """Instance where element ``u ∈ S_i`` independently with probability ``p``.

    Feasibility fix-up: any element left in no set is added to one
    uniformly random set.
    """
    if not 0.0 < p <= 1.0:
        raise ConfigurationError(f"p must be in (0, 1], got {p}")
    rng = make_rng(seed)
    sets: List[Set[int]] = [set() for _ in range(m)]
    # Sample per set via geometric skips: O(p*n*m) expected work instead
    # of n*m coin flips.
    for members in sets:
        u = _first_success(rng, p)
        while u < n:
            members.add(u)
            u += 1 + _first_success(rng, p)
    _ensure_feasible(sets, n, rng)
    return SetCoverInstance(
        n, sets, name=name or f"uniform(n={n},m={m},p={p:g})"
    )


def fixed_size_instance(
    n: int,
    m: int,
    set_size: int,
    seed: SeedLike = None,
    name: str = "",
) -> SetCoverInstance:
    """Instance of ``m`` uniform random subsets of size ``set_size``."""
    if not 1 <= set_size <= n:
        raise ConfigurationError(
            f"set_size must be in [1, n={n}], got {set_size}"
        )
    rng = make_rng(seed)
    universe = list(range(n))
    sets: List[Set[int]] = [set(rng.sample(universe, set_size)) for _ in range(m)]
    _ensure_feasible(sets, n, rng)
    return SetCoverInstance(
        n, sets, name=name or f"fixed-size(n={n},m={m},k={set_size})"
    )


def quadratic_family(
    n: int,
    set_size: Optional[int] = None,
    density: float = 1.0,
    seed: SeedLike = None,
) -> SetCoverInstance:
    """An ``m = Θ(n²)`` random instance — the regime of Theorem 3.

    Theorem 3 requires ``m = Ω̃(n²)``; this helper builds
    ``m = ceil(density · n²)`` sets of size ``set_size`` (default √n,
    so a cover of ~√n·polylog sets exists whp and OPT is small).
    """
    if density <= 0:
        raise ConfigurationError(f"density must be positive, got {density}")
    m = max(1, math.ceil(density * n * n))
    if set_size is None:
        set_size = max(1, int(math.isqrt(n)))
    return fixed_size_instance(
        n, m, set_size, seed=seed, name=f"quadratic(n={n},m={m},k={set_size})"
    )


def two_tier_instance(
    n: int,
    num_small: int,
    num_big: int,
    small_size: int = 5,
    big_size: Optional[int] = None,
    seed: SeedLike = None,
) -> SetCoverInstance:
    """Many tiny decoy sets plus a few mid-size "relevant" sets.

    Designed to exercise Algorithm 1's inner machinery: the big sets
    carry coverage ~Θ̃(√n)-to-Θ(n) (default ``32·√n``) so they produce a
    counter signal, while the tiny sets inflate ``m`` so the epoch-0
    sample (≈ √n·log m sets, almost all tiny) cannot cover the universe
    on its own.  The special-set detection of A(1..K) has to find the
    big sets mid-stream.
    """
    if num_small < 1 or num_big < 1:
        raise ConfigurationError("need at least one small and one big set")
    rng = make_rng(seed)
    if big_size is None:
        big_size = min(n, 32 * max(1, math.isqrt(n)))
    big_size = min(big_size, n)
    small_size = min(max(1, small_size), n)
    universe = list(range(n))
    sets: List[Set[int]] = []
    for _ in range(num_small):
        sets.append(set(rng.sample(universe, small_size)))
    for _ in range(num_big):
        sets.append(set(rng.sample(universe, big_size)))
    shuffle(rng, sets)
    _ensure_feasible(sets, n, rng)
    return SetCoverInstance(
        n,
        sets,
        name=(
            f"two-tier(n={n},small={num_small}x{small_size},"
            f"big={num_big}x{big_size})"
        ),
    )


def _first_success(rng, p: float) -> int:
    """Number of failures before the first success of a Bernoulli(p)."""
    if p >= 1.0:
        return 0
    # Inverse-transform sample of the geometric distribution.
    u = rng.random()
    return int(math.log(max(u, 1e-300)) / math.log(1.0 - p))


def _ensure_feasible(sets: List[Set[int]], n: int, rng) -> None:
    """Add each uncovered element to one random set (in place)."""
    covered: Set[int] = set()
    for members in sets:
        covered.update(members)
    for u in range(n):
        if u not in covered:
            sets[rng.randrange(len(sets))].add(u)
