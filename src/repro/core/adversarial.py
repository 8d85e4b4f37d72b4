"""Algorithm 2: α-approximation with Õ(m·n/α²) space, adversarial order.

Theorem 4 of the paper.  For α = Ω̃(√n), a one-pass streaming algorithm
with *expected* approximation factor O(α·log m) using Õ(m·n/α²) space:

* Each set carries a *level*, initially 0.  Levels ≥ 1 are stored in a
  map ``L`` — the key trick: only the sets promoted at least once are
  stored, and only Õ(m·n/α²) sets ever reach level 1.
* When a tuple ``(S, u)`` arrives with ``u`` not yet covered, the level
  of ``S`` is incremented with probability ``1/α`` (line 18).
* When a set reaches level ``ℓ``, it is added to the partial cover
  ``D_ℓ`` with probability ``p_ℓ = α^(2ℓ+1)/(m·nˡ) = (α²/n)ˡ · p₀``
  where ``p₀ = α/m`` (line 20); ``D₀`` is sampled up-front at rate
  ``p₀`` (line 6).
* An element incident to any set in ``⋃ D_i`` is marked covered with
  that witness (lines 22–24); remaining elements are patched with the
  first set seen to contain them (line 25).

This is an improvement over the KK-algorithm in the α = Ω̃(√n) regime:
the KK-algorithm stores a counter per set (Θ(m) words) whereas here the
level map stays at Õ(m·n/α²) words.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Set

import numpy as np

from repro.core.base import FirstSetStore, StreamingSetCoverAlgorithm
from repro.core.solution import StreamingResult
from repro.errors import ConfigurationError
from repro.obs import events as obs_events
from repro.streaming.space import ChargedDict, ChargedSet, SpaceBudget, words_for_set
from repro.streaming.stream import EdgeStream
from repro.types import ElementId, SeedLike, SetId

#: Edges consumed per vectorized batch (see :mod:`repro.core.kk`).
_CHUNK = 8192


class LowSpaceAdversarialAlgorithm(StreamingSetCoverAlgorithm):
    """Level-based α-approximation for edge-arrival set cover (Algorithm 2).

    Parameters
    ----------
    alpha:
        Target approximation parameter; the theorem requires
        ``α ≥ 2√n`` for the space bound (we accept any ``α ≥ 1`` but the
        guarantee is only the paper's in the stated regime).
    seed, space_budget:
        As in :class:`StreamingSetCoverAlgorithm`.
    """

    name = "adversarial-low-space"

    def __init__(
        self,
        alpha: float,
        seed: SeedLike = None,
        space_budget: Optional[SpaceBudget] = None,
    ) -> None:
        super().__init__(seed=seed, space_budget=space_budget)
        if alpha < 1:
            raise ConfigurationError(f"alpha must be >= 1, got {alpha}")
        self.alpha = float(alpha)

    def inclusion_probability(self, level: int, n: int, m: int) -> float:
        """``p_ℓ = α^(2ℓ+1) / (m·nˡ)`` capped at 1 (line 20)."""
        if level == 0:
            return min(1.0, self.alpha / m)
        # Computed in log space: for large levels the raw power overflows.
        log_p = (2 * level + 1) * math.log(self.alpha) - math.log(m) - level * math.log(n)
        if log_p >= 0:
            return 1.0
        return math.exp(log_p)

    def _run(self, stream: EdgeStream) -> StreamingResult:
        n = stream.instance.n
        m = stream.instance.m
        meter = self._meter

        # Line 6: sample D0 up-front at rate p0 = alpha/m, one coin per
        # set id in ascending order (m draws; none when p0 = 1).
        p0 = self.inclusion_probability(0, n, m)
        d0: Set[SetId] = {
            set_id for set_id in range(m) if self._rng.random() < p0
        } if p0 < 1.0 else set(range(m))
        partial_cover: Set[SetId] = ChargedSet(
            meter, "partial-cover", words_per_entry=1, iterable=d0
        )

        levels: Dict[SetId, int] = ChargedDict(
            meter, "levels", words_per_entry=2, charge_initial=False
        )
        covered: Set[ElementId] = ChargedSet(
            meter, "covered", words_per_entry=1, charge_initial=False
        )
        certificate: Dict[ElementId, SetId] = {}
        first_sets = FirstSetStore(meter, universe_size=n)
        self._register_salvage(cover=partial_cover, certificate=certificate)

        promotions = 0
        max_level = 0
        promote_p = 1.0 / self.alpha

        # Vectorized pre-filter: an element covered at chunk start stays
        # covered (nothing in this algorithm shrinks), and covered
        # elements draw no coins, so bulk-skipping them preserves both
        # the RNG sequence and every meter charge.
        covered_mask = np.zeros(n, dtype=bool)

        reader = stream.reader()
        while reader.remaining:
            set_ids, elements = reader.take_columns(_CHUNK)
            first_sets.observe_columns(set_ids, elements)
            interesting = np.nonzero(~covered_mask[elements])[0]
            if not len(interesting):
                continue
            for set_id, element in zip(
                set_ids[interesting].tolist(), elements[interesting].tolist()
            ):
                if element in covered:
                    continue

                if self._coin(promote_p):
                    level = levels.get(set_id, 0) + 1
                    levels[set_id] = level
                    promotions += 1
                    if level > max_level:
                        max_level = level
                    self._trace(
                        obs_events.LEVEL_PROMOTED, set_id=set_id, level=level
                    )
                    if set_id not in partial_cover and self._coin(
                        self.inclusion_probability(level, n, m)
                    ):
                        partial_cover.add(set_id)
                        self._trace(
                            obs_events.SET_ADMITTED, set_id=set_id, level=level
                        )

                if set_id in partial_cover:
                    covered.add(element)
                    covered_mask[element] = True
                    certificate[element] = set_id
                    self._trace_count(obs_events.ELEMENT_COVERED)

        cover = set(partial_cover)
        patched = first_sets.patch(certificate, cover, n)
        self._trace(obs_events.PATCH_APPLIED, patched=patched)
        # Output pruning: drop sets from ⋃ D_i that never witnessed an
        # element — they contribute nothing to coverage, and pruning
        # guarantees cover_size ≤ n.
        cover = set(certificate.values())
        meter.set_component("cover", words_for_set(len(cover)))

        return StreamingResult(
            cover=frozenset(cover),
            certificate=certificate,
            space=meter.report(),
            algorithm=self.name,
            diagnostics={
                "alpha": self.alpha,
                "promotions": float(promotions),
                "max_level": float(max_level),
                "level_map_peak": float(meter.report().peak_of("levels")),
                "d0_size": float(len(d0)),
                "patched_elements": float(patched),
            },
        )
