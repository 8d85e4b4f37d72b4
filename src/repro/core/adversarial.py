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

The pass is a batched kernel.  Line 18's coins come from one
:class:`~repro.core.base.CoinTape` in stream order; each window of a
chunk masks the edges that flip one (element uncovered, no earlier hit
by a set of ``⋃ D_i``), and only the promoting draws and the first hits
are walked in Python, with every charged write per item and in stream
order.  An inclusion invalidates the window's masks, so the scan
restarts just past it, as in :mod:`repro.core.kk`.  The per-edge loop
is kept in ``tests/adversarial_reference.py``; covers, certificates,
space reports, traces and the RNG state after a run equal its own.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set

import numpy as np

from repro.core.base import (
    CoinTape,
    FirstSetStore,
    StreamingSetCoverAlgorithm,
    check_alpha,
    uniforms,
)
from repro.core.solution import StreamingResult
from repro.obs import events as obs_events
from repro.streaming.space import (
    ChargedSet,
    DeferredCharges,
    SpaceBudget,
    words_for_set,
)
from repro.streaming.stream import EdgeStream
from repro.types import ElementId, SeedLike, SetId

#: Edges consumed per vectorized batch (see :mod:`repro.core.kk`).
_CHUNK = 8192

#: Scan-window size right after an inclusion; it regrows ×4 per
#: inclusion-free window.
_RESCAN_WINDOW = 2048


class LowSpaceAdversarialAlgorithm(StreamingSetCoverAlgorithm):
    """Level-based α-approximation for edge-arrival set cover (Algorithm 2).

    Parameters
    ----------
    alpha:
        Target approximation parameter; the theorem requires
        ``α ≥ 2√n`` for the space bound (we accept any finite ``α ≥ 1``
        but the guarantee is only the paper's in the stated regime).
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
        self.alpha = check_alpha(alpha)

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

        # Line 6: sample D0 up-front at rate p0 = alpha/m, one draw per
        # set id in ascending order (m draws; none when p0 = 1).
        p0 = self.inclusion_probability(0, n, m)
        d0: Set[SetId] = (
            set(np.flatnonzero(uniforms(self._rng, m) < p0).tolist())
            if p0 < 1.0
            else set(range(m))
        )
        partial_cover: Set[SetId] = ChargedSet(
            meter, "partial-cover", words_per_entry=1, iterable=d0
        )

        # ``levels`` (two words a set) and ``covered`` (one an element)
        # grow one item at a time; their charges are deferred, and
        # settled before every other meter access.
        levels: Dict[SetId, int] = {}
        covered: Set[ElementId] = set()
        charges = DeferredCharges(meter, ("levels", "covered"))
        settle = charges.settle
        grow = charges.grow
        certificate: Dict[ElementId, SetId] = {}
        first_sets = FirstSetStore(meter, universe_size=n)
        self._register_salvage(cover=partial_cover, certificate=certificate)

        promotions = 0
        max_level = 0
        promote_p = 1.0 / self.alpha
        # At α = 1 every coin of line 18 lands without a draw.
        promote_draws = promote_p < 1.0
        # Line 20's p_ℓ, computed once per level reached.
        level_p: List[float] = [p0]

        # Masks of the state that decides which edges draw: both only
        # grow, so masks taken at a window's start stay sound until the
        # window's first inclusion.
        covered_mask = np.zeros(n, dtype=bool)
        cover_mask = np.zeros(m, dtype=bool)
        cover_mask[sorted(d0)] = True
        positions = np.arange(_CHUNK, dtype=np.int64)
        tracer = self._tracer
        tracing = tracer.enabled
        # The tape's cursor sits at the current window's start; within a
        # window, ``settled`` draws and ``flips`` coins are spent through
        # the last edge walked.  Both are brought up to date before every
        # charged write, so if one raises, the ``finally`` block leaves
        # the RNG and the COIN_FLIP count where the per-edge loop would.
        tape = CoinTape(self._rng)
        settled = flips = 0
        # The window's draws from its start, and the offsets of those
        # below 1/α (the promoting ones), in order.
        draws = np.empty(0, dtype=np.float64)
        promoting: List[int] = []

        def read_ahead(size: int) -> None:
            """Hold ``size`` of the window's draws; index the new promoting ones."""
            nonlocal draws
            held = len(draws)
            draws = tape.peek(size)
            if promote_draws:
                promoting.extend(
                    (np.flatnonzero(draws[held:] < promote_p) + held).tolist()
                )

        reader = stream.reader()
        try:
            while reader.remaining:
                settle()
                set_ids, elements = reader.take_columns(_CHUNK)
                first_sets.observe_columns(set_ids, elements)
                chunk_len = len(elements)
                pos = 0
                window = chunk_len
                while pos < chunk_len:
                    stop = min(pos + window, chunk_len)
                    s_window = set_ids[pos:stop]
                    e_window = elements[pos:stop]
                    # An edge is alive if its element is uncovered and it
                    # comes no later than that element's first hit by a
                    # set of ⋃D: alive edges are exactly the ones that
                    # flip Coin(1/α) until the window's first inclusion.
                    alive_positions = np.flatnonzero(~covered_mask[e_window])
                    if not len(alive_positions):
                        pos = stop
                        window = min(window * 4, chunk_len)
                        continue
                    s_alive = s_window[alive_positions]
                    e_alive = e_window[alive_positions]
                    hit = cover_mask[s_alive]
                    if hit.any():
                        hit_at = np.flatnonzero(hit)
                        first_hit = np.full(n, len(hit), dtype=np.int64)
                        np.minimum.at(first_hit, e_alive[hit_at], hit_at)
                        keep = positions[: len(hit)] <= first_hit[e_alive]
                        alive_positions = alive_positions[keep]
                        s_alive = s_alive[keep]
                        e_alive = e_alive[keep]
                        hit = hit[keep]
                    alive_count = len(alive_positions)
                    # An alive edge of a set in ⋃D is its element's first
                    # hit; the sentinel closes the list.
                    hits = np.flatnonzero(hit).tolist()
                    hits.append(alive_count)
                    next_hit = 0

                    # Draw offsets count from the window's start.  Alive
                    # edge j's Coin(1/α) is draw j + shift, shift being
                    # the inclusion draws before it; only the promoting
                    # draws are walked.
                    shift = 0
                    inclusion_coins = 0  # Coin(p_ℓ) calls, drawn or not
                    draws = draws[:0]
                    promoting.clear()
                    if promote_draws:
                        read_ahead(alive_count + alive_count // 8 + 16)
                    next_promotion = 0
                    admitted = False
                    j = 0
                    while True:
                        promoted_at = j
                        if promote_draws:
                            # The first promoting draw at or after j's.
                            while True:
                                while (
                                    next_promotion < len(promoting)
                                    and promoting[next_promotion] < j + shift
                                ):
                                    next_promotion += 1
                                if (
                                    next_promotion < len(promoting)
                                    or len(draws) >= alive_count + shift
                                ):
                                    break
                                read_ahead(2 * (alive_count + shift))
                            promoted_at = (
                                promoting[next_promotion] - shift
                                if next_promotion < len(promoting)
                                else alive_count
                            )
                        j = min(promoted_at, hits[next_hit], alive_count)
                        if j == alive_count:
                            break
                        set_id = s_alive.item(j)
                        element = e_alive.item(j)
                        is_hit = j == hits[next_hit]
                        settled = (j + 1 if promote_draws else 0) + shift
                        flips = j + 1 + inclusion_coins
                        if j == promoted_at:
                            level = levels.get(set_id, 0) + 1
                            levels[set_id] = level
                            if level == 1:
                                grow(0, 2)
                            promotions += 1
                            if level > max_level:
                                max_level = level
                            if tracing:
                                tracer.event(
                                    obs_events.LEVEL_PROMOTED,
                                    set_id=set_id,
                                    level=level,
                                )
                            # An alive edge of a set in ⋃D is its
                            # element's first hit, and ⋃D grows only at
                            # the admission that ends the window.
                            if not is_hit:
                                if level == len(level_p):
                                    level_p.append(
                                        self.inclusion_probability(level, n, m)
                                    )
                                p = level_p[level]
                                inclusion_coins += 1
                                flips += 1
                                if 0.0 < p < 1.0:
                                    # The draw right after this edge's
                                    # Coin(1/α); later draws shift by one.
                                    if settled == len(draws):
                                        read_ahead(2 * settled + 16)
                                    admitted = bool(draws[settled] < p)
                                    shift += 1
                                    settled += 1
                                else:
                                    admitted = p >= 1.0
                        if admitted:
                            settle()
                            partial_cover.add(set_id)
                            cover_mask[set_id] = True
                            if tracing:
                                tracer.event(
                                    obs_events.SET_ADMITTED,
                                    set_id=set_id,
                                    level=level,
                                )
                        if is_hit or admitted:
                            # Alive, so not yet covered.
                            covered.add(element)
                            grow(1, 1)
                            covered_mask[element] = True
                            certificate[element] = set_id
                            if tracing:
                                tracer.count(obs_events.ELEMENT_COVERED)
                        if admitted:
                            break
                        if is_hit:
                            next_hit += 1
                        j += 1
                    if admitted:
                        # The inclusion invalidates the window-start masks;
                        # rescan just past it with a small window that
                        # regrows geometrically.
                        pos += alive_positions.item(j) + 1
                        window = _RESCAN_WINDOW
                    else:
                        settled = (alive_count if promote_draws else 0) + shift
                        flips = alive_count + inclusion_coins
                        pos = stop
                        window = min(window * 4, chunk_len)
                    tape.advance(settled)
                    if flips and tracing:
                        tracer.count(obs_events.COIN_FLIP, flips)
                    settled = flips = 0
        finally:
            tape.advance(settled)
            if flips and tracing:
                tracer.count(obs_events.COIN_FLIP, flips)
            tape.commit()
        settle()

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
