"""The KK-algorithm: Õ(√n)-approximation with Õ(m) space (Theorem 1).

Reimplemented from this paper's Section 1.2 description of
[Khanna–Konrad, ITCS'22]:

* For every set ``S`` maintain an *uncovered-degree* counter ``d(S)``:
  each arriving tuple ``(S, u)`` with ``u`` not yet covered increments
  ``d(S)``.
* Whenever ``d(S)`` reaches ``i·√n`` for an integer ``i ≥ 1``, include
  ``S`` in the solution with probability ``2ⁱ·√n/m``; once included,
  ``S`` covers every one of its elements arriving from that moment on.
* Elements still uncovered at the end are patched with the first set
  observed to contain them (cost: one set per element, the same
  patching rule the paper's other algorithms use).

The analysis of [19] shows the level populations decay geometrically
(E|Sᵢ| ≤ ½ E|Sᵢ₋₁|), so each level contributes Õ(√n) sets and the
output is an Õ(√n)-approximation with high probability.  The counters
dominate the state: Θ(m) words — this is the space bound Theorem 2
proves optimal for α = Θ̃(√n) in adversarial order.

The implementation is a vectorized kernel.  Degrees live in one
``int64[m]`` array; each window of the stream is scanned with numpy
column ops (uncovered-mask prefilter, one ``bincount`` of the counting
edges' sets, degree application from that same count) and only the
*rare* events — level promotions and set inclusions — drop to Python.
A set can promote in a window only if its count there reaches its next
multiple of the level width, so only that set's edges (about 1 counting
edge in 15 on the ``solve`` benchmark stream) get per-set occurrence
ranks from a stable argsort; a window without such a set skips ranking
and the walk.  The walk reads each window's promotions as plain Python
ints (one ``tolist`` per column) and draws the coins one promotion at a
time, in stream order, from the same seeded RNG, so the randomness
stream is that of a per-edge loop.  An inclusion invalidates the
window's start masks, so the scan *restarts* just past the inclusion
edge with the not-yet-applied suffix state discarded, in a window sized
to the expected gap to the next inclusion; state mutations before the
inclusion point are applied exactly once.  Witnesses go
into a :class:`~repro.core.solution.CertificateBuilder` (two
preallocated ``int64[n]`` columns and a cursor), and the run returns
its :class:`~repro.core.solution.Certificate`.

The per-edge scalar loop it was vectorized from is the test oracle
``tests/kk_reference.py``; ``tests/test_core_kk_equivalence.py`` proves
the two produce byte-identical covers, certificates, diagnostics, space
reports, and traces on instance × order × seed grids.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

import numpy as np

from repro.core.base import (
    FirstSetStore,
    StreamingSetCoverAlgorithm,
    check_probability,
)
from repro.core.scaling import Scaling
from repro.core.solution import CertificateBuilder, StreamingResult
from repro.obs import events as obs_events
from repro.streaming.space import SpaceBudget, words_for_set
from repro.streaming.stream import EdgeStream
from repro.types import SeedLike, SetId

#: Edges consumed per vectorized batch; large enough to amortize numpy
#: per-call overhead, small enough that the post-inclusion rescan of a
#: chunk suffix stays cheap relative to the chunk itself.
_CHUNK = 16384

#: Smallest scan window.  An inclusion invalidates the masks for
#: everything scanned past it, so work beyond the inclusion point is
#: discarded; on inclusion-dense streams a full-chunk rescan per
#: inclusion would go quadratic.  After an inclusion the next window is
#: sized to the expected gap to the next one, ``1.5 / (p·ρ)`` edges for
#: the inclusion probability ``p`` at the level just reached and the
#: promotion rate ``ρ`` (promotions per edge) since the previous
#: inclusion, floored here and capped at ``_CHUNK``; an inclusion-free
#: window doubles.  The rate is taken over the last gap, not the whole
#: run, because promotions start only once degrees reach the level
#: width and then come at several times their run-long rate.  Window
#: boundaries are semantically identical to chunk boundaries — the
#: masks are recomputed from monotone state — so the partition does not
#: affect the output.
_MIN_WINDOW = 64


def _occurrence_ranks(
    values: np.ndarray,
    value_bound: int = 0,
    positions: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-position occurrence rank of each value (1-based, stream order).

    ``values[i]``'s rank is the number of times that value has appeared
    in ``values[: i + 1]`` — exactly the increment sequence a per-value
    counter would see scanning left to right.  O(k log k) via a stable
    argsort groupby instead of a Python loop: in sorted order, a value's
    first position is found with one ``searchsorted``.  When
    ``value_bound`` (an exclusive upper bound on the values, e.g. ``m``
    for set ids) fits in 16 bits, the sort key is narrowed to
    ``uint16`` so numpy takes its radix path — ~8x faster than
    comparison-sorting ``int64`` and identical output, since the
    narrowing is injective.  ``positions`` may pass a prebuilt ``int64``
    ``arange`` at least as long as ``values`` (the kernel's chunk
    positions), saving one allocation per call.
    """
    k = len(values)
    if not k:
        return np.empty(0, dtype=np.int64)
    sort_key = (
        values.astype(np.uint16)
        if 0 < value_bound <= (1 << 16)
        else values
    )
    order = sort_key.argsort(kind="stable")
    sorted_values = values[order]
    positions = np.arange(k, dtype=np.int64) if positions is None else positions[:k]
    ranks = np.empty(k, dtype=np.int64)
    ranks[order] = positions - sorted_values.searchsorted(sorted_values) + 1
    return ranks


class KKAlgorithm(StreamingSetCoverAlgorithm):
    """One-pass edge-arrival set cover with uncovered-degree counters.

    The vectorized kernel (see the module docstring for the layout and
    the restart-on-inclusion discipline).  Byte-identical in output and
    trace to the per-edge scalar loop in ``tests/kk_reference.py``.

    Parameters
    ----------
    scaling:
        Constant pack; only :meth:`Scaling.kk_level_width` and
        :meth:`Scaling.kk_inclusion_probability` are consulted.
    seed:
        RNG seed for the probabilistic inclusion rule.
    space_budget:
        Optional hard cap in words (tests use this to certify the
        Õ(m) bound).
    """

    name = "kk"

    def __init__(
        self,
        scaling: Optional[Scaling] = None,
        seed: SeedLike = None,
        space_budget: Optional[SpaceBudget] = None,
    ) -> None:
        super().__init__(seed=seed, space_budget=space_budget)
        self.scaling = scaling if scaling is not None else Scaling.practical()

    def _run(self, stream: EdgeStream) -> StreamingResult:
        n = stream.instance.n
        m = stream.instance.m
        scaling = self.scaling
        level_width = scaling.kk_level_width(n)

        meter = self._meter
        # Flat kernel state.  The scalar reference keeps these in charged
        # containers that bill the meter per mutation; every component
        # here only ever grows, so billing the same counts once per chunk
        # yields the identical peak and breakdown (peak == final state).
        degrees = np.zeros(m, dtype=np.int64)
        uncovered_mask = np.ones(n, dtype=bool)
        cover_mask = np.zeros(m, dtype=bool)
        cover: Set[SetId] = set()
        certificate = CertificateBuilder(n)
        first_sets = FirstSetStore(meter, universe_size=n)
        self._register_salvage(cover=cover, certificate=certificate)

        covered_count = 0
        degree_entries = 0
        max_level_reached = 0
        inclusion_events = 0
        tracer = self._tracer
        tracing = tracer.enabled
        draw = self._rng.random
        # Level -> inclusion probability, computed (and checked finite)
        # once per run at the level's first promotion.
        level_p: Dict[int, float] = {}
        # The scan window, carried across chunks, and what sizes it
        # after an inclusion: the promotions walked and the edges
        # applied since the previous one.
        window = _CHUNK
        promotions = 0
        applied = 0

        reader = stream.reader()
        while reader.remaining:
            set_ids, elements = reader.take_columns(_CHUNK)
            first_sets.observe_columns(set_ids, elements)
            chunk_len = len(elements)
            chunk_positions = np.arange(chunk_len, dtype=np.int64)
            pos = 0
            while pos < chunk_len:
                stop = min(pos + window, chunk_len)
                s_suffix = set_ids[pos:stop]
                e_suffix = elements[pos:stop]
                suffix_len = stop - pos
                # Window-start masks: an edge whose element is already
                # covered is a guaranteed no-op for the whole scan.
                alive = uncovered_mask[e_suffix]
                if not np.count_nonzero(alive):
                    applied += suffix_len
                    pos = stop
                    window = min(window * 2, _CHUNK)
                    continue
                in_cover = cover_mask[s_suffix]

                # Hits: an included set covers its later elements.  Only
                # the *first* hit of each element is the witness; later
                # edges of that element are dead.
                hit_positions = (alive & in_cover).nonzero()[0]
                counting_mask = alive > in_cover
                first_hit: Optional[np.ndarray] = None
                if hit_positions.size:
                    first_hit = np.full(n, suffix_len, dtype=np.int64)
                    np.minimum.at(first_hit, e_suffix[hit_positions], hit_positions)
                    # An edge after its element's first hit no longer
                    # increments its set's counter.
                    counting_mask &= (
                        chunk_positions[:suffix_len] < first_hit[e_suffix]
                    )

                counting_positions = counting_mask.nonzero()[0]
                included_at = -1
                inclusion_probability = 0.0
                inclusion_level = 0
                counts: Optional[np.ndarray] = None
                if counting_positions.size:
                    counting_sets = s_suffix[counting_positions]
                    counts = np.bincount(counting_sets, minlength=m)
                    base = degrees[counting_sets]
                    # Candidates: an edge can reach a level only if its
                    # set's count c in this window reaches the next
                    # multiple of level_width, c ≥ w − d % w, i.e.
                    # (d + c) // w > d // w (numpy divides int64 by a
                    # scalar several times faster than it takes %).
                    # Every occurrence of a candidate set is a
                    # candidate, so ranking them alone gives their
                    # full-window ranks, and the promotions stay in
                    # stream order.
                    candidates = (
                        (base + counts[counting_sets]) // level_width
                        > base // level_width
                    ).nonzero()[0]
                    if candidates.size:
                        candidate_sets = counting_sets[candidates]
                        new_degrees = base[candidates] + _occurrence_ranks(
                            candidate_sets, m, chunk_positions
                        )
                        promoted = (new_degrees % level_width == 0).nonzero()[0]
                        # Promotions are rare (≤ one per level_width
                        # counting edges); walk them in stream order so
                        # coin draws consume the RNG exactly as the
                        # scalar loop does.
                        for j, set_id, degree in zip(
                            candidates[promoted].tolist(),
                            candidate_sets[promoted].tolist(),
                            new_degrees[promoted].tolist(),
                        ):
                            promotions += 1
                            level = degree // level_width
                            if level > max_level_reached:
                                max_level_reached = level
                            if tracing:
                                tracer.event(
                                    obs_events.LEVEL_PROMOTED,
                                    set_id=set_id,
                                    level=level,
                                )
                            p = level_p.get(level)
                            if p is None:
                                p = level_p[level] = check_probability(
                                    scaling.kk_inclusion_probability(level, n, m)
                                )
                            # Coin(p), as StreamingSetCoverAlgorithm._coin
                            # draws it.
                            if tracing:
                                tracer.count(obs_events.COIN_FLIP)
                            if p >= 1.0 or (p > 0.0 and draw() < p):
                                included_at = j
                                inclusion_probability = p
                                inclusion_level = level
                                break

                if included_at >= 0:
                    inclusion_pos = counting_positions.item(included_at)
                    # Apply exactly the state the scalar loop would have
                    # built before this edge: counter increments for the
                    # counting prefix (inclusive) and witnesses for hits
                    # strictly before the inclusion edge.
                    degrees += np.bincount(
                        counting_sets[: included_at + 1], minlength=m
                    )
                    if first_hit is not None:
                        covered_count += self._apply_hits(
                            s_suffix,
                            e_suffix,
                            hit_positions,
                            first_hit,
                            inclusion_pos,
                            uncovered_mask,
                            certificate,
                            tracer,
                        )
                    set_id = s_suffix.item(inclusion_pos)
                    element = e_suffix.item(inclusion_pos)
                    cover.add(set_id)
                    cover_mask[set_id] = True
                    inclusion_events += 1
                    uncovered_mask[element] = False
                    covered_count += 1
                    certificate.add(element, set_id)
                    if tracing:
                        tracer.event(
                            obs_events.SET_ADMITTED,
                            set_id=set_id,
                            level=inclusion_level,
                            probability=inclusion_probability,
                        )
                        tracer.count(obs_events.ELEMENT_COVERED)
                    # The inclusion invalidates the window-start masks for
                    # everything after it; rescan just past the inclusion
                    # edge with a window of about the expected gap to the
                    # next inclusion.
                    pos += inclusion_pos + 1
                    applied += inclusion_pos + 1
                    gap = 1.5 * applied / (inclusion_probability * promotions)
                    window = int(min(max(gap, _MIN_WINDOW), _CHUNK))
                    promotions = applied = 0
                else:
                    if counts is not None:
                        degrees += counts
                    if first_hit is not None:
                        covered_count += self._apply_hits(
                            s_suffix,
                            e_suffix,
                            hit_positions,
                            first_hit,
                            suffix_len,
                            uncovered_mask,
                            certificate,
                            tracer,
                        )
                    applied += suffix_len
                    pos = stop
                    window = min(window * 2, _CHUNK)

            # Per-chunk meter reconciliation.  All components grow
            # monotonically, so charging the same final counts the scalar
            # containers reach gives the identical peak and breakdown;
            # components are only created once genuinely non-empty,
            # matching the charged containers' lazy registration.
            nonzero = int(np.count_nonzero(degrees))
            if nonzero != degree_entries:
                degree_entries = nonzero
                meter.set_component("degree-counters", 2 * nonzero)
            if covered_count:
                meter.set_component("covered", covered_count)
            if cover:
                meter.set_component("cover", words_for_set(len(cover)))

        patched = first_sets.patch(certificate, cover, n)
        self._trace(obs_events.PATCH_APPLIED, patched=patched)
        meter.set_component("cover", words_for_set(len(cover)))

        return StreamingResult(
            cover=frozenset(cover),
            certificate=certificate.build(),
            space=meter.report(),
            algorithm=self.name,
            diagnostics={
                "max_level_reached": float(max_level_reached),
                "inclusion_events": float(inclusion_events),
                "patched_elements": float(patched),
                "level_width": float(level_width),
            },
        )

    @staticmethod
    def _apply_hits(
        s_suffix: np.ndarray,
        e_suffix: np.ndarray,
        hit_positions: np.ndarray,
        first_hit: np.ndarray,
        limit: int,
        uncovered_mask: np.ndarray,
        certificate: CertificateBuilder,
        tracer,
    ) -> int:
        """Commit first-hit witnesses at suffix positions ``< limit``.

        Returns the number of elements newly covered.  Positions at or
        past ``limit`` stay unapplied: the rescan after an inclusion
        re-derives them (the newly included set may now supply an
        earlier witness, exactly as the scalar loop would).
        """
        chosen = hit_positions[
            (hit_positions < limit)
            & (first_hit[e_suffix[hit_positions]] == hit_positions)
        ]
        if not chosen.size:
            return 0
        chosen_elements = e_suffix[chosen]
        uncovered_mask[chosen_elements] = False
        certificate.extend(chosen_elements, s_suffix[chosen])
        if tracer.enabled:
            tracer.count(obs_events.ELEMENT_COVERED, int(chosen.size))
        return int(chosen.size)
