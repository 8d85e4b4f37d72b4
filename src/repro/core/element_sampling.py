"""Element-sampling α-approximation with Õ(m·n/α) space (Table 1 row 1).

For α = o(√n), Assadi, Khanna and Li [4] showed Θ̃(m·n/α) space is
necessary and sufficient; [19]'s appendix observes their algorithm also
runs in the edge-arrival model.  This module implements the classic
element-sampling scheme achieving that upper bound:

* Sample a universe subset ``L`` up front, each element independently
  with probability ``p = C·log m / α`` (so ``|L| ≈ n·log m/α``).
* During the single pass, store the *projection* of every set onto
  ``L``: each edge ``(S, u)`` with ``u ∈ L`` is kept.  Expected stored
  edges ≈ ``N·p ≤ m·n·log m/α = Õ(m·n/α)`` — the space bound.
* Per element, cache the first ``O(log m)`` distinct sets seen to
  contain it (Õ(n) words) — the *witness cache*.
* After the pass, cover ``L`` offline (greedy on the projections).
  A non-sampled element whose witness cache intersects the chosen
  cover is certified for free; the rest are patched with their first
  seen set.

The element-sampling lemma gives the quality driver: any ℓ sets
covering the sample leave only Õ(ℓ·α) elements of the full universe
uncovered whp, so patching adds Õ(α)·OPT sets.  The witness cache is
the edge-arrival twist: in the set-arrival model of [4] a set's full
content is visible at arrival and certification is direct; in edge
arrival the cache supplies the membership facts (u ∈ S) the discarded
edges carried.  Elements covered by the greedy sets but only via edges
outside their cache window still fall back to patching, so the
realised constant is workload-dependent; the Θ̃(m·n/α) *space* scaling
is exact either way.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Set

import numpy as np

from repro.core.base import (
    FirstSetStore,
    StreamingSetCoverAlgorithm,
    check_alpha,
    uniforms,
)
from repro.core.solution import StreamingResult, greedy_picks
from repro.errors import ConfigurationError, InfeasibleInstanceError
from repro.obs import events as obs_events
from repro.streaming.space import ChargedSet, SpaceBudget, words_for_set
from repro.streaming.stream import EdgeStream
from repro.types import ElementId, SeedLike, SetId

#: Edges consumed per vectorized batch (see :mod:`repro.core.kk`).
_CHUNK = 8192


class ElementSamplingAlgorithm(StreamingSetCoverAlgorithm):
    """One-pass edge-arrival α-approximation via element sampling.

    Parameters
    ----------
    alpha:
        Target approximation parameter (the regime of interest is
        ``α = o(√n)``; any finite ``α ≥ 1`` is accepted).
    sample_constant:
        The ``C`` in ``p = C·log m/α``; larger C improves quality and
        costs proportionally more space.
    witness_cache_size:
        Per-element cap on cached containing sets; ``None`` uses the
        default ``⌈log₂ m⌉``, ``0`` disables the cache entirely (an
        ablation: every non-sampled element then falls back to
        first-fit patching).
    """

    name = "element-sampling"

    def __init__(
        self,
        alpha: float,
        sample_constant: float = 1.0,
        witness_cache_size: Optional[int] = None,
        seed: SeedLike = None,
        space_budget: Optional[SpaceBudget] = None,
    ) -> None:
        super().__init__(seed=seed, space_budget=space_budget)
        alpha = check_alpha(alpha)
        if sample_constant <= 0:
            raise ConfigurationError(
                f"sample_constant must be positive, got {sample_constant}"
            )
        if witness_cache_size is not None and witness_cache_size < 0:
            raise ConfigurationError(
                f"witness_cache_size must be >= 0, got {witness_cache_size}"
            )
        self.alpha = alpha
        self.sample_constant = float(sample_constant)
        self.witness_cache_size = witness_cache_size

    def sample_probability(self, m: int) -> float:
        """``p = C·log m / α``, capped at 1."""
        log_m = max(1.0, math.log2(max(2, m)))
        return min(1.0, self.sample_constant * log_m / self.alpha)

    def _run(self, stream: EdgeStream) -> StreamingResult:
        n = stream.instance.n
        m = stream.instance.m
        meter = self._meter

        p = self.sample_probability(m)
        sampled: Set[ElementId] = ChargedSet(
            meter,
            "sampled-universe",
            words_per_entry=1,
            iterable=np.flatnonzero(uniforms(self._rng, n) < p).tolist(),
        )

        projections: Dict[SetId, Set[ElementId]] = {}
        stored_edges = 0
        first_sets = FirstSetStore(meter, universe_size=n)
        cache_size = (
            self.witness_cache_size
            if self.witness_cache_size is not None
            else max(1, int(math.log2(max(2, m))))
        )
        witness_cache: Dict[ElementId, Set[SetId]] = {}
        # Mid-pass failures salvage the first-set witnesses gathered so
        # far; the offline phase re-registers the real cover below.
        self._register_salvage(certificate=first_sets.mapping)

        # Vectorized pre-filter: an edge is a guaranteed no-op once its
        # element's witness cache is full and the element is not sampled;
        # both conditions are monotone, so chunk-start masks are sound.
        sampled_mask = np.zeros(n, dtype=bool)
        for u in sampled:
            sampled_mask[u] = True
        cache_open = np.full(n, cache_size > 0, dtype=bool)

        reader = stream.reader()
        while reader.remaining:
            set_ids, elements = reader.take_columns(_CHUNK)
            first_sets.observe_columns(set_ids, elements)
            interesting = np.nonzero(
                cache_open[elements] | sampled_mask[elements]
            )[0]
            if not len(interesting):
                continue
            for set_id, element in zip(
                set_ids[interesting].tolist(), elements[interesting].tolist()
            ):
                if cache_size > 0:
                    cache = witness_cache.setdefault(element, set())
                    if len(cache) < cache_size and set_id not in cache:
                        cache.add(set_id)
                        meter.add_to_component("witness-cache", 1)
                        if len(cache) >= cache_size:
                            cache_open[element] = False
                if element in sampled:
                    members = projections.setdefault(set_id, set())
                    if element not in members:
                        members.add(element)
                        stored_edges += 1
                        meter.add_to_component("projections", 2)

        # Offline phase: greedy cover of the sampled universe using the
        # stored projections (elements of L never seen in the stream can
        # only exist if the instance is infeasible).
        seen_sampled: Set[ElementId] = set()
        for members in projections.values():
            seen_sampled |= members
        missing = sampled - seen_sampled
        if missing and any(
            first_sets.get(u) is None for u in missing
        ):
            raise InfeasibleInstanceError(
                f"{len(missing)} sampled element(s) never appeared in the "
                "stream"
            )

        cover: Set[SetId] = set()
        certificate: Dict[ElementId, SetId] = {}
        self._register_salvage(cover=cover, certificate=certificate)
        # Greedy over projections only — Õ(m·n/α) data, no second pass.
        with self._tracer.span(
            obs_events.SPAN_OFFLINE,
            sampled_elements=len(sampled),
            stored_edges=stored_edges,
        ):
            for best_set, best_gain, covered_now in greedy_picks(
                projections, seen_sampled
            ):
                cover.add(best_set)
                self._trace(
                    obs_events.SET_ADMITTED,
                    set_id=best_set,
                    phase="greedy",
                    gain=best_gain,
                )
                for u in covered_now:
                    certificate[u] = best_set
                    self._trace_count(obs_events.ELEMENT_COVERED)
                meter.set_component("cover", words_for_set(len(cover)))
            picked = len(cover)

            # Witness-cache certification: a non-sampled element whose cache
            # intersects the chosen cover costs nothing extra.
            cached_certifications = 0
            for u in range(n):
                if u in certificate:
                    continue
                hits = witness_cache.get(u, set()) & cover
                if hits:
                    certificate[u] = min(hits)
                    cached_certifications += 1
                    self._trace_count(obs_events.ELEMENT_COVERED)

        patched = first_sets.patch(certificate, cover, n)
        self._trace(obs_events.PATCH_APPLIED, patched=patched)
        meter.set_component("cover", words_for_set(len(cover)))
        # Output pruning, as for the paper's algorithms.
        cover = set(certificate.values())

        return StreamingResult(
            cover=frozenset(cover),
            certificate=certificate,
            space=meter.report(),
            algorithm=self.name,
            diagnostics={
                "alpha": self.alpha,
                "sample_probability": p,
                "sampled_elements": float(len(sampled)),
                "stored_projection_edges": float(stored_edges),
                "greedy_picks": float(picked),
                "cached_certifications": float(cached_certifications),
                "patched_elements": float(patched),
            },
        )
