"""Trivial streaming baselines: the floor of the quality spectrum.

* :class:`FirstFitAlgorithm` — cover every element with the first set
  seen to contain it.  Space Õ(n), approximation Θ(n) in the worst
  case; this is exactly the paper's patching rule run alone, so every
  paper algorithm's output is at least this good.
* :class:`UniformSampleAlgorithm` — sample sets at a fixed rate up
  front (epoch 0 of Algorithm 1 run alone) and patch the rest.  An
  ablation showing how much of Algorithm 1's quality the later phases
  contribute.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

import numpy as np

from repro.core.base import FirstSetStore, StreamingSetCoverAlgorithm, uniforms
from repro.core.solution import StreamingResult
from repro.errors import ConfigurationError
from repro.obs import events as obs_events
from repro.streaming.space import SpaceBudget, words_for_set
from repro.streaming.stream import EdgeStream
from repro.types import ElementId, SeedLike, SetId


class FirstFitAlgorithm(StreamingSetCoverAlgorithm):
    """Cover each element with the first set observed to contain it."""

    name = "first-fit"

    def _run(self, stream: EdgeStream) -> StreamingResult:
        first_sets = FirstSetStore(self._meter)
        self._register_salvage(certificate=first_sets.mapping)
        for set_id, element in stream:
            first_sets.observe(set_id, element)
        certificate: Dict[ElementId, SetId] = {}
        cover: Set[SetId] = set()
        patched = first_sets.patch(certificate, cover, stream.instance.n)
        self._trace(obs_events.PATCH_APPLIED, patched=patched)
        self._meter.set_component("cover", words_for_set(len(cover)))
        return StreamingResult(
            cover=frozenset(cover),
            certificate=certificate,
            space=self._meter.report(),
            algorithm=self.name,
            diagnostics={"patched_elements": float(patched)},
        )


class UniformSampleAlgorithm(StreamingSetCoverAlgorithm):
    """Sample each set up front with probability ``rate``, then patch.

    Sampled sets witness their elements as edges arrive; everything
    else is patched first-fit.  With ``rate = C·√n·log m/m`` this is
    Algorithm 1's epoch 0 in isolation.
    """

    name = "uniform-sample"

    def __init__(
        self,
        rate: float,
        seed: SeedLike = None,
        space_budget: Optional[SpaceBudget] = None,
    ) -> None:
        super().__init__(seed=seed, space_budget=space_budget)
        if not 0.0 <= rate <= 1.0:
            raise ConfigurationError(f"rate must be in [0, 1], got {rate}")
        self.rate = rate

    def _run(self, stream: EdgeStream) -> StreamingResult:
        m = stream.instance.m
        sampled: Set[SetId] = set(
            np.flatnonzero(uniforms(self._rng, m) < self.rate).tolist()
        )
        self._meter.set_component("sampled", words_for_set(len(sampled)))
        if self._tracer.enabled:
            for set_id in sorted(sampled):
                self._trace(
                    obs_events.SET_ADMITTED,
                    set_id=set_id,
                    phase="upfront",
                    probability=self.rate,
                )

        certificate: Dict[ElementId, SetId] = {}
        first_sets = FirstSetStore(self._meter)
        self._register_salvage(certificate=certificate)
        for set_id, element in stream:
            first_sets.observe(set_id, element)
            if set_id in sampled and element not in certificate:
                certificate[element] = set_id
                self._trace_count(obs_events.ELEMENT_COVERED)

        cover: Set[SetId] = {certificate[u] for u in certificate}
        patched = first_sets.patch(certificate, cover, stream.instance.n)
        self._trace(obs_events.PATCH_APPLIED, patched=patched)
        self._meter.set_component("cover", words_for_set(len(cover)))
        return StreamingResult(
            cover=frozenset(cover),
            certificate=certificate,
            space=self._meter.report(),
            algorithm=self.name,
            diagnostics={
                "sampled_sets": float(len(sampled)),
                "patched_elements": float(patched),
            },
        )
