"""Scalar reference implementation of Algorithm 2's pass.

The oracle for :class:`repro.core.adversarial.LowSpaceAdversarialAlgorithm`,
which reads its coins from a :class:`~repro.core.base.CoinTape` and walks
only the promotions and first hits in Python: this one visits every edge
whose element is uncovered and flips ``Coin(1/α)`` with a ``_coin`` call,
as line 18 of the pseudocode states it, writing each charged container
item by item.  It reuses the library's inclusion probability, first-set
store and result type, so a divergence can only come from the pass.
"""

from __future__ import annotations

from typing import Dict, Set

import numpy as np

from repro.core.adversarial import LowSpaceAdversarialAlgorithm
from repro.core.base import FirstSetStore
from repro.core.solution import StreamingResult
from repro.obs import events as obs_events
from repro.streaming.space import ChargedDict, ChargedSet, words_for_set
from repro.streaming.stream import EdgeStream
from repro.types import ElementId, SetId

_CHUNK = 8192


class ScalarAdversarialAlgorithm(LowSpaceAdversarialAlgorithm):
    """Algorithm 2 with one ``_coin`` call per uncovered edge."""

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

        # Covered elements draw no coins, so skipping the edges of an
        # element covered at chunk start changes nothing.
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
