"""Scalar reference implementation of the KK pass.

The oracle for :class:`repro.core.kk.KKAlgorithm`, which scans each
window with numpy column ops and walks only the promotions in Python:
this one visits every edge whose element was uncovered at chunk start
and updates :class:`ChargedDict` / :class:`ChargedSet` containers item
by item, as Section 1.2 states the rule.  It reuses the library's
scaling, first-set store and result type, so a divergence can only come
from the pass.  ``tests/test_core_kk_equivalence.py`` asserts the two
produce byte-identical covers, certificates, diagnostics, space reports
and traces.
"""

from __future__ import annotations

from typing import Dict, Set

import numpy as np

from repro.core.base import FirstSetStore
from repro.core.kk import _CHUNK, KKAlgorithm
from repro.core.solution import StreamingResult
from repro.errors import InvalidCoverError
from repro.obs import events as obs_events
from repro.streaming.space import ChargedDict, ChargedSet, words_for_set
from repro.streaming.stream import EdgeStream
from repro.types import ElementId, SetId


def _patch(
    first_sets: FirstSetStore,
    certificate: Dict[ElementId, SetId],
    cover: Set[SetId],
    universe_size: int,
) -> int:
    """:meth:`FirstSetStore.patch`, written one element at a time.

    Every unwitnessed element, in ascending order, gets its first-seen
    set in the certificate and then in the cover, so a charged cover
    stops the certificate at the element whose charge crossed the
    budget.  Raises :class:`InvalidCoverError` at the first element
    never seen in the stream, after patching every lower element.
    """
    patched = 0
    for element in range(universe_size):
        if element in certificate:
            continue
        first = first_sets.get(element)
        if first is None:
            raise InvalidCoverError(
                f"element {element} never appeared in the stream; "
                "cannot patch a feasible cover"
            )
        certificate[element] = first
        cover.add(first)
        patched += 1
    return patched


class KKReferenceAlgorithm(KKAlgorithm):
    """The scalar per-edge KK loop — the executable specification.

    Kept verbatim from before the kernel vectorization, apart from its
    patch (:func:`_patch`), so the equivalence suite can assert the fast
    path reproduces it byte for byte.
    """

    name = "kk-reference"

    def _run(self, stream: EdgeStream) -> StreamingResult:
        n = stream.instance.n
        m = stream.instance.m
        level_width = self.scaling.kk_level_width(n)

        meter = self._meter
        uncovered_degree: Dict[SetId, int] = ChargedDict(
            meter, "degree-counters", words_per_entry=2, charge_initial=False
        )
        covered: Set[ElementId] = ChargedSet(
            meter, "covered", words_per_entry=1, charge_initial=False
        )
        cover: Set[SetId] = ChargedSet(
            meter, "cover", words_per_entry=1, charge_initial=False
        )
        certificate: Dict[ElementId, SetId] = {}
        first_sets = FirstSetStore(meter, universe_size=n)
        self._register_salvage(cover=cover, certificate=certificate)

        # Boolean mirror of `covered` for the vectorized pre-filter;
        # every component in this algorithm only ever grows, so an edge
        # whose element was covered at chunk start is a guaranteed no-op
        # and can be skipped in bulk.
        covered_mask = np.zeros(n, dtype=bool)

        max_level_reached = 0
        inclusion_events = 0

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
                if set_id in cover:
                    # An included set covers its elements from inclusion
                    # onward.
                    covered.add(element)
                    covered_mask[element] = True
                    certificate[element] = set_id
                    self._trace_count(obs_events.ELEMENT_COVERED)
                    continue

                degree = uncovered_degree.get(set_id, 0) + 1
                uncovered_degree[set_id] = degree

                if degree % level_width == 0:
                    level = degree // level_width
                    max_level_reached = max(max_level_reached, level)
                    self._trace(
                        obs_events.LEVEL_PROMOTED, set_id=set_id, level=level
                    )
                    p = self.scaling.kk_inclusion_probability(level, n, m)
                    if self._coin(p):
                        cover.add(set_id)
                        inclusion_events += 1
                        covered.add(element)
                        covered_mask[element] = True
                        certificate[element] = set_id
                        self._trace(
                            obs_events.SET_ADMITTED,
                            set_id=set_id,
                            level=level,
                            probability=p,
                        )
                        self._trace_count(obs_events.ELEMENT_COVERED)

        patched = _patch(first_sets, certificate, cover, n)
        self._trace(obs_events.PATCH_APPLIED, patched=patched)
        meter.set_component("cover", words_for_set(len(cover)))

        return StreamingResult(
            cover=frozenset(cover),
            certificate=certificate,
            space=meter.report(),
            algorithm=self.name,
            diagnostics={
                "max_level_reached": float(max_level_reached),
                "inclusion_events": float(inclusion_events),
                "patched_elements": float(patched),
                "level_width": float(level_width),
            },
        )
