"""Per-edge reference implementation of Algorithm 1's pass.

The oracle for :class:`repro.core.random_order.RandomOrderAlgorithm`,
whose A(i) epochs find the state-changing edges with column masks and
walk only special-set threshold crossings in Python: this one walks
every edge kept by the Sol / tracked-sample / batch pre-filter one at a
time and charges every witness with its own ``set_component`` calls,
as the listing states the rules.  It reuses the library's scaling,
first-set store, batches and result type, so a divergence can only come
from the pass.  ``tests/test_random_order_equivalence.py`` asserts the
two produce identical covers, certificates, space reports (key order
included), diagnostics, probes, traces and final RNG states, and fail
identically under a budget.
"""

from __future__ import annotations

import math
from typing import Dict, Set

import numpy as np

from repro.core.base import FirstSetStore, uniforms
from repro.core.random_order import (
    EpochStats,
    RandomOrderAlgorithm,
    RandomOrderProbe,
)
from repro.core.solution import StreamingResult
from repro.obs import events as obs_events
from repro.streaming.space import words_for_mapping, words_for_set
from repro.streaming.stream import EdgeStream
from repro.types import ElementId, SetId, first_occurrences


class RandomOrderReferenceAlgorithm(RandomOrderAlgorithm):
    """Algorithm 1 with the per-edge subepoch loop and per-witness charges."""

    def _run(self, stream: EdgeStream) -> StreamingResult:
        n = stream.instance.n
        m = stream.instance.m
        big_n = stream.length
        meter = self._meter
        scaling = self.scaling
        probe = RandomOrderProbe()
        self.last_probe = probe

        marked: Set[ElementId] = set()
        sol: Set[SetId] = set()
        certificate: Dict[ElementId, SetId] = {}
        first_sets = FirstSetStore(meter, universe_size=n)
        self._register_salvage(cover=sol, certificate=certificate)
        reader = stream.reader()
        position = 0  # edges consumed so far

        batches = self._make_batches(m, scaling.num_batches(n))

        # Boolean mirrors of Sol / the tracked sample for the vectorized
        # per-chunk pre-filter.  Every state change an edge can trigger
        # requires its set to be in Sol, in the current batch, or in the
        # tracked sample at subepoch start (mid-subepoch Sol additions
        # come only from batch sets, which the batch-range test keeps),
        # so all other edges are consumed in bulk: they contribute
        # first-set observations and nothing else.
        in_sol = np.zeros(m, dtype=bool)
        in_tracked = np.zeros(m, dtype=bool)

        def witness(u: ElementId, s: SetId) -> None:
            marked.add(u)
            if u not in certificate:
                certificate[u] = s
            meter.set_component("marked", words_for_set(len(marked)))
            meter.set_component("certificate", words_for_mapping(len(certificate)))
            self._trace_count(obs_events.ELEMENT_COVERED)

        tracer = self._tracer

        # ---------------- epoch 0 (lines 5–7) ----------------
        p0 = scaling.epoch0_sample_probability(n, m)
        window = scaling.detection_window(n, m, big_n)
        mark_count = scaling.detection_mark_count(n, m, big_n)
        with tracer.span(
            obs_events.SPAN_EPOCH0,
            probability=p0,
            window=window,
            mark_count=mark_count,
        ):
            for set_id in np.flatnonzero(uniforms(self._rng, m) < p0).tolist():
                sol.add(set_id)
                in_sol[set_id] = True
                probe.inclusion_positions[set_id] = 0
                if tracer.enabled:
                    tracer.event(
                        obs_events.SET_ADMITTED,
                        set_id=set_id,
                        phase="epoch0",
                        probability=p0,
                    )
            meter.set_component("sol", words_for_set(len(sol)))

            # Degree detection by bincount; the per-element counts (and the
            # peak "epoch0-counts" charge of two words per distinct element)
            # match the per-edge dict exactly — all window-phase state only
            # grows, so batching the charges preserves the peak breakdown.
            # Takes may come back short of the quota at a stream checkpoint,
            # hence the loop.
            occurrence = np.zeros(n, dtype=np.int64)
            while position < window and reader.remaining:
                set_ids, elements = reader.take_columns(window - position)
                position += len(set_ids)
                first_sets.observe_columns(set_ids, elements)
                occurrence += np.bincount(elements, minlength=n)
                meter.set_component(
                    "epoch0-counts",
                    words_for_mapping(int(np.count_nonzero(occurrence))),
                )
                # Witnesses: the first Sol-edge of each element marks it.
                sol_hits = np.nonzero(in_sol[set_ids])[0]
                if len(sol_hits):
                    uniques, first_within = first_occurrences(
                        elements[sol_hits], n
                    )
                    for u, hit in zip(
                        uniques.tolist(), sol_hits[first_within].tolist()
                    ):
                        if u not in marked:
                            witness(u, int(set_ids[hit]))
            for u in np.nonzero(occurrence >= mark_count)[0].tolist():
                if u not in marked:
                    marked.add(u)
                    probe.epoch0_marked += 1
                    self._trace_count(obs_events.ELEMENT_MARKED)
            meter.set_component("marked", words_for_set(len(marked)))
            meter.set_component("epoch0-counts", 0)
            probe.sol_after_algorithm.append(len(sol))
            if tracer.enabled:
                tracer.event(
                    obs_events.SPACE_SAMPLE,
                    phase="epoch0",
                    peak_words=meter.peak_words,
                    current_words=meter.current_words,
                )

        # ---------------- algorithms A(1..K) (lines 8–32) ----------------
        num_algorithms = scaling.num_algorithms(n, m)
        num_epochs = scaling.num_epochs(n, m)

        # Cap the phases' total consumption so the remainder phase still
        # sees a constant fraction of the stream (the paper's formulas
        # guarantee this asymptotically; at laptop scale we enforce it).
        raw_lengths = {
            i: scaling.subepoch_length(i, n, m, big_n)
            for i in range(1, num_algorithms + 1)
        }
        planned = num_epochs * len(batches) * sum(raw_lengths.values())
        budget = int(scaling.phase_budget_fraction * big_n)
        shrink = min(1.0, budget / planned) if planned > 0 else 1.0
        subepoch_lengths = {
            i: max(1, int(length * shrink)) for i, length in raw_lengths.items()
        }

        for i in range(1, num_algorithms + 1):
            subepoch_len = subepoch_lengths[i]
            with tracer.span(
                obs_events.SPAN_ALGORITHM,
                algorithm_index=i,
                subepoch_length=subepoch_len,
            ):
                # Line 10: fresh tracked sample at rate q0 = 1/n.
                q0 = min(1.0, 1.0 / n)
                tracked: Set[SetId] = set(
                    np.flatnonzero(uniforms(self._rng, m) < q0).tolist()
                )
                meter.set_component("tracked-sets", words_for_set(len(tracked)))
                in_tracked.fill(False)
                for s in tracked:
                    in_tracked[s] = True

                for j in range(1, num_epochs + 1):
                    stats = EpochStats(algorithm_index=i, epoch_index=j)
                    probe.epoch_stats.append(stats)
                    tracked_edges: Dict[ElementId, int] = {}
                    next_tracked: Set[SetId] = set()
                    threshold = math.ceil(scaling.special_threshold(j, m))
                    p_j = scaling.special_sample_probability(j, n, m)
                    q_j = scaling.tracking_sample_probability(j, n)
                    exhausted = False

                    with tracer.span(
                        obs_events.SPAN_EPOCH,
                        algorithm_index=i,
                        epoch_index=j,
                        threshold=threshold,
                        sol_probability=p_j,
                        tracking_probability=q_j,
                    ):
                        for batch_index, batch in enumerate(batches):
                            batch_start, batch_stop = batch.start, batch.stop
                            counters: Dict[SetId, int] = {}
                            meter.set_component(
                                "batch-counters", words_for_mapping(len(batch))
                            )
                            need = subepoch_len
                            with tracer.span(
                                obs_events.SPAN_SUBEPOCH,
                                batch_index=batch_index,
                                batch_start=batch_start,
                                batch_stop=batch_stop,
                                quota=subepoch_len,
                            ):
                                while need:
                                    set_ids, elements = reader.take_columns(need)
                                    got = len(set_ids)
                                    if not got:
                                        exhausted = True
                                        break
                                    subepoch_base = position
                                    position += got
                                    need -= got
                                    first_sets.observe_columns(set_ids, elements)
                                    keep = np.nonzero(
                                        in_sol[set_ids]
                                        | in_tracked[set_ids]
                                        | (
                                            (set_ids >= batch_start)
                                            & (set_ids < batch_stop)
                                        )
                                    )[0]
                                    for idx, set_id, u in zip(
                                        keep.tolist(),
                                        set_ids[keep].tolist(),
                                        elements[keep].tolist(),
                                    ):
                                        if set_id in sol:  # lines 20–21
                                            if u not in marked or u not in certificate:
                                                witness(u, set_id)
                                            continue
                                        if u in marked:  # line 22
                                            continue
                                        if set_id in tracked:  # lines 24–25
                                            tracked_edges[u] = (
                                                tracked_edges.get(u, 0) + 1
                                            )
                                            stats.tracked_edges += 1
                                            meter.set_component(
                                                "tracked-edges",
                                                words_for_mapping(len(tracked_edges)),
                                            )
                                        if batch_start <= set_id < batch_stop:
                                            # lines 26–30
                                            count = counters.get(set_id, 0) + 1
                                            counters[set_id] = count
                                            if count == threshold:
                                                stats.special_sets += 1
                                                self._trace(
                                                    obs_events.SET_SPECIAL,
                                                    set_id=set_id,
                                                    epoch_index=j,
                                                )
                                                if self._coin(p_j):
                                                    sol.add(set_id)
                                                    in_sol[set_id] = True
                                                    positions = (
                                                        probe.inclusion_positions
                                                    )
                                                    positions.setdefault(
                                                        set_id,
                                                        subepoch_base + idx + 1,
                                                    )
                                                    stats.added_to_sol += 1
                                                    meter.set_component(
                                                        "sol", words_for_set(len(sol))
                                                    )
                                                    self._trace(
                                                        obs_events.SET_ADMITTED,
                                                        set_id=set_id,
                                                        phase="special",
                                                        position=subepoch_base
                                                        + idx
                                                        + 1,
                                                        probability=p_j,
                                                    )
                                                if self._coin(q_j):
                                                    next_tracked.add(set_id)
                                                    stats.added_to_tracking += 1
                                                    meter.set_component(
                                                        "next-tracked",
                                                        words_for_set(
                                                            len(next_tracked)
                                                        ),
                                                    )
                                                    self._trace(
                                                        obs_events.SET_TRACKED,
                                                        set_id=set_id,
                                                        epoch_index=j,
                                                    )
                            if exhausted:
                                break

                        # Line 31: optimistic marking from the tracked signal.
                        if scaling.enable_tracking:
                            mark_threshold = scaling.tracking_mark_threshold(i, n, m)
                            for u, count in tracked_edges.items():
                                if count >= mark_threshold and u not in marked:
                                    marked.add(u)
                                    stats.marked_by_tracking += 1
                                    self._trace_count(obs_events.ELEMENT_MARKED)
                            meter.set_component("marked", words_for_set(len(marked)))

                        tracked = next_tracked  # line 32
                        in_tracked.fill(False)
                        for s in tracked:
                            in_tracked[s] = True
                        meter.set_component(
                            "tracked-sets", words_for_set(len(tracked))
                        )
                        meter.set_component("next-tracked", 0)
                        meter.set_component("tracked-edges", 0)
                        meter.set_component("batch-counters", 0)
                    if exhausted:
                        break
                probe.sol_after_algorithm.append(len(sol))
            if exhausted:
                break

        probe.stream_positions_consumed_by_phases = position

        # ---------------- remainder (lines 33–36) ----------------
        # Sol is frozen here, so the remainder reduces to two vectorized
        # scans: batch first-set observation, then one witness per still
        # uncertified element at its first Sol-edge (stream order — the
        # first_occurrences index is the first one; the loop only repeats
        # when a take stops short at a stream checkpoint).
        with tracer.span(obs_events.SPAN_REMAINDER, start_position=position):
            while reader.remaining:
                set_ids, elements = reader.take_rest_columns()
                first_sets.observe_columns(set_ids, elements)
                sol_hits = np.nonzero(in_sol[set_ids])[0]
                if len(sol_hits):
                    uniques, first_within = first_occurrences(
                        elements[sol_hits], n
                    )
                    for u, hit in zip(
                        uniques.tolist(), sol_hits[first_within].tolist()
                    ):
                        if u not in certificate:
                            witness(u, int(set_ids[hit]))

        # ---------------- patching (lines 37–38) ----------------
        probe.marked_uncovered_at_end = sum(
            1 for u in marked if u not in certificate
        )
        cover = set(sol)
        probe.patched_elements = first_sets.patch(certificate, cover, n)
        self._trace(
            obs_events.PATCH_APPLIED,
            patched=probe.patched_elements,
            marked_uncovered=probe.marked_uncovered_at_end,
        )
        # Output pruning: sets in Sol that never became anyone's witness
        # contribute nothing to coverage, so drop them from the reported
        # cover.  (The paper notes |Sol| ≤ n can always be enforced; this
        # is the natural way and guarantees cover_size ≤ n.)
        cover = set(certificate.values())
        meter.set_component("sol", words_for_set(len(cover)))

        return StreamingResult(
            cover=frozenset(cover),
            certificate=certificate,
            space=meter.report(),
            algorithm=self.name,
            diagnostics={
                "epoch0_sol": float(probe.sol_after_algorithm[0]),
                "epoch0_marked": float(probe.epoch0_marked),
                "num_algorithms": float(num_algorithms),
                "num_epochs": float(num_epochs),
                "num_batches": float(len(batches)),
                "patched_elements": float(probe.patched_elements),
                "sol_before_patching": float(len(sol)),
                "phase_edges_consumed": float(
                    probe.stream_positions_consumed_by_phases
                ),
                "marked_uncovered_at_end": float(probe.marked_uncovered_at_end),
            },
        )
