"""Algorithm 1: Õ(√n)-approximation with Õ(m/√n) space, random order.

The paper's main result (Theorem 3).  The algorithm simulates the
KK-algorithm while rotating the set family through memory in ``√n``
batches of ``m/√n`` sets, so that only one batch's counters are live at
any moment:

* **Epoch 0** (lines 5–7): sample every set into ``Sol`` with
  probability ``p₀ = C·√n·log m/m``, then detect elements of degree
  ≥ 1.1·m/√n by counting occurrences in a short prefix of the stream and
  *optimistically mark* them — they will be covered by the epoch-0
  sample with high probability even though the covering edge may not
  have arrived yet.
* **Algorithms A(1..K)** (lines 8–32): A(i) targets sets that can still
  cover ~n/2ⁱ uncovered elements.  Each A(i) runs ``log m − ½log n``
  epochs of ``√n`` subepochs; subepoch ``k`` watches batch ``S_k`` for
  ``ℓᵢ = 2ⁱN/(n·log m)`` edges and counts, per watched set, edges to
  unmarked elements.  A set whose counter reaches ``j·log⁶ m`` in epoch
  ``j`` is *special*: it joins ``Sol`` with probability ``p_j = 2ʲ·p₀``
  and the tracked sample ``T̃'`` with probability ``q_j = 2ʲ/n``.
* **Tracking** (lines 24–25, 31): edges from the previous epoch's
  tracked sample ``T̃`` are recorded in ``T``; an unmarked element with
  ≥ 1.085·m·2^{i-1}/(n²·log m) tracked edges is incident to so many
  special sets that one of them is in ``Sol`` whp — mark it covered now
  so it stops inflating counters (the paper's substitute for the KK
  monotonicity/coverage argument).
* **Remainder + patching** (lines 33–38): the rest of the stream only
  collects witnesses for ``Sol``; elements still lacking a witness are
  patched with the first set seen to contain them.

Space: the batch counters (m/√n), tracked samples (Õ(m/n)) and tracked
edges (Õ(m/√n)) dominate; with m = Ω̃(n²) the Õ(n) element-side state is
lower order.  The run attaches a :class:`RandomOrderProbe` with the
per-phase statistics the invariants (I1)–(I3) speak about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

import numpy as np

from repro.core.base import FirstSetStore, StreamingSetCoverAlgorithm, uniforms
from repro.core.scaling import Scaling
from repro.core.solution import StreamingResult
from repro.obs import events as obs_events
from repro.streaming.space import SpaceBudget, words_for_mapping, words_for_set
from repro.streaming.stream import EdgeStream
from repro.types import ElementId, SeedLike, SetId, first_occurrences


@dataclass
class EpochStats:
    """Per-epoch observability for the invariant benchmarks."""

    algorithm_index: int
    epoch_index: int
    special_sets: int = 0
    added_to_sol: int = 0
    added_to_tracking: int = 0
    marked_by_tracking: int = 0
    tracked_edges: int = 0


@dataclass
class RandomOrderProbe:
    """Everything the (I1)/(I2)/(I3) probes need from one run.

    Attributes
    ----------
    epoch_stats:
        One record per (A(i), epoch j) pair, in execution order.
    inclusion_positions:
        Stream position (0-based, exclusive of the triggering edge) at
        which each solution set was added; sets sampled in epoch 0 get
        position 0.  Used to count *missed edges* post-hoc (I2).
    sol_after_algorithm:
        Snapshot of ``len(Sol)`` after each A(i) finishes (index 0 is
        after epoch 0).
    marked_uncovered_at_end:
        Elements that were optimistically marked but never received a
        witness before patching — the paper's Lemma 7 says this is rare.
    """

    epoch_stats: List[EpochStats] = field(default_factory=list)
    inclusion_positions: Dict[SetId, int] = field(default_factory=dict)
    sol_after_algorithm: List[int] = field(default_factory=list)
    epoch0_marked: int = 0
    patched_elements: int = 0
    stream_positions_consumed_by_phases: int = 0
    marked_uncovered_at_end: int = 0

    def special_counts_by_epoch(self, algorithm_index: int) -> List[int]:
        """Special-set counts for each epoch of A(algorithm_index)."""
        return [
            s.special_sets
            for s in self.epoch_stats
            if s.algorithm_index == algorithm_index
        ]

    def additions_per_algorithm(self) -> Dict[int, int]:
        """Total ``Sol`` additions per A(i) — the quantity (I3) bounds."""
        totals: Dict[int, int] = {}
        for s in self.epoch_stats:
            totals[s.algorithm_index] = (
                totals.get(s.algorithm_index, 0) + s.added_to_sol
            )
        return totals


class RandomOrderAlgorithm(StreamingSetCoverAlgorithm):
    """The paper's Algorithm 1 for random-order edge streams.

    Parameters
    ----------
    scaling:
        Constant pack (see :class:`~repro.core.scaling.Scaling`); the
        ``practical`` preset is the default.
    seed, space_budget:
        As in :class:`StreamingSetCoverAlgorithm`.

    Notes
    -----
    The instance shape ``(n, m)`` and the stream length ``N`` are read
    from the stream object, matching the paper's assumption that these
    are known (Section 4.1 shows the assumption on ``N`` is w.l.o.g.
    via parallel guesses; see :class:`StreamLengthOblivious` for that
    wrapper).
    """

    name = "random-order"

    def __init__(
        self,
        scaling: Optional[Scaling] = None,
        seed: SeedLike = None,
        space_budget: Optional[SpaceBudget] = None,
    ) -> None:
        super().__init__(seed=seed, space_budget=space_budget)
        self.scaling = scaling if scaling is not None else Scaling.practical()
        self.last_probe: Optional[RandomOrderProbe] = None

    # -- main entry ---------------------------------------------------------

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

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _make_batches(m: int, num_batches: int) -> List[range]:
        """Partition set ids into ``num_batches`` contiguous batches.

        Any partition works (the paper says "arbitrarily partitioned");
        contiguous ``range`` slices reduce batch membership to two
        integer comparisons against the range bounds — no hashing on the
        per-edge hot path.
        """
        num_batches = max(1, min(num_batches, m))
        size = math.ceil(m / num_batches)
        return [
            range(start, min(start + size, m)) for start in range(0, m, size)
        ]


class StreamLengthOblivious(StreamingSetCoverAlgorithm):
    """Wrapper running parallel guesses of the stream length N.

    Section 4.1 argues knowing ``N`` is w.l.o.g.: run O(log) parallel
    copies of Algorithm 1 with guesses ``2ⁱ·m/√n`` and keep the answer
    of the copy whose guess is closest.  Because our :class:`EdgeStream`
    is single-pass, this wrapper time-multiplexes one pass across the
    copies by buffering each edge to all of them — the *space* charged is
    the sum over copies, exactly as in the paper's argument.

    This class exists to validate the w.l.o.g. claim experimentally; for
    ordinary use prefer :class:`RandomOrderAlgorithm`, which reads the
    true ``N`` off the stream object.
    """

    name = "random-order-oblivious"

    def __init__(
        self,
        scaling: Optional[Scaling] = None,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(seed=seed)
        self.scaling = scaling if scaling is not None else Scaling.practical()

    def _run(self, stream: EdgeStream) -> StreamingResult:
        n = stream.instance.n
        m = stream.instance.m
        true_n = stream.length

        # Guesses 2^i * m/sqrt(n), clipped to [1, m*n].
        lowest = max(1, int(m / math.sqrt(n)))
        guesses: List[int] = []
        guess = lowest
        while guess < m * n:
            guesses.append(guess)
            guess *= 2
        guesses.append(m * n)

        best_guess = min(guesses, key=lambda g: abs(math.log(g) - math.log(true_n)))
        # Walk the outer stream's one pass (a take stops at each
        # checkpoint, so every one fires), then hand the frozen edge
        # buffer (shared, never copied) to the chosen copy; it runs with
        # N = best_guess — its loop sizing sees the guess, not the true
        # length.
        reader = stream.reader()
        while len(reader.take_rest_columns()[0]):
            pass
        inner = RandomOrderAlgorithm(
            scaling=self.scaling, seed=self._rng.getrandbits(63)
        )
        result = inner.run(
            EdgeStream(
                stream.instance,
                stream.peek_all(),
                order_name=stream.order_name,
                declared_length=best_guess,
            )
        )
        # Charge the log-many parallel copies: each copy's state is the
        # same asymptotic size, so total space is (number of guesses) x
        # the chosen copy's peak.
        self._meter.set_component(
            "parallel-copies", result.space.peak_words * len(guesses)
        )
        return StreamingResult(
            cover=result.cover,
            certificate=result.certificate,
            space=self._meter.report(),
            algorithm=self.name,
            diagnostics={
                **result.diagnostics,
                "num_guesses": float(len(guesses)),
                "chosen_guess": float(best_guess),
                "true_length": float(true_n),
            },
        )
