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

The pass is written in columns.  Epoch 0 and the remainder write each
take's witnesses (one per uncertified element at its first Sol edge) as
one batch.  An A(i) epoch peeks its edges once and finds with column
masks the only edges that change state: each uncertified element's
first Sol edge, the tracked-sample and batch-set counting edges of
elements still unmarked at that edge, and the counting sets' threshold
crossings.  Each take applies its own events at their place; only the
crossings are walked in Python, with the p_j/q_j coins drawn in stream
order, and a crossing whose set joins Sol restarts the scan just past
it.  Element-side state is a pair of masks and the certificate dict;
every witness and tracked-edge charge goes through one
:class:`~repro.streaming.space.DeferredCharges` per phase, in stream
order, settled before each take, so the meter (peak, breakdown,
budget crossing, checkpoint readings) is that of per-witness charging.
The per-edge loop this replaces is the test oracle
``tests/random_order_reference.py``; ``tests/test_random_order_equivalence.py``
proves the two show identical runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.base import FirstSetStore, StreamingSetCoverAlgorithm, uniforms
from repro.core.kk import _occurrence_ranks
from repro.core.scaling import Scaling
from repro.core.solution import StreamingResult
from repro.obs import events as obs_events
from repro.streaming.space import (
    DeferredCharges,
    SpaceBudget,
    words_for_mapping,
    words_for_set,
)
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

        state = _PassState(n, m, probe.inclusion_positions)
        sol, in_sol, in_tracked = state.sol, state.in_sol, state.in_tracked
        certificate = state.certificate
        first_sets = FirstSetStore(meter, universe_size=n)
        self._register_salvage(cover=sol, certificate=certificate)
        reader = stream.reader()
        position = 0  # edges consumed so far

        batches = self._make_batches(m, scaling.num_batches(n))
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
            sampled = np.flatnonzero(uniforms(self._rng, m) < p0)
            in_sol[sampled] = True
            sampled_ids = sampled.tolist()
            sol.update(sampled_ids)
            probe.inclusion_positions.update(dict.fromkeys(sampled_ids, 0))
            if tracer.enabled:
                for set_id in sampled_ids:
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
            charges = DeferredCharges(meter, _EPOCH_COMPONENTS[:2])
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
                self._write_first_witnesses(state, charges, set_ids, elements)
            marked_now = state.mark(occurrence >= mark_count)
            probe.epoch0_marked += marked_now
            if marked_now:
                self._trace_count(obs_events.ELEMENT_MARKED, marked_now)
            meter.set_component("marked", words_for_set(state.marked_count))
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
                in_tracked[:] = uniforms(self._rng, m) < q0
                meter.set_component(
                    "tracked-sets", words_for_set(int(np.count_nonzero(in_tracked)))
                )

                for j in range(1, num_epochs + 1):
                    stats = EpochStats(algorithm_index=i, epoch_index=j)
                    probe.epoch_stats.append(stats)
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
                        epoch = _Epoch(
                            self,
                            state,
                            stats,
                            reader.peek_columns(len(batches) * subepoch_len),
                            position,
                            subepoch_len,
                            len(batches[0]),
                            threshold,
                            p_j,
                            q_j,
                        )
                        for batch_index, batch in enumerate(batches):
                            meter.set_component(
                                "batch-counters", words_for_mapping(len(batch))
                            )
                            need = subepoch_len
                            with tracer.span(
                                obs_events.SPAN_SUBEPOCH,
                                batch_index=batch_index,
                                batch_start=batch.start,
                                batch_stop=batch.stop,
                                quota=subepoch_len,
                            ):
                                while need:
                                    set_ids, elements = reader.take_columns(need)
                                    got = len(set_ids)
                                    if not got:
                                        exhausted = True
                                        break
                                    position += got
                                    need -= got
                                    first_sets.observe_columns(set_ids, elements)
                                    epoch.advance(position)
                            if exhausted:
                                break

                        # Line 31: optimistic marking from the tracked signal.
                        if scaling.enable_tracking:
                            mark_threshold = scaling.tracking_mark_threshold(i, n, m)
                            counts = epoch.tracked_counts
                            marked_now = state.mark(
                                (counts > 0) & (counts >= mark_threshold)
                            )
                            stats.marked_by_tracking += marked_now
                            if marked_now:
                                self._trace_count(
                                    obs_events.ELEMENT_MARKED, marked_now
                                )
                            meter.set_component(
                                "marked", words_for_set(state.marked_count)
                            )

                        # Line 32: the specials' tracked sample is the next one.
                        in_tracked.fill(False)
                        in_tracked[list(epoch.next_tracked)] = True
                        meter.set_component(
                            "tracked-sets", words_for_set(len(epoch.next_tracked))
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
        # Sol is frozen here, so each take is two vectorized scans: batch
        # first-set observation, then one witness per still uncertified
        # element at its first Sol-edge (the loop only repeats when a take
        # stops short at a stream checkpoint).
        with tracer.span(obs_events.SPAN_REMAINDER, start_position=position):
            charges = DeferredCharges(meter, _EPOCH_COMPONENTS[:2])
            while reader.remaining:
                set_ids, elements = reader.take_rest_columns()
                first_sets.observe_columns(set_ids, elements)
                if len(certificate) < n:
                    self._write_first_witnesses(state, charges, set_ids, elements)

        # ---------------- patching (lines 37–38) ----------------
        probe.marked_uncovered_at_end = int(
            np.count_nonzero(state.marked & ~state.certified)
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

    def _write_first_witnesses(
        self,
        state: "_PassState",
        charges: DeferredCharges,
        set_ids: np.ndarray,
        elements: np.ndarray,
    ) -> None:
        """Witness each uncertified element at its first Sol edge of a take.

        Sol does not change during the take (epoch 0 and the remainder),
        so the witnesses are one batch, written and charged in ascending
        element order, as the per-witness loop did; then the charges
        settle.  If the budget breaks inside the batch, the containers
        hold the witness whose charge crossed it and the ones before it,
        and the trace counts only those before it.
        """
        sol_hits = np.flatnonzero(state.in_sol[set_ids])
        if len(sol_hits):
            uniques, first_within = first_occurrences(
                elements[sol_hits], len(state.marked)
            )
            fresh = ~state.certified[uniques]
            witnessed = uniques[fresh]
            components, words = state.witness_items(witnessed)
            stop = charges.grow_columns(components, words)
            written = min(len(witnessed), stop // 2 + 1)
            state.write(
                witnessed[:written], set_ids[sol_hits[first_within[fresh]][:written]]
            )
            if stop > 1:
                self._trace_count(obs_events.ELEMENT_COVERED, stop // 2)
            if stop < len(words):
                charges.grow(int(components[stop]), int(words[stop]))  # raises
        charges.settle()

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _make_batches(m: int, num_batches: int) -> List[range]:
        """Partition set ids into ``num_batches`` contiguous batches.

        Any partition works (the paper says "arbitrarily partitioned");
        with contiguous ``range`` slices a set's batch is its id divided
        by the first batch's size, one integer division per edge in the
        epoch masks.
        """
        num_batches = max(1, min(num_batches, m))
        size = math.ceil(m / num_batches)
        return [
            range(start, min(start + size, m)) for start in range(0, m, size)
        ]


#: The components an A(i) epoch charges through its
#: :class:`DeferredCharges`, by index; epoch 0 and the remainder charge
#: only the first two.
_EPOCH_COMPONENTS = ("marked", "certificate", "tracked-edges", "sol", "next-tracked")
_MARKED, _CERTIFICATE, _TRACKED_EDGES, _SOL, _NEXT_TRACKED = range(5)

_EMPTY = np.empty(0, dtype=np.int64)


class _PassState:
    """What the phases of one Algorithm 1 pass share.

    Sol, as a set and as a mask over the set ids, with each member's
    inclusion position; the tracked sample's mask; and the marks and
    witnesses: ``marked`` and ``certified`` are masks over the universe
    (an element is certified once ``certificate`` names its witness,
    which also marks it), and ``certificate`` keeps the witnesses in
    writing order.
    """

    __slots__ = (
        "sol",
        "in_sol",
        "inclusion_positions",
        "in_tracked",
        "marked",
        "certified",
        "certificate",
        "marked_count",
    )

    def __init__(
        self, n: int, m: int, inclusion_positions: Dict[SetId, int]
    ) -> None:
        self.sol: Set[SetId] = set()
        self.in_sol = np.zeros(m, dtype=bool)
        self.inclusion_positions = inclusion_positions
        self.in_tracked = np.zeros(m, dtype=bool)
        self.marked = np.zeros(n, dtype=bool)
        self.certified = np.zeros(n, dtype=bool)
        self.certificate: Dict[ElementId, SetId] = {}
        self.marked_count = 0

    def witness_items(self, elements: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The meter items of witnessing ``elements``, in order.

        Two per witness, as its charges come: a ``"marked"`` word (none
        for an element already marked), then two ``"certificate"`` words.
        """
        components = np.empty(2 * len(elements), dtype=np.int64)
        components[0::2] = _MARKED
        components[1::2] = _CERTIFICATE
        words = np.full(2 * len(elements), 2, dtype=np.int64)
        words[0::2] = ~self.marked[elements]
        return components, words

    def write(self, elements: np.ndarray, sets: np.ndarray) -> None:
        """Record ``sets`` as the witnesses of distinct uncertified ``elements``."""
        marked = self.marked
        self.marked_count += len(elements) - int(np.count_nonzero(marked[elements]))
        marked[elements] = True
        self.certified[elements] = True
        self.certificate.update(zip(elements.tolist(), sets.tolist()))

    def mark(self, mask: np.ndarray) -> int:
        """Mark the elements of ``mask`` not marked yet; returns how many."""
        fresh = mask & ~self.marked
        count = int(np.count_nonzero(fresh))
        self.marked |= fresh
        self.marked_count += count
        return count


class _Epoch:
    """One epoch of A(i) (lines 13–32) as column passes over its edges.

    The epoch's edges are peeked once, before its first take, and
    :meth:`_scan` finds with column masks, from a position to the end of
    the epoch, the only edges that change state:

    * each uncertified element's first Sol edge, its witness
      (lines 20–21);
    * tracked-sample edges to elements still unmarked at that edge
      (lines 24–25);
    * counting edges of the subepoch's batch sets to elements still
      unmarked (lines 26–27), and among them each set's threshold
      crossing (its counter reaching the threshold).

    :meth:`advance` applies the events of each take at its place: it
    charges their words in stream order through the epoch's
    :class:`DeferredCharges` and walks the crossings in Python, drawing
    the p_j/q_j coins in stream order.  A crossing whose set joins Sol
    turns that set's later edges into witness edges, so the scan
    restarts just past it.  Positions in the event columns count from
    the epoch's first edge.
    """

    def __init__(
        self,
        kernel: "RandomOrderAlgorithm",
        state: _PassState,
        stats: EpochStats,
        columns: Tuple[np.ndarray, np.ndarray],
        base: int,
        subepoch_len: int,
        batch_size: int,
        threshold: int,
        p_j: float,
        q_j: float,
    ) -> None:
        self.kernel = kernel
        self.state = state
        self.stats = stats
        self.set_ids, self.elements = columns
        self.base = base
        self.subepoch_len = subepoch_len
        self.batch_size = batch_size
        self.threshold = threshold
        self.p_j = p_j
        self.q_j = q_j
        self.charges = DeferredCharges(kernel._meter, _EPOCH_COMPONENTS)
        self.tracked_counts = np.zeros(len(state.marked), dtype=np.int64)
        self.counters = np.zeros(len(state.in_sol), dtype=np.int64)
        self.next_tracked: Set[SetId] = set()
        self._scan(0)

    def _scan(self, offset: int) -> None:
        """Find the events from epoch position ``offset`` on; reset the cursors."""
        state = self.state
        n = len(state.marked)
        set_ids = self.set_ids[offset:]
        elements = self.elements[offset:]
        live = (
            np.flatnonzero(~state.certified[elements])
            if len(state.certificate) < n
            else _EMPTY
        )
        sets, members = set_ids[live], elements[live]
        on_sol = state.in_sol[sets]
        hits = np.flatnonzero(on_sol)
        witnesses = _EMPTY
        if len(hits):
            _, first = first_occurrences(members[hits], n)
            witnesses = np.sort(live[hits[first]])
        witness_elements = elements[witnesses]
        # Non-Sol edges of elements unmarked at the edge: unmarked now and
        # not witnessed before it.
        counted = np.flatnonzero(~on_sol & ~state.marked[members])
        if len(counted) and len(witnesses):
            witnessed_at = np.full(n, len(elements), dtype=np.int64)
            witnessed_at[witness_elements] = witnesses
            counted = counted[live[counted] < witnessed_at[members[counted]]]
        counted_at, counted_sets = live[counted], sets[counted]
        tracked = np.flatnonzero(state.in_tracked[counted_sets])
        tracked_at, tracked_elements = counted_at[tracked], members[counted[tracked]]
        in_batch = np.flatnonzero(
            counted_sets // self.batch_size
            == (offset + counted_at) // self.subepoch_len
        )
        self._counting_sets = counted_sets[in_batch]
        self._crossings = np.flatnonzero(
            self.counters[self._counting_sets]
            + _occurrence_ranks(self._counting_sets, len(state.in_sol))
            == self.threshold
        )
        self._crossing_at = (offset + counted_at[in_batch][self._crossings]).tolist()
        # The meter items in stream order: two per witness, and two words
        # at each element's first tracked edge of the epoch.
        firsts = _EMPTY
        if len(tracked_elements):
            uniques, first = first_occurrences(tracked_elements, n)
            firsts = tracked_at[first[self.tracked_counts[uniques] == 0]]
        components, words = state.witness_items(witness_elements)
        at = np.concatenate((np.repeat(witnesses, 2), firsts))
        order = np.argsort(
            2 * at + np.concatenate((np.tile((0, 1), len(witnesses)), 0 * firsts)),
            kind="stable",
        )
        self._item_at = offset + at[order]
        self._item_components = np.concatenate(
            (components, np.full(len(firsts), _TRACKED_EDGES))
        )[order]
        self._item_words = np.concatenate((words, np.full(len(firsts), 2)))[order]
        self._witness_at = offset + witnesses
        self._witness_elements = witness_elements
        self._witness_sets = set_ids[witnesses]
        self._tracked_at = offset + tracked_at
        self._tracked_elements = tracked_elements
        self._next_item = self._next_witness = self._next_tracked = 0
        self._next_crossing = 0

    def advance(self, stop: int) -> None:
        """Apply every event before stream position ``stop``, then settle."""
        if (
            self._next_item == len(self._item_at)
            and self._next_tracked == len(self._tracked_at)
            and self._next_crossing == len(self._crossing_at)
        ):
            return  # the rest of the epoch changes no state
        stop -= self.base
        while self._next_crossing < len(self._crossing_at):
            at = self._crossing_at[self._next_crossing]
            if at >= stop:
                break
            self._apply(at + 1)
            if self._special(at):
                # Carry the counting edges applied so far into the
                # counters, then rescan with the new Sol.
                applied = int(self._crossings[self._next_crossing]) + 1
                np.add.at(self.counters, self._counting_sets[:applied], 1)
                self._scan(at + 1)
            else:
                self._next_crossing += 1
        self._apply(stop)
        self.charges.settle()

    def _apply(self, stop: int) -> None:
        """Write and charge the witnesses and tracked edges before ``stop``.

        If the budget breaks, the containers hold what the per-edge loop
        held at the edge whose charge crossed it: that edge's own witness
        or tracked edge too, but not its trace count.
        """
        first = self._next_item
        last = int(self._item_at.searchsorted(stop))
        components = self._item_components[first:last]
        words = self._item_words[first:last]
        crossed = self.charges.grow_columns(components, words)
        self._next_item = last
        if crossed < len(words):
            stop = int(self._item_at[first + crossed])
            self._write(stop, stop + 1)
            self.charges.grow(int(components[crossed]), int(words[crossed]))  # raises
        self._write(stop, stop)

    def _write(self, counted_stop: int, stop: int) -> None:
        """Apply the witnesses and tracked edges before ``stop``.

        Witnesses before ``counted_stop`` are counted in the trace.
        """
        first = self._next_witness
        last = int(self._witness_at.searchsorted(stop))
        if last > first:
            self.state.write(
                self._witness_elements[first:last], self._witness_sets[first:last]
            )
            counted = int(self._witness_at.searchsorted(counted_stop)) - first
            if counted:
                self.kernel._trace_count(obs_events.ELEMENT_COVERED, counted)
            self._next_witness = last
        first = self._next_tracked
        last = int(self._tracked_at.searchsorted(stop))
        if last > first:
            np.add.at(self.tracked_counts, self._tracked_elements[first:last], 1)
            self.stats.tracked_edges += last - first
            self._next_tracked = last

    def _special(self, at: int) -> bool:
        """Lines 28–30 for the set crossing the threshold at ``at``.

        Returns whether the set joined Sol.
        """
        kernel, state, stats = self.kernel, self.state, self.stats
        index = int(self._crossings[self._next_crossing])
        set_id = int(self._counting_sets[index])
        position = self.base + at + 1
        stats.special_sets += 1
        kernel._trace(
            obs_events.SET_SPECIAL, set_id=set_id, epoch_index=stats.epoch_index
        )
        joined = kernel._coin(self.p_j)
        if joined:
            state.sol.add(set_id)
            state.in_sol[set_id] = True
            state.inclusion_positions.setdefault(set_id, position)
            stats.added_to_sol += 1
            self.charges.grow(_SOL, 1)
            kernel._trace(
                obs_events.SET_ADMITTED,
                set_id=set_id,
                phase="special",
                position=position,
                probability=self.p_j,
            )
        if kernel._coin(self.q_j):
            self.next_tracked.add(set_id)
            stats.added_to_tracking += 1
            self.charges.grow(_NEXT_TRACKED, 1)
            kernel._trace(
                obs_events.SET_TRACKED, set_id=set_id, epoch_index=stats.epoch_index
            )
        return joined


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

        # An empty (or zero-declared) stream is closest to the lowest guess.
        log_n = math.log(max(1, true_n))
        best_guess = min(guesses, key=lambda g: abs(math.log(g) - log_n))
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
