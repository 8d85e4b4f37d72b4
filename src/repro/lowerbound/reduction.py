"""The Theorem-2 reduction: Set-Disjointness → edge-arrival Set Cover.

Given a ``t``-party Set-Disjointness instance ``(S₁, …, S_t)`` over
ground set ``[m]`` and a Lemma-1 family ``T₁..T_m`` with parts
``T_b¹..T_bᵗ``:

* party ``p`` contributes, for each ``b ∈ S_p``, the edges
  ``(b, u)`` for ``u ∈ T_b^p`` — crucially the *set id is b*, so a
  ground-set element held by every party assembles the full set ``T_b``
  across the stream, while an element held by one party yields a set of
  size only ``√(n/t)``;
* the last party forks ``m`` parallel runs, appending in run ``j`` the
  complement set ``T̄_j = [n] \\ T_j`` (a fresh set id ``m``);
* in the *uniquely intersecting* case with witness ``j*``, run ``j*``
  contains the size-2 cover ``{T_{j*}, T̄_{j*}}``; in the *pairwise
  disjoint* case every run needs ``Ω(√(nt)/log n)`` sets, because every
  available set intersects ``T_j`` in ``O(log n)`` elements.

The parties decide "uniquely intersecting" iff some run reports a cover
below a threshold between those two regimes.  Running a *real*
streaming algorithm through this reduction demonstrates the mechanism:
the forwarded messages are the algorithm's state (its space), and the
decision succeeds exactly because the algorithm's approximation is good
enough — which is what Theorem 2 turns into a space lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.base import StreamingSetCoverAlgorithm
from repro.errors import ConfigurationError
from repro.lowerbound.disjointness import DisjointnessInstance
from repro.lowerbound.family import PartitionedFamily, theoretical_opt_disjoint
from repro.lowerbound.protocol import run_partitioned_stream
from repro.streaming.instance import SetCoverInstance
from repro.types import Edge, SeedLike, make_rng, shuffle

AlgorithmFactory = Callable[[int], StreamingSetCoverAlgorithm]
"""Builds a fresh algorithm from a seed; each parallel run gets the same
seed so the shared prefix is processed identically (this *is* the fork)."""


@dataclass
class ReductionRun:
    """Outcome of one parallel run ``j`` of the reduction."""

    run_index: int
    cover_size: int
    feasible: bool
    universe_patches: int


@dataclass
class ReductionOutcome:
    """Full transcript of one reduction execution."""

    decision: str  # "intersecting" or "disjoint"
    truth: str
    threshold: float
    runs: List[ReductionRun]
    message_words: List[int] = field(default_factory=list)
    opt_disjoint_bound: int = 0

    @property
    def correct(self) -> bool:
        """Whether the protocol's decision matches the promise case."""
        return self.decision == self.truth

    @property
    def max_message_words(self) -> int:
        """Longest forwarded message (= the algorithm's state size)."""
        return max(self.message_words) if self.message_words else 0

    def best_run(self) -> ReductionRun:
        """The run with the smallest cover (the candidate witness)."""
        return min(self.runs, key=lambda r: r.cover_size)


class DisjointnessReduction:
    """Executes Theorem 2's reduction against a streaming algorithm.

    Parameters
    ----------
    family:
        A Lemma-1 :class:`PartitionedFamily`; its ``m`` must cover the
        Disjointness ground set and its ``t`` must equal the party count.
    threshold:
        Cover-size decision threshold; ``None`` uses the paper's
        ``OPT₀ − 1`` with ``OPT₀`` from the realised family
        (:func:`theoretical_opt_disjoint`), scaled by ``alpha_margin``
        to account for the algorithm's approximation factor.
    alpha_margin:
        The paper requires ``2α ≤ OPT₀ − 1``; practically we accept a
        decision threshold of ``alpha_margin · 2`` (the intersecting
        run's cover is at most ``α·2``).
    """

    def __init__(
        self,
        family: PartitionedFamily,
        threshold: Optional[float] = None,
        alpha_margin: float = 1.0,
    ) -> None:
        self.family = family
        self._explicit_threshold = threshold
        self.alpha_margin = alpha_margin

    # -- encoding ----------------------------------------------------------

    def party_edges(
        self, disjointness: DisjointnessInstance, seed: SeedLike = None
    ) -> List[List[Edge]]:
        """The edges each party feeds to the algorithm (shared prefix).

        Within a party the edges are shuffled (the lower bound holds for
        adversarial order, so any order is legal; shuffling avoids
        accidental structure).
        """
        self._check_compatibility(disjointness)
        rng = make_rng(seed)
        out: List[List[Edge]] = []
        for p, s_p in enumerate(disjointness.sets):
            edges: List[Edge] = []
            for b in sorted(s_p):
                for u in sorted(self.family.parts[b][p]):
                    edges.append(Edge(b, u))
            shuffle(rng, edges)
            out.append(edges)
        return out

    def run_instance(
        self, disjointness: DisjointnessInstance, run_index: int
    ) -> Tuple[SetCoverInstance, int]:
        """Ground-truth instance of parallel run ``run_index``.

        Returns the instance and the number of *universe patches*:
        elements of ``T_j`` contained in no included set, which are
        added to the complement set to keep the run feasible (see the
        module docstring of :mod:`repro.lowerbound.family`; at sane
        parameters this count is ~0 and it is reported for
        transparency).
        """
        self._check_compatibility(disjointness)
        m = self.family.m
        members: List[Set[int]] = [set() for _ in range(m)]
        for p, s_p in enumerate(disjointness.sets):
            for b in s_p:
                members[b].update(self.family.parts[b][p])
        complement = set(self.family.complement(run_index))
        covered = set(complement)
        for mem in members:
            covered.update(mem)
        patches = 0
        for u in range(self.family.n):
            if u not in covered:
                complement.add(u)
                patches += 1
        members.append(complement)
        instance = SetCoverInstance(
            self.family.n,
            members,
            name=f"reduction-run-{run_index}",
        )
        return instance, patches

    def complement_edges(self, instance: SetCoverInstance) -> List[Edge]:
        """Edges of the run's complement set (always the last set id)."""
        complement_id = instance.m - 1
        return [
            Edge(complement_id, u)
            for u in sorted(instance.set_members(complement_id))
        ]

    # -- execution -----------------------------------------------------------

    def execute(
        self,
        disjointness: DisjointnessInstance,
        algorithm_factory: AlgorithmFactory,
        seed: SeedLike = None,
        run_indices: Optional[Sequence[int]] = None,
        amplification: int = 1,
    ) -> ReductionOutcome:
        """Run the full protocol and return the decision transcript.

        ``run_indices`` restricts the forked parallel runs (the paper
        forks all ``m``; benchmarks sample a subset for speed — the
        sample must include the witness run for a fair intersecting-case
        demo, and the helper :meth:`default_run_indices` takes care of
        that).

        ``amplification`` implements the paper's success-amplification
        remark: run that many independent copies of the algorithm and
        keep the *smallest* cover per parallel run.  The copies'
        forwarded states are summed into the message sizes, exactly as
        running O(log m) parallel copies would cost.
        """
        if amplification < 1:
            raise ConfigurationError(
                f"amplification must be >= 1, got {amplification}"
            )
        rng = make_rng(seed)
        algo_seeds = [rng.getrandbits(63) for _ in range(amplification)]
        prefix = self.party_edges(disjointness, seed=rng)
        if run_indices is None:
            run_indices = range(self.family.m)

        opt0 = theoretical_opt_disjoint(self.family)
        threshold = (
            self._explicit_threshold
            if self._explicit_threshold is not None
            else max(2.0 * self.alpha_margin, opt0 - 1.0)
            if opt0 > 2
            else 2.0 * self.alpha_margin
        )

        runs: List[ReductionRun] = []
        message_words: List[int] = []
        for j in run_indices:
            instance, patches = self.run_instance(disjointness, j)
            tail = self.complement_edges(instance)
            party_edges = [list(edges) for edges in prefix]
            party_edges[-1] = party_edges[-1] + tail
            best_size: Optional[int] = None
            feasible = True
            copy_messages: List[List[int]] = []
            for algo_seed in algo_seeds:
                algorithm = algorithm_factory(algo_seed)
                result, messages = run_partitioned_stream(
                    algorithm, instance, party_edges
                )
                copy_messages.append(messages)
                if best_size is None or result.cover_size < best_size:
                    best_size = result.cover_size
                    feasible = result.is_valid(instance)
            assert best_size is not None
            runs.append(
                ReductionRun(
                    run_index=j,
                    cover_size=best_size,
                    feasible=feasible,
                    universe_patches=patches,
                )
            )
            if not message_words:
                # The prefix is identical (same seeds, same edges) across
                # parallel runs; record boundary sizes once, summing the
                # amplification copies' states per boundary.
                message_words = [
                    sum(per_copy[b] for per_copy in copy_messages)
                    for b in range(len(copy_messages[0]))
                ]

        best = min(runs, key=lambda r: r.cover_size)
        decision = "intersecting" if best.cover_size <= threshold else "disjoint"
        truth = "intersecting" if disjointness.is_intersecting else "disjoint"
        return ReductionOutcome(
            decision=decision,
            truth=truth,
            threshold=threshold,
            runs=runs,
            message_words=message_words,
            opt_disjoint_bound=opt0,
        )

    def default_run_indices(
        self, disjointness: DisjointnessInstance, sample: int, seed: SeedLike = None
    ) -> List[int]:
        """A run-index sample of size ``sample`` including the witness run."""
        rng = make_rng(seed)
        indices = set(rng.sample(range(self.family.m), min(sample, self.family.m)))
        if disjointness.intersecting_element is not None:
            indices.add(disjointness.intersecting_element)
        return sorted(indices)

    # -- internals -------------------------------------------------------------

    def _check_compatibility(self, disjointness: DisjointnessInstance) -> None:
        if disjointness.t != self.family.t:
            raise ConfigurationError(
                f"family has t={self.family.t} parts but instance has "
                f"{disjointness.t} parties"
            )
        if disjointness.m > self.family.m:
            raise ConfigurationError(
                f"instance ground set {disjointness.m} exceeds family size "
                f"{self.family.m}"
            )


def calibrate_threshold(
    family: PartitionedFamily,
    algorithm_factory: AlgorithmFactory,
    set_size: int,
    seed: SeedLike = None,
    trials: int = 2,
    sample: int = 6,
    amplification: int = 3,
) -> float:
    """Empirical decision threshold for a concrete algorithm.

    The paper sets the threshold analytically (``OPT₀ − 1``) for an
    ideal α-approximator; a concrete algorithm's approximation constant
    is empirical, so the parties precompute the threshold from *public*
    information — the family — by synthesising reference instances of
    both promise types.  The threshold sits just below the disjoint
    references' mean (but never below the two means' midpoint): the
    intersecting case's best cover concentrates well under the disjoint
    case's floor, so hugging that floor maximises accuracy.
    """
    from repro.lowerbound.disjointness import (
        disjoint_instance,
        intersecting_instance,
    )

    rng = make_rng(seed)
    reduction = DisjointnessReduction(family, threshold=0.0)
    sums = {"disjoint": 0.0, "intersecting": 0.0}
    for _ in range(trials):
        for label, builder in (
            ("disjoint", disjoint_instance),
            ("intersecting", intersecting_instance),
        ):
            s = rng.getrandbits(63)
            reference = builder(family.m, family.t, set_size, seed=s)
            outcome = reduction.execute(
                reference,
                algorithm_factory=algorithm_factory,
                seed=s,
                run_indices=reduction.default_run_indices(
                    reference, sample=sample, seed=s
                ),
                amplification=amplification,
            )
            sums[label] += outcome.best_run().cover_size
    mean_disjoint = sums["disjoint"] / trials
    mean_intersecting = sums["intersecting"] / trials
    midpoint = (mean_disjoint + mean_intersecting) / 2.0
    return max(midpoint, mean_disjoint - 1.25)


def recommended_parties(alpha: float, n: int) -> int:
    """The paper's party count ``t = Θ(α²·log²n / n)``, at least 2."""
    t = int(alpha * alpha * (math.log(max(n, 2)) ** 2) / n)
    return max(2, t)
