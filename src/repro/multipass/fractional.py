"""Multi-pass *fractional* Set Cover in the edge-arrival model.

The paper's introduction cites Indyk et al. [16], who observed that
their multi-pass streaming algorithm for fractional Set Cover also runs
in the edge-arrival setting.  This module implements that regime with
the classic multiplicative-weights scheme:

* Maintain a weight ``w_u`` per element (Õ(n) words), initially 1.
* Each pass computes, for every set, its current *score*
  ``Σ_{u ∈ S} w_u`` with one accumulator per set (Õ(m) words) — a
  single edge-arrival pass, order-oblivious.
* After the pass, the best-scoring set receives a fractional increment
  and the weights of its elements are multiplied by ``(1 − ε)``
  (computable because a second accumulator pass is not needed: the
  membership facts arrive again next pass, so the weight update is
  applied lazily via a per-set discount — see ``_apply_increment``).
* After ``T`` passes the increments, scaled to feasibility, form a
  fractional cover of value O(log n/ε)·OPT_f (the weighted-greedy
  covering guarantee; [16] obtain (1+ε) with a more elaborate width
  reduction);  :func:`randomized_rounding` converts it to an integral
  cover of expected size O(log n) times its value.

Space: Õ(m + n); passes: one per increment (the [16] tradeoff trades
passes for precision — we expose ``increments`` directly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

import numpy as np

from repro.core.solution import StreamingResult, certificate_from_cover
from repro.errors import ConfigurationError, InvalidCoverError
from repro.multipass.base import MultiPassSetCoverAlgorithm
from repro.streaming.space import (
    SpaceBudget,
    words_for_mapping,
    words_for_set,
)
from repro.streaming.stream import ReplayableStream
from repro.types import ElementId, SeedLike, SetId, make_rng


@dataclass
class FractionalCover:
    """A fractional set-cover solution ``x : S → [0, ∞)``.

    ``value`` is ``Σ x_S``; feasibility means every element has
    ``Σ_{S ∋ u} x_S ≥ 1`` (checked against the ground-truth instance by
    :meth:`coverage_of`).
    """

    weights: Dict[SetId, float] = field(default_factory=dict)

    @property
    def value(self) -> float:
        """The fractional objective Σ x_S."""
        return sum(self.weights.values())

    def coverage_of(self, instance, element: ElementId) -> float:
        """``Σ_{S ∋ element} x_S`` measured against the instance."""
        return sum(
            x
            for set_id, x in self.weights.items()
            if instance.contains(set_id, element)
        )

    def min_coverage(self, instance) -> float:
        """The least-covered element's fractional coverage.

        Adds each weight to its set's members in ``weights`` order, the
        order in which :meth:`coverage_of` sums an element's weights.
        """
        coverage = np.zeros(instance.n)
        for set_id, x in self.weights.items():
            coverage[list(instance.set_members(set_id))] += x
        return float(coverage.min())

    def scaled_to_feasible(self, instance) -> "FractionalCover":
        """Scale ``x`` so every element reaches coverage ≥ 1."""
        floor = self.min_coverage(instance)
        if floor <= 0:
            raise InvalidCoverError(
                "fractional solution leaves some element entirely uncovered"
            )
        if floor >= 1.0:
            return FractionalCover(dict(self.weights))
        return FractionalCover(
            {s: x / floor for s, x in self.weights.items()}
        )


class FractionalMWU(MultiPassSetCoverAlgorithm):
    """Multiplicative-weights fractional Set Cover ([16]'s regime).

    Parameters
    ----------
    increments:
        Number of passes / fractional increments T.
    epsilon:
        Weight decay per covered element (precision/pass tradeoff).
    """

    name = "fractional-mwu"

    def __init__(
        self,
        increments: int = 32,
        epsilon: float = 0.5,
        seed: SeedLike = None,
        space_budget: Optional[SpaceBudget] = None,
    ) -> None:
        super().__init__(seed=seed, space_budget=space_budget)
        if increments < 1:
            raise ConfigurationError(
                f"increments must be >= 1, got {increments}"
            )
        if not 0.0 < epsilon < 1.0:
            raise ConfigurationError(
                f"epsilon must be in (0, 1), got {epsilon}"
            )
        self.increments = increments
        self.epsilon = epsilon
        self.last_fractional: Optional[FractionalCover] = None

    def solve_fractional(
        self, replayable: ReplayableStream
    ) -> FractionalCover:
        """Run the MWU passes and return the (feasibility-scaled) cover."""
        instance = replayable.instance
        n = instance.n
        meter = self._meter

        element_weight: Dict[ElementId, float] = {u: 1.0 for u in range(n)}
        meter.set_component("element-weights", words_for_mapping(n))
        raw = FractionalCover()

        for _ in range(self.increments):
            scores: Dict[SetId, float] = {}
            for set_id, element in replayable.fresh():
                scores[set_id] = scores.get(set_id, 0.0) + element_weight[element]
                meter.set_component(
                    "set-scores", words_for_mapping(len(scores))
                )
            if not scores:
                break
            best_set = max(scores, key=lambda s: (scores[s], -s))
            if scores[best_set] <= 0:
                break
            raw.weights[best_set] = raw.weights.get(best_set, 0.0) + 1.0
            meter.set_component(
                "fractional-x", words_for_mapping(len(raw.weights))
            )
            # Decaying the chosen set's elements needs its membership,
            # which the score pass did not store (only one accumulator
            # per set).  A dedicated decay pass reads the edges again
            # and applies the (1−ε) update — costing one extra pass per
            # increment, the pass/precision trade of [16].
            element_weight = self._decayed_weights(
                replayable, element_weight, best_set
            )
            meter.set_component("set-scores", 0)

        # Scale so the solution is feasible (every element >= 1).
        self.last_fractional = raw
        return raw.scaled_to_feasible(instance)

    def _decayed_weights(
        self,
        replayable: ReplayableStream,
        element_weight: Dict[ElementId, float],
        chosen: SetId,
    ) -> Dict[ElementId, float]:
        """One extra pass applying the (1−ε) decay to ``chosen``'s elements.

        This is the lazily-deferred weight update; it costs one pass per
        increment, matching the pass count [16] trade for precision.
        """
        updated = dict(element_weight)
        for set_id, element in replayable.fresh():
            if set_id == chosen:
                updated[element] = element_weight[element] * (1 - self.epsilon)
        return updated

    def _run(self, replayable: ReplayableStream) -> StreamingResult:
        instance = replayable.instance
        feasible = True
        try:
            fractional = self.solve_fractional(replayable)
        except InvalidCoverError:
            # Too few increments to touch every element fractionally;
            # round the raw solution and let the rounding's patching
            # stage complete the cover.  The reported fractional value is
            # then NOT a relaxation bound — flagged in diagnostics.
            assert self.last_fractional is not None
            fractional = self.last_fractional
            feasible = False
            if not fractional.weights:
                raise
        cover = randomized_rounding(
            fractional, instance, seed=self._rng.getrandbits(63)
        )
        certificate = certificate_from_cover(instance, frozenset(cover))
        self._meter.set_component("cover", words_for_set(len(cover)))
        return StreamingResult(
            cover=frozenset(cover),
            certificate=certificate,
            space=self._meter.report(),
            algorithm=self.name,
            diagnostics={
                "increments": float(self.increments),
                "epsilon": self.epsilon,
                "fractional_value": fractional.value,
                "fractional_feasible": 1.0 if feasible else 0.0,
                "support_size": float(len(fractional.weights)),
            },
        )


def randomized_rounding(
    fractional: FractionalCover,
    instance,
    seed: SeedLike = None,
    rounds_factor: float = 2.0,
) -> Set[SetId]:
    """Round a feasible fractional cover to an integral one.

    Classic independent rounding: normalise ``x`` to probabilities and
    draw ``⌈rounds_factor·ln n⌉·value`` sets; any element still missed
    is patched with its cheapest covering set from the support (or any
    covering set).  Expected size O(log n)·value.
    """
    rng = make_rng(seed)
    n = instance.n
    total = fractional.value
    if total <= 0:
        raise InvalidCoverError("cannot round an empty fractional cover")
    sets = list(fractional.weights)
    probabilities = [fractional.weights[s] / total for s in sets]
    draws = max(1, math.ceil(rounds_factor * math.log(max(2, n)) * total))

    chosen: Set[SetId] = set()
    cumulative: List[float] = []
    acc = 0.0
    for p in probabilities:
        acc += p
        cumulative.append(acc)
    for _ in range(draws):
        r = rng.random() * acc
        lo, hi = 0, len(cumulative) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cumulative[mid] < r:
                lo = mid + 1
            else:
                hi = mid
        chosen.add(sets[lo])

    uncovered = instance.uncovered_by(chosen)
    covering_sets = instance.covering_sets_by_element() if uncovered else []
    for u in sorted(uncovered):
        covering = covering_sets[u]
        if not covering:
            raise InvalidCoverError(f"element {u} is in no set")
        in_support = sorted(covering & set(sets))
        chosen.add(in_support[0] if in_support else min(covering))
    return chosen
