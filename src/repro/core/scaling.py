"""Parameter scaling: paper constants vs laptop-scale constants.

The theorems hide poly-logarithmic factors; the algorithm listings make
them explicit (thresholds like ``j · log⁶ m``, probabilities like
``C · 2ʲ√n·log m / m``).  Those exponents only "bite" at astronomically
large ``m`` — at n = 10²..10⁴ a log⁶ m threshold exceeds every set size
and the algorithm would never sample anything.

:class:`Scaling` collects every tunable constant in one place.  Two
presets are provided:

* :meth:`Scaling.paper` — the listings verbatim.  Useful for unit tests
  of the formulas and for truly huge synthetic runs.
* :meth:`Scaling.practical` — identical *mechanisms* (geometric level
  structure, doubling sampling rates, batch rotation, optimistic
  marking) with the poly-log slack collapsed so behaviour is observable
  at laptop scale.  This is the preset the experiments use; DESIGN.md
  documents the substitution.

All experiments record ``scaling.name`` next to their measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import ConfigurationError


def _log2(x: float) -> float:
    """log₂ clamped below at 1 so products/divisions stay sane at tiny sizes."""
    return max(1.0, math.log2(max(2.0, x)))


@dataclass(frozen=True)
class Scaling:
    """Every tunable constant of the paper's three algorithms.

    Attributes
    ----------
    name:
        Label recorded in experiment output (``"paper"`` / ``"practical"``).
    sample_constant:
        The constant ``C`` multiplying sampling probabilities
        (Algorithm 1 lines 6 and 29; KK inclusion rule).
    special_threshold_log_exp:
        Exponent on ``log m`` in Algorithm 1's special-set threshold
        ``j · logᵉ m`` (paper: 6).
    special_threshold_factor:
        Extra multiplier on that threshold (paper: 1).
    detect_log_exp:
        Exponent on ``log m`` in the epoch-0 detection-window length
        ``Θ(√n · N · logᵉ m / m)`` (paper: 1).
    high_degree_factor:
        Degree cut-off multiplier: elements of degree ≥ this · m/√n are
        detected in epoch 0 (paper: 1.1).
    mark_count_factor:
        Occurrence-count multiplier for marking during detection
        (paper: 1.085, between the 1.0807 and 1.089 of Lemma 6's proof).
    subepoch_log_exp:
        Exponent on ``log m`` dividing the subepoch length
        ``ℓᵢ = 2ⁱ·N / (n · logᵉ m)`` (paper: 1).
    sample_log_exp:
        Exponent on ``log m`` in the sampling probabilities ``p₀``/``p_j``
        (paper: 1).
    min_tracking_mark:
        Floor on the tracked-edge count that triggers optimistic marking
        (line 31); at laptop scale the paper's ``1.085·m·2^{i-1}/(n²·log m)``
        threshold drops below 1 and would mark everything.
    kk_level_width_factor:
        Multiplier on ``√n`` for the KK level width (paper: 1).
    min_algorithms / min_epochs / min_subepochs:
        Lower clamps on Algorithm 1's loop counts so tiny instances
        still exercise every phase.
    enable_tracking:
        Whether Algorithm 1 runs the tracked-sample / optimistic-marking
        machinery (lines 24–25 and 30–32).  Disabling it is an ablation,
        not a preset default.
    """

    name: str = "paper"
    sample_constant: float = 1.0
    special_threshold_log_exp: float = 6.0
    special_threshold_factor: float = 1.0
    detect_log_exp: float = 1.0
    high_degree_factor: float = 1.1
    mark_count_factor: float = 1.085
    subepoch_log_exp: float = 1.0
    subepoch_factor: float = 1.0
    sample_log_exp: float = 1.0
    min_tracking_mark: float = 1.0
    kk_level_width_factor: float = 1.0
    min_algorithms: int = 1
    min_epochs: int = 1
    min_subepochs: int = 1
    max_epochs: Optional[int] = None
    budget_derived_algorithms: bool = False
    phase_budget_fraction: float = 1.0
    enable_tracking: bool = True

    def __post_init__(self) -> None:
        if self.sample_constant <= 0:
            raise ConfigurationError("sample_constant must be positive")
        if self.special_threshold_factor <= 0:
            raise ConfigurationError("special_threshold_factor must be positive")
        if self.high_degree_factor <= 0:
            raise ConfigurationError("high_degree_factor must be positive")
        for attr in ("min_algorithms", "min_epochs", "min_subepochs"):
            if getattr(self, attr) < 1:
                raise ConfigurationError(f"{attr} must be >= 1")
        if not 0.0 < self.phase_budget_fraction <= 1.0:
            raise ConfigurationError(
                "phase_budget_fraction must be in (0, 1], got "
                f"{self.phase_budget_fraction}"
            )
        if self.max_epochs is not None and self.max_epochs < 1:
            raise ConfigurationError("max_epochs must be >= 1 when set")

    # -- presets ----------------------------------------------------------

    @classmethod
    def paper(cls) -> "Scaling":
        """The listings verbatim (poly-log exponents intact)."""
        return cls(name="paper")

    @classmethod
    def practical(cls) -> "Scaling":
        """Laptop-scale preset: same mechanisms, poly-log slack collapsed.

        ``log⁶ m`` thresholds become small constants per level, subepoch
        lengths drop the ``log m`` divisor (``ℓᵢ = τ·2ⁱ·N/n``) so a set
        covering ~``n/2ⁱ`` uncovered elements receives about the
        threshold many edges in its subepoch — the same detection logic
        the paper's asymptotic constants produce at galactic sizes — and
        the number of inner algorithms ``K`` is derived from the stream
        budget instead of the paper's ``½log n − 3·log log m − 2``
        (which is negative for every laptop-scale ``n``).  Every call
        returns the same frozen object, built and checked once: kk,
        Algorithm 1 and the length-oblivious wrapper read it on every
        construction.
        """
        return _PRACTICAL

    def with_overrides(self, **kwargs) -> "Scaling":
        """A copy with the given fields replaced (keyword arguments only)."""
        return replace(self, **kwargs)

    # -- derived quantities used by the algorithms -------------------------

    def special_threshold(self, j: int, m: int) -> float:
        """Algorithm 1's special-set counter threshold for epoch ``j``."""
        return (
            j
            * self.special_threshold_factor
            * _log2(m) ** self.special_threshold_log_exp
        )

    def epoch0_sample_probability(self, n: int, m: int) -> float:
        """``p₀ = C·√n·log m / m`` (Algorithm 1 line 6), capped at 1."""
        log_factor = _log2(m) ** self.sample_log_exp
        p = self.sample_constant * math.sqrt(n) * log_factor / m
        return min(1.0, p)

    def special_sample_probability(self, j: int, n: int, m: int) -> float:
        """``p_j = C·2ʲ·√n·log m / m`` (Algorithm 1 line 29), capped at 1."""
        log_factor = _log2(m) ** self.sample_log_exp
        p = self.sample_constant * (2.0**j) * math.sqrt(n) * log_factor / m
        return min(1.0, p)

    def tracking_mark_threshold(self, i: int, n: int, m: int) -> float:
        """Tracked-edge count that optimistically marks an element (line 31).

        Paper value ``1.085 · m·2^{i-1} / (n²·log m)``, floored at
        :attr:`min_tracking_mark` so laptop-scale runs do not mark on a
        single tracked edge.
        """
        raw = self.mark_count_factor * m * (2.0 ** (i - 1)) / (n * n * _log2(m))
        return max(self.min_tracking_mark, raw)

    def tracking_sample_probability(self, j: int, n: int) -> float:
        """``q_j = min(2ʲ/n, 1)`` (Algorithm 1 line 30)."""
        return min(1.0, (2.0**j) / n)

    def subepoch_length(self, i: int, n: int, m: int, stream_length: int) -> int:
        """``ℓᵢ = factor·2ⁱ·N / (n · logᵉ m)`` (Algorithm 1 line 18), ≥ 1."""
        denominator = n * _log2(m) ** self.subepoch_log_exp
        return max(
            1, int(self.subepoch_factor * (2.0**i) * stream_length / denominator)
        )

    def detection_window(self, n: int, m: int, stream_length: int) -> int:
        """Epoch-0 detection prefix length ``Θ(√n·N·log m / m)`` (line 7)."""
        window = (
            math.sqrt(n)
            * stream_length
            * _log2(m) ** self.detect_log_exp
            / m
        )
        return max(1, min(stream_length, int(window)))

    def high_degree_cutoff(self, n: int, m: int) -> float:
        """Degree above which epoch 0 should detect an element: ``1.1·m/√n``."""
        return self.high_degree_factor * m / math.sqrt(n)

    def detection_mark_count(self, n: int, m: int, stream_length: int) -> float:
        """Occurrence count in the detection window that triggers marking.

        An element of degree exactly the cutoff appears about
        ``cutoff · window / N`` times in the window; we mark at
        ``mark_count_factor / high_degree_factor`` of that expectation
        (paper: 1.085·C·log m against a 1.1-cutoff expectation of
        1.1·C·log m), never below 1.  An empty stream (``N = 0``) reads
        as ``N = 1``, so the count stays defined.
        """
        window = self.detection_window(n, m, stream_length)
        expected_at_cutoff = (
            self.high_degree_cutoff(n, m) * window / max(1, stream_length)
        )
        return max(
            1.0,
            expected_at_cutoff * self.mark_count_factor / self.high_degree_factor,
        )

    def num_algorithms(self, n: int, m: int) -> int:
        """Number of inner algorithms ``K``.

        Paper: ``K = ½log n − 3·log log m − 2`` (line 9), clamped to be
        usable.  With :attr:`budget_derived_algorithms` (practical
        preset) ``K`` is instead the largest value for which the phases
        fit the stream budget, ``2^{K+1} ≤ √n/(epochs·τ₁)`` — the same
        role (``2^K ≈ √n`` up to slack), without the log-log terms that
        are negative at laptop scale.
        """
        if self.budget_derived_algorithms:
            epochs = self.num_epochs(n, m)
            tau1 = max(1.0, self.special_threshold(1, m))
            capacity = math.sqrt(n) / (epochs * tau1)
            raw = math.floor(math.log2(capacity)) - 1 if capacity > 2 else 0
            return max(self.min_algorithms, raw)
        raw = 0.5 * _log2(n) - 3.0 * math.log2(_log2(m)) - 2.0
        return max(self.min_algorithms, int(raw))

    def num_epochs(self, n: int, m: int) -> int:
        """``log m − ½ log n`` epochs per algorithm (line 12), clamped."""
        raw = _log2(m) - 0.5 * _log2(n)
        epochs = max(self.min_epochs, int(raw))
        if self.max_epochs is not None:
            epochs = min(epochs, self.max_epochs)
        return epochs

    def num_batches(self, n: int) -> int:
        """``√n`` subepochs/batches per epoch (line 16), clamped."""
        return max(self.min_subepochs, int(math.isqrt(n)))

    def kk_level_width(self, n: int) -> int:
        """KK uncovered-degree level width ``√n`` (Section 1.2)."""
        return max(1, int(self.kk_level_width_factor * math.sqrt(n)))

    def kk_inclusion_probability(self, level: int, n: int, m: int) -> float:
        """KK inclusion rule ``2ⁱ·√n/m`` at level ``i``, capped at 1."""
        p = self.sample_constant * (2.0**level) * math.sqrt(n) / m
        return min(1.0, p)


#: The :meth:`Scaling.practical` preset.
_PRACTICAL = Scaling(
    name="practical",
    sample_constant=1.0,
    special_threshold_log_exp=0.0,
    special_threshold_factor=2.0,
    detect_log_exp=1.0,
    subepoch_log_exp=0.0,
    subepoch_factor=2.0,
    sample_log_exp=1.0,
    min_tracking_mark=3.0,
    min_algorithms=1,
    min_epochs=2,
    min_subepochs=1,
    max_epochs=4,
    budget_derived_algorithms=True,
    phase_budget_fraction=0.5,
)
