"""Metrics extracted from algorithm runs, plus scaling-law fits.

The experiments turn Table-1's asymptotic claims into measurable
statements via log-log slope fits: if space ∝ m·n/α², the fitted
exponent of space against α at fixed (n, m) is ≈ −2.  :func:`fit_power_law`
provides the fit; :class:`RunMetrics` is the per-run record every
experiment produces.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.solution import StreamingResult
from repro.streaming.instance import SetCoverInstance


@dataclass
class RunMetrics:
    """One run, flattened for tables and aggregation."""

    algorithm: str
    order: str
    n: int
    m: int
    stream_length: int
    cover_size: int
    peak_words: int
    opt_handle: int
    opt_is_exact: bool
    valid: bool
    seed: Optional[int] = None
    diagnostics: Dict[str, float] = field(default_factory=dict)

    @property
    def ratio(self) -> float:
        """Cover size over the OPT handle (conservative if not exact)."""
        return self.cover_size / max(1, self.opt_handle)

    @property
    def normalized_ratio(self) -> float:
        """Ratio divided by √n — flat iff the algorithm is Θ(√n)-approx."""
        return self.ratio / math.sqrt(self.n)

    @property
    def words_per_set(self) -> float:
        """Peak words divided by m — flat iff space is Θ̃(m)."""
        return self.peak_words / max(1, self.m)


def metrics_from_result(
    result: StreamingResult,
    instance: SetCoverInstance,
    order: str,
    opt_handle: int,
    opt_is_exact: bool,
    stream_length: Optional[int] = None,
    seed: Optional[int] = None,
) -> RunMetrics:
    """Flatten a :class:`StreamingResult` into a :class:`RunMetrics`."""
    return RunMetrics(
        algorithm=result.algorithm,
        order=order,
        n=instance.n,
        m=instance.m,
        stream_length=(
            stream_length if stream_length is not None else instance.num_edges
        ),
        cover_size=result.cover_size,
        peak_words=result.space.peak_words,
        opt_handle=opt_handle,
        opt_is_exact=opt_is_exact,
        valid=result.is_valid(instance),
        seed=seed,
        diagnostics=dict(result.diagnostics),
    )


@dataclass(frozen=True)
class Aggregate:
    """Mean / stdev / min / max of one metric over replicated runs."""

    mean: float
    stdev: float
    minimum: float
    maximum: float
    count: int

    def __str__(self) -> str:
        return f"{self.mean:.2f}±{self.stdev:.2f}"


def aggregate(values: Sequence[float]) -> Aggregate:
    """Aggregate a value sequence (stdev is 0 for a single value)."""
    if not values:
        raise ValueError("cannot aggregate an empty sequence")
    return Aggregate(
        mean=statistics.fmean(values),
        stdev=statistics.stdev(values) if len(values) > 1 else 0.0,
        minimum=min(values),
        maximum=max(values),
        count=len(values),
    )


def fit_power_law(
    xs: Sequence[float], ys: Sequence[float]
) -> Tuple[float, float]:
    """Least-squares fit of ``y = c·x^e`` in log-log space.

    Returns ``(exponent, constant)``.  Used to compare measured scaling
    exponents against the theorems' predictions (e.g. Algorithm 2's
    space-vs-α exponent should be ≈ −2).
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    if len(xs) < 2:
        raise ValueError("need at least two points to fit")
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise ValueError("power-law fit needs positive data")
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mean_x = statistics.fmean(lx)
    mean_y = statistics.fmean(ly)
    sxx = sum((x - mean_x) ** 2 for x in lx)
    if sxx == 0:
        raise ValueError("all x values identical; cannot fit")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(lx, ly))
    exponent = sxy / sxx
    constant = math.exp(mean_y - exponent * mean_x)
    return exponent, constant


def geometric_decay_rate(counts: Sequence[float]) -> Optional[float]:
    """Mean ratio ``counts[i+1]/counts[i]`` over positive entries.

    Used by the invariants experiment: the special-set counts per epoch
    should decay with ratio ≤ ~0.55 (Lemma 8's 1.1·m/2ʲ bound).
    Returns ``None`` when there are fewer than two positive entries.
    """
    ratios: List[float] = []
    for prev, curr in zip(counts, counts[1:]):
        if prev > 0 and curr > 0:
            ratios.append(curr / prev)
        elif prev > 0 and curr == 0:
            ratios.append(0.0)
    if not ratios:
        return None
    return statistics.fmean(ratios)
