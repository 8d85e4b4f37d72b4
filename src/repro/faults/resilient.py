"""Graceful degradation policies for streaming set-cover algorithms.

:class:`ResilientAlgorithm` wraps any
:class:`~repro.core.base.StreamingSetCoverAlgorithm` and turns hard
failures on hostile streams into *accounted-for* outcomes.  The global
invariant the chaos harness enforces is:

    every run ends in a **valid cover**, a **typed** :class:`ReproError`,
    or an explicit :class:`DegradationRecord` — never a bare
    ``KeyError``/``IndexError`` and never a silently wrong answer.

Three policies:

``fail_fast``
    Run the algorithm untouched.  Whatever it raises propagates.  This
    is the paper-faithful mode: structural assumptions are trusted.
``skip_bad_edges``
    Sanitize the stream first — edges referencing unknown set/element
    ids (or pairs the instance denies) are dropped, and a mis-declared
    stream length is corrected — then run.  If anything was repaired,
    the (valid) result is paired with a :class:`DegradationRecord`
    stating which invariant was relaxed.  Algorithm errors still
    propagate.
``best_effort``
    ``skip_bad_edges`` sanitization *plus* failure salvage: on any
    :class:`ReproError` (e.g. :class:`SpaceBudgetExceededError`, or the
    patching failure a truncated stream causes) — or a bare
    ``KeyError``/``IndexError``/``ValueError`` escaping an algorithm —
    the partial state attached by the algorithm base class is converted
    into a partial result plus a degradation record instead of raising.

Sanitization is harness-level work: it happens before the algorithm's
pass begins and is *not* charged to the algorithm's space meter, for
the same reason the experiment runner's frozen stream buffers are not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.base import StreamingSetCoverAlgorithm
from repro.core.solution import StreamingResult, witness_columns
from repro.errors import ConfigurationError, PartialState, ReproError
from repro.obs import events as obs_events
from repro.streaming.space import SpaceReport
from repro.streaming.stream import EdgeStream, FrozenEdges

#: Recognised degradation policies, mildest first.
POLICIES: Tuple[str, ...] = ("fail_fast", "skip_bad_edges", "best_effort")

#: Bare exceptions ``best_effort`` converts into degradation records.
_SALVAGEABLE_BARE = (KeyError, IndexError, ValueError)


@dataclass(frozen=True)
class DegradationRecord:
    """Explicit account of how and why a run fell short of the paper's contract.

    Attributes
    ----------
    policy:
        The policy that produced this record.
    relaxed_invariant:
        Which structural assumption was relaxed — e.g.
        ``"well-formed-edges"`` (unknown ids skipped),
        ``"declared-length"`` (length lie corrected), or
        ``"complete-cover"`` (a failure was salvaged into a partial
        cover).
    edges_skipped:
        Malformed edges dropped by sanitization.
    coverage_fraction:
        Fraction of the universe the emitted cover genuinely covers
        (1.0 for a repaired-but-complete run).
    uncovered_count:
        Elements the emitted cover misses.
    error_type, error_message:
        The failure that was salvaged, if any (empty for pure repairs).
    edges_consumed:
        Stream position reached before the failure (full length for
        repairs).
    meter_peak:
        Peak words the algorithm had charged when it stopped.
    """

    policy: str
    relaxed_invariant: str
    edges_skipped: int = 0
    coverage_fraction: float = 1.0
    uncovered_count: int = 0
    error_type: str = ""
    error_message: str = ""
    edges_consumed: int = 0
    meter_peak: int = 0
    details: Dict[str, float] = field(default_factory=dict)


@dataclass
class ResilientResult:
    """Outcome of a resilient run: a result, a degradation record, or both.

    ``result is not None and degradation is None``  — clean, full cover.
    ``result is not None and degradation is not None`` — usable cover,
    but an invariant was relaxed (repair) or the cover is partial
    (salvage; check ``degradation.coverage_fraction``).
    ``result is None`` — nothing salvageable; ``degradation`` says why.
    """

    algorithm: str
    policy: str
    result: Optional[StreamingResult] = None
    degradation: Optional[DegradationRecord] = None

    @property
    def ok(self) -> bool:
        """True iff the run completed with no invariant relaxed."""
        return self.result is not None and self.degradation is None


class ResilientAlgorithm:
    """Run a wrapped algorithm under a graceful-degradation policy."""

    def __init__(
        self,
        algorithm: StreamingSetCoverAlgorithm,
        policy: str = "fail_fast",
    ) -> None:
        if policy not in POLICIES:
            known = ", ".join(POLICIES)
            raise ConfigurationError(
                f"unknown degradation policy {policy!r}; known: {known}"
            )
        self.algorithm = algorithm
        self.policy = policy

    @property
    def name(self) -> str:
        return f"resilient[{self.policy}]({self.algorithm.name})"

    def run(self, stream: EdgeStream) -> ResilientResult:
        """One pass under the configured policy."""
        if self.policy == "fail_fast":
            result = self.algorithm.run(stream)
            return ResilientResult(
                algorithm=self.algorithm.name, policy=self.policy, result=result
            )

        sanitized, skipped, length_lied = _sanitize(stream)
        repairs = []
        if skipped:
            repairs.append("well-formed-edges")
        if length_lied:
            repairs.append("declared-length")
        tracer = self.algorithm.tracer
        if tracer.enabled and (skipped or length_lied):
            tracer.event(
                obs_events.STREAM_SANITIZED,
                policy=self.policy,
                edges_skipped=skipped,
                length_lied=length_lied,
            )

        if self.policy == "skip_bad_edges":
            result = self.algorithm.run(sanitized)
            return self._finish(stream, result, skipped, repairs)

        # best_effort
        try:
            result = self.algorithm.run(sanitized)
        except ReproError as error:
            return self._salvage(
                stream, sanitized, error, error.partial, skipped, repairs
            )
        except _SALVAGEABLE_BARE as error:
            return self._salvage(
                stream, sanitized, error, getattr(error, "partial", None),
                skipped, repairs,
            )
        return self._finish(stream, result, skipped, repairs)

    # -- internals -------------------------------------------------------

    def _trace_degradation(self, record: DegradationRecord) -> None:
        """Mirror ``record`` into the wrapped algorithm's trace."""
        tracer = self.algorithm.tracer
        if tracer.enabled:
            tracer.event(
                obs_events.DEGRADATION,
                policy=record.policy,
                relaxed_invariant=record.relaxed_invariant,
                edges_skipped=record.edges_skipped,
                coverage_fraction=record.coverage_fraction,
                uncovered_count=record.uncovered_count,
                error_type=record.error_type,
            )

    def _finish(
        self,
        stream: EdgeStream,
        result: StreamingResult,
        skipped: int,
        repairs: list,
    ) -> ResilientResult:
        degradation = None
        if repairs:
            degradation = DegradationRecord(
                policy=self.policy,
                relaxed_invariant="+".join(repairs),
                edges_skipped=skipped,
                coverage_fraction=1.0,
                uncovered_count=0,
                edges_consumed=stream.actual_length,
                meter_peak=result.space.peak_words,
            )
            self._trace_degradation(degradation)
        return ResilientResult(
            algorithm=self.algorithm.name,
            policy=self.policy,
            result=result,
            degradation=degradation,
        )

    def _salvage(
        self,
        stream: EdgeStream,
        sanitized: EdgeStream,
        error: BaseException,
        partial: Optional[PartialState],
        skipped: int,
        repairs: list,
    ) -> ResilientResult:
        instance = stream.instance
        n = instance.n
        partial = partial if partial is not None else PartialState()
        # Only in-range sets can contribute coverage; anything else in a
        # salvaged cover would crash the ground-truth union.
        safe_cover = frozenset(
            s for s in partial.cover if 0 <= s < instance.m
        )
        covered = instance.coverage_of(safe_cover)
        coverage_fraction = len(covered) / n if n else 1.0
        elements, witnesses = witness_columns(partial.certificate)
        kept = instance.edge_mask(witnesses, elements)
        in_cover = np.zeros(instance.m, dtype=bool)
        in_cover[list(safe_cover)] = True
        kept[kept] = in_cover[witnesses[kept]]
        safe_certificate = dict(
            zip(elements[kept].tolist(), witnesses[kept].tolist())
        )
        degradation = DegradationRecord(
            policy=self.policy,
            relaxed_invariant="+".join(repairs + ["complete-cover"]),
            edges_skipped=skipped,
            coverage_fraction=coverage_fraction,
            uncovered_count=n - len(covered),
            error_type=type(error).__name__,
            error_message=str(error),
            edges_consumed=partial.edges_consumed or sanitized.position,
            meter_peak=partial.meter_peak,
        )
        self._trace_degradation(degradation)
        result = None
        if safe_cover or safe_certificate:
            # A synthetic report: the meter object died with the run, so
            # the salvaged result carries the recorded peak only.
            result = StreamingResult(
                cover=safe_cover,
                certificate=safe_certificate,
                space=SpaceReport(
                    peak_words=partial.meter_peak,
                    final_words=partial.meter_peak,
                ),
                algorithm=self.algorithm.name,
                diagnostics={"salvaged": 1.0},
            )
        return ResilientResult(
            algorithm=self.algorithm.name,
            policy=self.policy,
            result=result,
            degradation=degradation,
        )


def _sanitize(stream: EdgeStream) -> Tuple[EdgeStream, int, bool]:
    """Drop malformed edges and correct a mis-declared length.

    Returns ``(clean_stream, edges_skipped, length_lied)``.  An edge is
    kept iff its ids are in range and the pair is one of the instance's
    edges (:meth:`~repro.streaming.instance.SetCoverInstance.edge_mask`).
    Kept edges stay in arrival order.  The input stream's pass is spent
    here; the sanitized stream is the only live one-pass view
    afterwards.
    """
    instance = stream.instance
    length_lied = stream.length != stream.actual_length
    frozen = stream.peek_all()
    stream.reader()  # spend the source's single pass
    set_ids, elements = frozen.columns()
    kept = np.flatnonzero(instance.edge_mask(set_ids, elements))
    skipped = len(set_ids) - len(kept)
    if skipped:
        frozen = FrozenEdges.from_columns(set_ids[kept], elements[kept])
    order_name = stream.order_name
    if skipped or length_lied:
        order_name += "+sanitized"
    clean = EdgeStream(instance, frozen, order_name=order_name)
    return clean, skipped, length_lied
