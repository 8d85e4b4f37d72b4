"""Composable, seeded fault injection for edge streams.

Each fault models a concrete way a real producer can violate the
paper's structural assumptions (Section 2: every element covered, exact
stream length known, well-formed ``(set, element)`` ids):

============  ==========================================================
kind          effect on the stream
============  ==========================================================
``drop``      each edge is independently deleted with probability *rate*
``duplicate`` each edge is independently emitted twice with prob. *rate*
``corrupt``   each edge is independently replaced, with prob. *rate*, by
              an edge referencing an *unknown* set id (``>= m``) or an
              unknown element id (``>= n``)
``truncate``  the final ``rate`` fraction of the stream never arrives
``reorder``   edges are shuffled within consecutive windows spanning a
              ``rate`` fraction of the stream (local reordering — the
              perturbation that separates random-order from adversarial
              guarantees)
``lie-length`` edges are untouched but the stream *declares* a length
              inflated by a ``rate`` fraction (epoch-boundary sizing is
              misled; strict consumers can detect the lie)
============  ==========================================================

Injection is **reproducible** — every :class:`FaultSpec` carries its own
seed and perturbation happens once, up front, as a rewrite of the frozen
buffer's ``int64`` edge columns (a mask, a repeat, a patched copy, a
slice or a permutation) — and **space-isolated**: the injector charges
its working buffer to a *private*
:class:`~repro.streaming.space.SpaceMeter` recorded on the
:class:`InjectionReport`, so the algorithm under test reports exactly
the :class:`SpaceReport` it would on a clean stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import uniforms
from repro.errors import ConfigurationError
from repro.streaming.instance import SetCoverInstance
from repro.streaming.space import SpaceMeter, SpaceReport
from repro.streaming.stream import EdgesLike, EdgeStream, FrozenEdges
from repro.types import SeedLike, make_rng, shuffle

#: Every fault kind :func:`apply_faults` understands, in canonical order.
FAULT_KINDS: Tuple[str, ...] = (
    "drop",
    "duplicate",
    "corrupt",
    "truncate",
    "reorder",
    "lie-length",
)


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject: a kind, an intensity, and its own seed."""

    kind: str
    rate: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            known = ", ".join(FAULT_KINDS)
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; known kinds: {known}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigurationError(
                f"fault rate must be in [0, 1], got {self.rate}"
            )


@dataclass
class InjectionReport:
    """What a fault pipeline actually did to a stream.

    ``counts`` maps each applied fault kind to the number of edges it
    touched; ``space`` is the injector's own (isolated) space report so
    harnesses can audit that injection cost was never charged to the
    algorithm under test.
    """

    original_length: int
    final_length: int
    declared_length: int
    counts: Dict[str, int] = field(default_factory=dict)
    space: Optional[SpaceReport] = None

    @property
    def lies_about_length(self) -> bool:
        """Whether the stream's declared N differs from the truth."""
        return self.declared_length != self.final_length


def _apply_one(
    set_ids: np.ndarray,
    elements: np.ndarray,
    spec: FaultSpec,
    n: int,
    m: int,
    declared: Optional[int],
    report: InjectionReport,
) -> Tuple[np.ndarray, np.ndarray, Optional[int]]:
    """One fault as a rewrite of the edge columns.

    Each kind draws the coins a per-edge loop over the stream would
    draw, in the same order, so the perturbation is a function of the
    spec's seed and the stream length alone.
    """
    rng = make_rng(spec.seed)
    rate = spec.rate
    k = len(set_ids)
    touched = 0
    if spec.kind == "drop":
        dropped = uniforms(rng, k) < rate
        touched = int(np.count_nonzero(dropped))
        set_ids, elements = set_ids[~dropped], elements[~dropped]
    elif spec.kind == "duplicate":
        copies = 1 + (uniforms(rng, k) < rate)
        touched = int(np.count_nonzero(copies == 2))
        set_ids, elements = np.repeat(set_ids, copies), np.repeat(elements, copies)
    elif spec.kind == "corrupt":
        # The replacement id draws interleave with the per-edge coins,
        # so the coins come one edge at a time.
        draw, randrange = rng.random, rng.randrange
        bad_sets: Dict[int, int] = {}
        bad_elements: Dict[int, int] = {}
        for position in range(k):
            if draw() < rate:
                if draw() < 0.5:
                    # Unknown set id: outside range(m).
                    bad_sets[position] = m + randrange(1, m + 2)
                else:
                    # Unknown element id: outside range(n).
                    bad_elements[position] = n + randrange(1, n + 2)
        touched = len(bad_sets) + len(bad_elements)
        set_ids, elements = set_ids.copy(), elements.copy()
        set_ids[list(bad_sets)] = list(bad_sets.values())
        elements[list(bad_elements)] = list(bad_elements.values())
    elif spec.kind == "truncate":
        keep = k - int(rate * k)
        touched = k - keep
        set_ids, elements = set_ids[:keep], elements[:keep]
    elif spec.kind == "reorder":
        # A shuffle's draws depend only on the list's length, so
        # shuffling positions yields the order shuffling edges would.
        window = max(2, int(rate * k))
        order: List[int] = []
        for start in range(0, k, window):
            chunk = list(range(start, min(start + window, k)))
            shuffle(rng, chunk)
            order.extend(chunk)
        touched = k
        positions = np.array(order, dtype=np.int64)
        set_ids, elements = set_ids[positions], elements[positions]
    elif spec.kind == "lie-length":
        base = k if declared is None else declared
        declared = base + max(1, int(rate * max(1, base)))
        touched = 1
    report.counts[spec.kind] = report.counts.get(spec.kind, 0) + touched
    return set_ids, elements, declared


def apply_faults(
    edges: EdgesLike,
    n: int,
    m: int,
    faults: Sequence[FaultSpec],
) -> Tuple[FrozenEdges, Optional[int], InjectionReport]:
    """Run ``edges`` through the fault pipeline, in order.

    Returns the perturbed edges (column-backed), the declared length
    (``None`` when the stream remains honest about N), and an
    :class:`InjectionReport`.  Deterministic: each spec's perturbation
    is driven solely by its own seed.  The input columns are never
    written; a truncation, a length lie or an empty pipeline returns
    views of them.
    """
    set_ids, elements = FrozenEdges(edges).columns()
    meter = SpaceMeter()
    report = InjectionReport(
        original_length=len(set_ids),
        final_length=len(set_ids),
        declared_length=len(set_ids),
    )
    declared: Optional[int] = None
    # The injector's working buffer is the only state it holds; charge
    # it to the private meter so the cost is auditable yet invisible to
    # the algorithm's own SpaceReport.
    meter.set_component("fault-injector-buffer", 2 * len(set_ids))
    for spec in faults:
        set_ids, elements, declared = _apply_one(
            set_ids, elements, spec, n, m, declared, report
        )
        meter.set_component("fault-injector-buffer", 2 * len(set_ids))
    report.final_length = len(set_ids)
    report.declared_length = declared if declared is not None else len(set_ids)
    meter.set_component("fault-injector-buffer", 0)
    report.space = meter.report()
    return FrozenEdges.from_columns(set_ids, elements), declared, report


class FaultyStream(EdgeStream):
    """A one-pass edge stream with faults injected up front.

    Behaves exactly like :class:`EdgeStream` — same reader / chunk /
    iterator protocol, same one-pass discipline — over the perturbed
    ordering, whose column buffer it adopts.  The :attr:`injection`
    report records what was done.
    """

    def __init__(
        self,
        instance: SetCoverInstance,
        edges: EdgesLike,
        faults: Sequence[FaultSpec],
        order_name: str = "canonical",
    ) -> None:
        perturbed, declared, report = apply_faults(
            edges, instance.n, instance.m, faults
        )
        super().__init__(
            instance,
            perturbed,
            order_name=f"{order_name}+faults",
            declared_length=declared,
        )
        self.injection = report
        self.faults = tuple(faults)


def inject(stream: EdgeStream, faults: Sequence[FaultSpec]) -> FaultyStream:
    """Wrap an *unconsumed* stream with a fault pipeline.

    The input stream is marked consumed (its ordering has been read),
    so the faulty view is the only live pass — the one-pass discipline
    carries over to the perturbed stream.
    """
    edges = stream.peek_all()
    stream.reader()  # mark the source consumed; its pass is spent here
    return FaultyStream(
        stream.instance, edges, faults, order_name=stream.order_name
    )


def fault_plan(
    kinds: Sequence[str], rate: float, seed: SeedLike = 0
) -> List[FaultSpec]:
    """Build one :class:`FaultSpec` per kind with derived per-kind seeds."""
    rng = make_rng(seed)
    return [
        FaultSpec(kind=kind, rate=rate, seed=rng.getrandbits(63))
        for kind in kinds
    ]
