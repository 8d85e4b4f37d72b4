"""Offline greedy set cover — the classical (ln n + 1)-approximation.

Greedy repeatedly takes the set covering the most still-uncovered
elements.  It is the gold-standard practical baseline (Section 1.3 of
the paper: "most practical approaches are based on efficient
implementations of the Greedy Set Cover algorithm"), and because
``greedy_size ≥ OPT`` its output doubles as an upper bound on OPT when
exact solving is out of reach.
"""

from __future__ import annotations

from typing import Set

import numpy as np

from repro.core.solution import (
    StreamingResult,
    certificate_from_cover,
    greedy_column_picks,
)
from repro.errors import InfeasibleInstanceError
from repro.streaming.instance import SetCoverInstance
from repro.streaming.space import SpaceMeter, words_for_set
from repro.types import SetId


def greedy_cover(instance: SetCoverInstance) -> StreamingResult:
    """Run offline greedy; returns a verified-format result.

    Offline algorithms see the whole instance, so the space report
    reflects the full input size — they are baselines for *quality*,
    not space.
    """
    meter = SpaceMeter()
    meter.set_component("input", instance.num_edges)

    set_ids, elements = instance.edge_columns()
    uncovered = np.ones(instance.n, dtype=bool)
    cover: Set[SetId] = set()
    for set_id, _, _ in greedy_column_picks(set_ids, elements, instance.m, uncovered):
        cover.add(set_id)
        meter.set_component("cover", words_for_set(len(cover)))
    if uncovered.any():
        raise InfeasibleInstanceError(
            f"{np.count_nonzero(uncovered)} element(s) cannot be covered by any set"
        )

    certificate = certificate_from_cover(instance, frozenset(cover))
    return StreamingResult(
        cover=frozenset(cover),
        certificate=certificate,
        space=meter.report(),
        algorithm="greedy",
    )


def greedy_cover_size(instance: SetCoverInstance) -> int:
    """Just the greedy cover size (upper bound on OPT)."""
    return greedy_cover(instance).cover_size
