"""Set-based reference engines for the protocol merges.

The oracle for :func:`repro.distributed.chain.chain_merge` and
:func:`repro.distributed.chain.tournament_merge`, which hold the merge
state as arrays: these hold it as Python sets, dicts and sorted tuples,
step by step as the protocol is stated.  They reuse the library's
outcome type, τ rules and tournament schedule, so a divergence can only
come from the state handling.  ``test_chain_oracle.py`` runs both sides
on generated inputs and compares every outcome field.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.distributed.chain import (
    PartySets,
    ProtocolOutcome,
    SetKey,
    adaptive_threshold_for,
    state_words,
    tournament_rounds,
)
from repro.errors import ConfigurationError, ProtocolError
from repro.types import ElementId

State = Tuple[Set[ElementId], Dict[ElementId, SetKey], List[SetKey]]
Snapshot = Tuple[
    Tuple[ElementId, ...],
    Tuple[Tuple[ElementId, SetKey], ...],
    Tuple[SetKey, ...],
]


def baseline_tau(
    n: int,
    party_sets: Sequence[PartySets],
    threshold: Optional[float],
    adaptive: bool,
) -> float:
    """Validate the parties and τ options; return ``√(n/t)`` unless
    ``threshold`` overrides it."""
    t = len(party_sets)
    if t < 1:
        raise ConfigurationError(f"need at least 1 party, got {t}")
    if adaptive and threshold is not None:
        raise ConfigurationError(
            "adaptive re-estimation and an explicit threshold are "
            "mutually exclusive"
        )
    return threshold if threshold is not None else math.sqrt(n / t)


def greedy_take(
    local: Sequence[Tuple[SetKey, Set[ElementId]]],
    uncovered: Set[ElementId],
    chosen: List[SetKey],
    tau: float,
) -> None:
    """Repeatedly take any own set with gain ≥ τ, in enumeration order,
    until a full pass takes nothing."""
    progress = True
    while progress:
        progress = False
        for key, members in local:
            gain = len(members & uncovered)
            if gain >= tau and gain > 0:
                chosen.append(key)
                uncovered -= members
                progress = True


def own_sets(
    share: PartySets,
    members_by_key: Dict[SetKey, Set[ElementId]],
) -> List[Tuple[SetKey, Set[ElementId]]]:
    """Copy one party's share and fold its views into ``members_by_key``."""
    local = [(key, set(members)) for key, members in share]
    for key, members in local:
        members_by_key.setdefault(key, set()).update(members)
    return local


def snapshot(state: State) -> Snapshot:
    """``(sorted uncovered, sorted witness pairs, chosen keys)``."""
    uncovered, witnesses, chosen = state
    return (
        tuple(sorted(uncovered)),
        tuple(sorted(witnesses.items())),
        tuple(chosen),
    )


def finish(
    n: int,
    state: State,
    members_by_key: Dict[SetKey, Set[ElementId]],
    partial: bool,
    **fields: object,
) -> ProtocolOutcome:
    """Patch the residue, dedup the chosen keys, certify."""
    uncovered, witnesses, chosen = state
    for u in sorted(uncovered):
        witness = witnesses.get(u)
        if witness is not None:
            chosen.append(witness)
        elif not partial:
            raise ProtocolError(
                f"element {u} is covered by no party's sets; "
                "instance infeasible"
            )
    cover = list(dict.fromkeys(chosen))
    certificate: Dict[ElementId, SetKey] = {}
    for key in cover:
        for u in members_by_key.get(key, ()):
            certificate.setdefault(u, key)
    missing = [u for u in range(n) if u not in certificate]
    if missing and not partial:
        raise ProtocolError(
            f"protocol output misses {len(missing)} element(s), e.g. "
            f"{missing[:5]}"
        )
    return ProtocolOutcome(
        cover=cover,
        certificate=certificate,
        uncovered=tuple(missing),
        **fields,  # type: ignore[arg-type]
    )


def reference_chain_merge(
    n: int,
    party_sets: Sequence[PartySets],
    threshold: Optional[float] = None,
    partial: bool = False,
    capture_states: bool = False,
    adaptive: bool = False,
) -> ProtocolOutcome:
    """The chain protocol over set-based state; forwarded states are
    :data:`Snapshot` tuples."""
    fixed_tau = baseline_tau(n, party_sets, threshold, adaptive)
    t = len(party_sets)
    tau = fixed_tau
    uncovered: Set[ElementId] = set(range(n))
    witnesses: Dict[ElementId, SetKey] = {}
    chosen: List[SetKey] = []
    members_by_key: Dict[SetKey, Set[ElementId]] = {}
    message_words: List[int] = []
    forwarded_states: List[Snapshot] = []
    thresholds: List[float] = []

    for index, share in enumerate(party_sets):
        local = own_sets(share, members_by_key)
        for key, members in local:
            for u in members:
                if u in uncovered and u not in witnesses:
                    witnesses[u] = key
        if adaptive:
            tau = adaptive_threshold_for(len(uncovered), t - index)
        thresholds.append(tau)
        greedy_take(local, uncovered, chosen, tau)
        if index < t - 1:
            message_words.append(state_words(uncovered, witnesses, chosen))
            if capture_states:
                forwarded_states.append(
                    snapshot((uncovered, witnesses, chosen))
                )

    return finish(
        n,
        (uncovered, witnesses, chosen),
        members_by_key,
        partial,
        message_words=message_words,
        threshold=fixed_tau,
        edges=tuple((i, i, i + 1) for i in range(t - 1)),
        round_max_words=tuple(message_words),
        thresholds=tuple(thresholds),
        forwarded_states=tuple(forwarded_states),
    )


def reference_tournament_merge(
    n: int,
    party_sets: Sequence[PartySets],
    threshold: Optional[float] = None,
    partial: bool = False,
    capture_states: bool = False,
    adaptive: bool = False,
) -> ProtocolOutcome:
    """The tournament protocol over set-based state."""
    fixed_tau = baseline_tau(n, party_sets, threshold, adaptive)
    t = len(party_sets)
    members_by_key: Dict[SetKey, Set[ElementId]] = {}
    locals_by_party: List[List[Tuple[SetKey, Set[ElementId]]]] = []
    thresholds: List[float] = []
    states: Dict[int, State] = {}
    sizes: Dict[int, int] = {}

    for index, share in enumerate(party_sets):
        local = own_sets(share, members_by_key)
        locals_by_party.append(local)
        uncovered: Set[ElementId] = set(range(n))
        witnesses: Dict[ElementId, SetKey] = {}
        for key, members in local:
            for u in members:
                if u not in witnesses:
                    witnesses[u] = key
        if not adaptive:
            tau = fixed_tau
        elif t == 1:
            tau = adaptive_threshold_for(len(uncovered), 1)
        else:
            tau = math.inf
        thresholds.append(tau)
        chosen: List[SetKey] = []
        greedy_take(local, uncovered, chosen, tau)
        states[index] = (uncovered, witnesses, chosen)
        sizes[index] = 1

    message_words: List[int] = []
    edges: List[Tuple[int, int, int]] = []
    round_max_words: List[int] = []
    forwarded_states: List[Snapshot] = []

    for round_index, pairs in enumerate(tournament_rounds(range(t))):
        round_max = 0
        for src, dst in pairs:
            u_src, w_src, c_src = states.pop(src)
            u_dst, w_dst, c_dst = states[dst]
            words = state_words(u_src, w_src, c_src)
            message_words.append(words)
            edges.append((round_index, src, dst))
            round_max = max(round_max, words)
            if capture_states:
                forwarded_states.append(snapshot((u_src, w_src, c_src)))
            uncovered = u_src & u_dst
            witnesses = {**w_dst, **w_src}
            chosen = c_src + c_dst
            sizes[dst] = sizes.pop(src) + sizes[dst]
            tau = (
                adaptive_threshold_for(len(uncovered), sizes[dst] - 1)
                if adaptive
                else fixed_tau
            )
            thresholds.append(tau)
            greedy_take(locals_by_party[dst], uncovered, chosen, tau)
            states[dst] = (uncovered, witnesses, chosen)
        round_max_words.append(round_max)

    (root_state,) = states.values()
    return finish(
        n,
        root_state,
        members_by_key,
        partial,
        message_words=message_words,
        threshold=fixed_tau,
        edges=tuple(edges),
        round_max_words=tuple(round_max_words),
        thresholds=tuple(thresholds),
        forwarded_states=tuple(forwarded_states),
    )
