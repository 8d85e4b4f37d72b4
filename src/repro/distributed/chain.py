"""The deterministic chain merge — the 2√(nt) protocol, generalised.

:func:`chain_merge` is the protocol engine behind both

* :func:`repro.lowerbound.simple_protocol.run_simple_protocol`, which is
  a thin wrapper naming parties' sets ``(party, local_id)``, and
* :class:`repro.distributed.coordinator.ChainCoordinator`, which names
  them by global set id and charges each hand-off to a
  :class:`~repro.distributed.comm.CommMeter`.

The protocol (paper Section 3, full version): the state forwarded along
the chain is the still-uncovered element set, a witness set key per
element seen so far, and the keys chosen so far.  Each party greedily
takes, from its own sets, any set covering at least ``τ = √(n/t)``
still-uncovered elements, repeating until none qualifies; the last party
patches every residual element with its recorded witness.  Greedy takes
at most ``√(nt)`` sets and the residue is at most ``√(n/t) · OPT``, so
the cover is at most ``2√(nt) · OPT`` sets and each message at most
``O(n)`` words.

Two variations live alongside the literal protocol:

* **Adaptive τ** (``adaptive=True``): instead of fixing
  ``τ = √(n/t)`` before the first party acts, each party re-estimates
  ``τ = √(|uncovered| / remaining_parties)`` from the state actually
  forwarded to it.  Party 0 sees ``|uncovered| = n`` and
  ``remaining = t``, so its τ matches the fixed protocol exactly; later
  parties see a shrinking uncovered set and lower their bar with it.
* **Tournament merge** (:func:`tournament_merge`): the same per-party
  step arranged as a binary reduction tree.  Every party first runs the
  chain step *against the full universe* (its leaf state), then pairs
  of states merge bottom-up in ``⌈log₂ t⌉`` rounds — uncovered sets
  intersect, witnesses and chosen keys union — cutting the merge's
  critical path from ``t − 1`` sequential hops to ``⌈log₂ t⌉`` rounds
  of independent hand-offs, at the cost of larger early messages (a
  leaf ships witnesses for *every* element it holds).

Both engines return one :class:`ProtocolOutcome` — a chain is the
schedule whose hop ``i`` is the edge ``(i, i, i + 1)`` — and share
everything but their party loops: τ validation, the own-sets copy, the
state snapshot, and the last party's patch, dedup and certificate.

This module deliberately does not import :mod:`repro.lowerbound`
(which imports *us*); the sequential chain loop is ~10 lines and is
re-implemented here rather than routed through ``OneWayChain``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError, ProtocolError
from repro.types import ElementId

SetKey = Hashable
#: One party's share: an *ordered* list of ``(key, members)`` pairs.
#: Enumeration order is protocol-relevant — it fixes witness choice and
#: greedy tie-breaks — so callers must pass a deterministic order.
PartySets = Sequence[Tuple[SetKey, Set[ElementId]]]


#: One hand-off's forwarded state: ``(sorted uncovered, sorted witness
#: pairs, chosen keys in pick order)``.
StateSnapshot = Tuple[
    Tuple[ElementId, ...],
    Tuple[Tuple[ElementId, SetKey], ...],
    Tuple[SetKey, ...],
]


@dataclass
class ProtocolOutcome:
    """Result of one :func:`chain_merge` or :func:`tournament_merge`.

    ``message_words[i]`` is the size of the state shipped over
    ``edges[i]``; both run in hand-off order, ``t - 1`` entries total.
    By the protocol convention the last party's output announcement is
    excluded (the lower bound concerns inter-party communication).  A
    chain is the degenerate schedule with one hand-off per round: hop
    ``i`` is the edge ``(i, i, i + 1)``.
    """

    cover: List[SetKey]
    certificate: Dict[ElementId, SetKey]
    message_words: List[int]
    #: The protocol baseline τ = √(n/t), or the explicit override —
    #: always finite; the per-step values are in :attr:`thresholds`.
    threshold: float
    #: One ``(round, src, dst)`` triple per hand-off: in round ``round``
    #: the state hosted at party ``src`` ships to party ``dst``.
    edges: Tuple[Tuple[int, int, int], ...] = ()
    #: Largest message of each round — the tree's known cost: early
    #: rounds ship witness-heavy leaf states the chain amortises.
    round_max_words: Tuple[int, ...] = ()
    #: τ used at each greedy invocation, in execution order.  The chain
    #: has one per party; the tree has the ``t`` leaf phases first, then
    #: one per internal node in hand-off order (adaptive leaves defer
    #: greedy, recorded as ``inf``).  Constant under fixed τ.
    thresholds: Tuple[float, ...] = ()
    #: Elements no surviving party could cover (non-empty only when the
    #: merge ran with ``partial=True`` over a degraded party set).
    uncovered: Tuple[ElementId, ...] = ()
    #: Per-hand-off snapshots of the shipped state, parallel to
    #: ``message_words``; populated only under ``capture_states=True``
    #: (the transport layer replays each hand-off as real bytes).
    forwarded_states: Tuple[StateSnapshot, ...] = ()

    @property
    def rounds(self) -> int:
        """Number of merge rounds: ``t - 1`` for the chain,
        ``⌈log₂ t⌉`` for the tree (0 for a single party)."""
        return len(self.round_max_words)

    @property
    def cover_size(self) -> int:
        """Number of distinct set keys in the output cover."""
        return len(self.cover)

    @property
    def max_message_words(self) -> int:
        """Longest inter-party message in words."""
        return max(self.message_words) if self.message_words else 0


def state_words(
    uncovered: Set[ElementId],
    witnesses: Dict[ElementId, SetKey],
    chosen: Sequence[SetKey],
) -> int:
    """Words of a forwarded state: 1 per uncovered element, 2 per witness
    entry, 2 per chosen key — a key is charged at two words whatever its
    concrete type, matching the historical ``(party, local_id)``
    accounting of the simple protocol."""
    return len(uncovered) + 2 * len(witnesses) + 2 * len(chosen)


def adaptive_threshold_for(uncovered: int, remaining_parties: int) -> float:
    """Re-estimated τ: ``√(|uncovered| / remaining_parties)``.

    The first estimator call of a run (``uncovered = n``,
    ``remaining = t``) reproduces the fixed ``√(n/t)``; later calls see
    the forwarded state and lower the bar as coverage accumulates.
    Degenerate inputs are clamped: an empty uncovered set yields τ = 0
    (nothing left to take) and ``remaining_parties`` is floored at 1.
    """
    if uncovered <= 0:
        return 0.0
    return math.sqrt(uncovered / max(1, remaining_parties))


def _greedy_take(
    local: Sequence[Tuple[SetKey, Set[ElementId]]],
    uncovered: Set[ElementId],
    chosen: List[SetKey],
    tau: float,
) -> None:
    """One party's greedy phase: repeatedly take any own set with gain
    ≥ τ, in enumeration order, until a full pass takes nothing.

    Mutates ``uncovered`` and ``chosen`` in place.  The ``gain > 0``
    guard keeps the loop terminating when adaptive τ collapses to 0 —
    an empty-gain set must never be "taken" forever.
    """
    progress = True
    while progress:
        progress = False
        for key, members in local:
            gain = len(members & uncovered)
            if gain >= tau and gain > 0:
                chosen.append(key)
                uncovered -= members
                progress = True


def _baseline_tau(
    n: int,
    party_sets: Sequence[PartySets],
    threshold: Optional[float],
    adaptive: bool,
) -> float:
    """Validate a merge's parties and τ options; return the baseline τ,
    ``√(n/t)`` unless ``threshold`` overrides it."""
    t = len(party_sets)
    if t < 1:
        raise ConfigurationError(f"need at least 1 party, got {t}")
    if adaptive and threshold is not None:
        raise ConfigurationError(
            "adaptive re-estimation and an explicit threshold are "
            "mutually exclusive"
        )
    return threshold if threshold is not None else math.sqrt(n / t)


def _own_sets(
    share: PartySets,
    members_by_key: Dict[SetKey, Set[ElementId]],
) -> List[Tuple[SetKey, Set[ElementId]]]:
    """Copy one party's share and fold its views into ``members_by_key``.

    ``members_by_key`` accumulates every party's view of a key for the
    certificate — a later party's view of a repeated key extends an
    earlier one's.
    """
    local = [(key, set(members)) for key, members in share]
    for key, members in local:
        members_by_key.setdefault(key, set()).update(members)
    return local


def _snapshot(
    uncovered: Set[ElementId],
    witnesses: Dict[ElementId, SetKey],
    chosen: Sequence[SetKey],
) -> StateSnapshot:
    """The forwarded state as a transport ships it."""
    return (
        tuple(sorted(uncovered)),
        tuple(sorted(witnesses.items())),
        tuple(chosen),
    )


def _finish(
    n: int,
    state: Tuple[Set[ElementId], Dict[ElementId, SetKey], List[SetKey]],
    members_by_key: Dict[SetKey, Set[ElementId]],
    partial: bool,
    **fields: object,
) -> ProtocolOutcome:
    """The last party's step on the final ``(uncovered, witnesses,
    chosen)`` state: patch the residue, dedup, certify.

    Every still-uncovered element is patched with its recorded witness;
    the chosen list is deduplicated in pick order (a witness may repeat
    a greedy pick, and a repeated key may be taken by two parties); the
    certificate maps each element to the first cover key whose
    accumulated view holds it.  ``fields`` are the engine's remaining
    :class:`ProtocolOutcome` fields.
    """
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


def chain_merge(
    n: int,
    party_sets: Sequence[PartySets],
    threshold: Optional[float] = None,
    partial: bool = False,
    capture_states: bool = False,
    adaptive: bool = False,
) -> ProtocolOutcome:
    """Run the deterministic chain protocol over per-party set shares.

    Parameters
    ----------
    n:
        Universe size; elements are ``0..n-1`` and the union of all
        parties' sets must cover them (else :class:`ProtocolError`).
    party_sets:
        One ordered ``(key, members)`` list per party.  The same key may
        appear at several parties (partial views under by-element or
        hash sharding); its membership is the union of the views *held
        by the parties that enumerate it*, each party acting only on its
        own view as a real shard would.
    threshold:
        Greedy take-threshold; defaults to ``√(n/t)`` as in the
        analysis.
    partial:
        Quorum-degraded mode: elements no party can witness are left
        uncovered and reported in :attr:`ProtocolOutcome.uncovered`
        instead of raising :class:`ProtocolError`.  The default keeps
        the protocol's contract — an infeasible residue is an error.
    capture_states:
        Also snapshot each hand-off's forwarded state into
        :attr:`ProtocolOutcome.forwarded_states` so a transport can ship
        the exact state the word count was charged for.  Off by
        default: the snapshots copy O(n) state per hop.
    adaptive:
        Re-estimate ``τ = √(|uncovered| / remaining_parties)`` at every
        party from the forwarded state instead of fixing ``√(n/t)`` up
        front (mutually exclusive with an explicit ``threshold``).  The
        τ each party used lands in :attr:`ProtocolOutcome.thresholds`.
    """
    fixed_tau = _baseline_tau(n, party_sets, threshold, adaptive)
    t = len(party_sets)
    tau = fixed_tau
    uncovered: Set[ElementId] = set(range(n))
    witnesses: Dict[ElementId, SetKey] = {}
    chosen: List[SetKey] = []
    members_by_key: Dict[SetKey, Set[ElementId]] = {}
    message_words: List[int] = []
    forwarded_states: List[StateSnapshot] = []
    thresholds: List[float] = []

    for index, share in enumerate(party_sets):
        local = _own_sets(share, members_by_key)
        # Record witnesses for any still-uncovered element this party holds.
        for key, members in local:
            for u in members:
                if u in uncovered and u not in witnesses:
                    witnesses[u] = key
        if adaptive:
            tau = adaptive_threshold_for(len(uncovered), t - index)
        thresholds.append(tau)
        _greedy_take(local, uncovered, chosen, tau)
        if index < t - 1:
            message_words.append(state_words(uncovered, witnesses, chosen))
            if capture_states:
                forwarded_states.append(
                    _snapshot(uncovered, witnesses, chosen)
                )

    return _finish(
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


def tournament_rounds(
    parties: Sequence[int],
) -> List[List[Tuple[int, int]]]:
    """Pairing schedule of a bottom-up tournament over ``parties``.

    Returns one list per round; each round pairs adjacent survivors
    ``(src, dst)`` left to right — ``src`` ships its state to ``dst``
    and ``dst`` survives; an odd trailing survivor gets a bye.  The
    schedule is pure bookkeeping shared by :func:`tournament_merge`
    (which executes it) and the async scheduler (which replays it on
    the logical clock), so both agree on every edge.
    """
    actives = list(parties)
    rounds: List[List[Tuple[int, int]]] = []
    while len(actives) > 1:
        pairs: List[Tuple[int, int]] = []
        survivors: List[int] = []
        for j in range(0, len(actives) - 1, 2):
            pairs.append((actives[j], actives[j + 1]))
            survivors.append(actives[j + 1])
        if len(actives) % 2:
            survivors.append(actives[-1])
        rounds.append(pairs)
        actives = survivors
    return rounds


def tournament_merge(
    n: int,
    party_sets: Sequence[PartySets],
    threshold: Optional[float] = None,
    partial: bool = False,
    capture_states: bool = False,
    adaptive: bool = False,
) -> ProtocolOutcome:
    """Run the chain protocol's party step as a binary reduction tree.

    Every party first plays the chain step *against the full universe*
    — record a witness for each held element, then greedily take own
    sets with gain ≥ τ — producing ``t`` independent leaf states.
    Pairs of states then merge bottom-up per
    :func:`tournament_rounds`: uncovered sets intersect (an element is
    still uncovered only if neither side covered it), witness maps
    union with the shipped (left) side winning collisions, chosen lists
    concatenate, and the receiving host runs the greedy step over its
    *own* sets against the merged uncovered set.  The last survivor
    patches the residue with recorded witnesses, as the chain's last
    party does.

    τ is where the fixed and adaptive modes genuinely part ways:

    * **Fixed** (default ``√(n/t)``, or ``threshold``): every node
      greedies at the chain's τ.  Protocol-literal but naive — leaves
      act blind against the full universe, so up to ``t`` parties
      duplicate coverage the chain's sequential state would have
      shared, and the cover degrades roughly linearly in ``t``.  (The
      internal-node re-greedy is then provably a no-op: a host's gains
      only shrink once its leaf greedy has terminated.)
    * **Adaptive** (``adaptive=True``):
      ``τ = √(|uncovered| / merged_peers)``, re-estimated at each node
      from the state actually forwarded to it, where ``merged_peers``
      is the number of *other* parties' states folded into the node
      (``subtree_size - 1``).  A leaf has absorbed no peer state, so
      its τ is ∞ — it only records witnesses and defers greedy
      entirely; the root has absorbed ``t - 1`` peers, so it greedies
      at the chain's end-of-run rate ``≈ √(|uncovered|/t)``.  Picks are
      thus made only where evidence has accumulated, which empirically
      recovers most of the cover quality the fixed-τ tree throws away.
      (``t = 1`` degenerates to a single leaf acting alone at ``√n``,
      matching the one-party chain.)

    Parameters and outcome match :func:`chain_merge`; the tree's edges
    pair parties per :func:`tournament_rounds`, so
    :attr:`ProtocolOutcome.round_max_words` has one entry per round.
    """
    fixed_tau = _baseline_tau(n, party_sets, threshold, adaptive)
    t = len(party_sets)
    members_by_key: Dict[SetKey, Set[ElementId]] = {}
    locals_by_party: List[List[Tuple[SetKey, Set[ElementId]]]] = []
    thresholds: List[float] = []
    # label -> (uncovered, witnesses, chosen) of the subtree it hosts.
    states: Dict[int, Tuple[Set[ElementId], Dict[ElementId, SetKey], List[SetKey]]] = {}
    sizes: Dict[int, int] = {}

    # Leaf phase: every party plays the chain step against the full
    # universe.  Under adaptive τ a leaf has absorbed no peer state,
    # so it defers greedy entirely (τ = ∞) and only records witnesses
    # — except the degenerate one-party tree, which acts alone at √n
    # like the one-party chain.
    for index, share in enumerate(party_sets):
        local = _own_sets(share, members_by_key)
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
        _greedy_take(local, uncovered, chosen, tau)
        states[index] = (uncovered, witnesses, chosen)
        sizes[index] = 1

    message_words: List[int] = []
    edges: List[Tuple[int, int, int]] = []
    round_max_words: List[int] = []
    forwarded_states: List[StateSnapshot] = []

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
                forwarded_states.append(_snapshot(u_src, w_src, c_src))
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
            _greedy_take(locals_by_party[dst], uncovered, chosen, tau)
            states[dst] = (uncovered, witnesses, chosen)
        round_max_words.append(round_max)

    (root_state,) = states.values()
    return _finish(
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
