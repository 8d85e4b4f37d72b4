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
  step arranged as a binary reduction tree — ``⌈log₂ t⌉`` rounds of
  independent hand-offs instead of ``t − 1`` sequential hops, at the
  cost of larger early messages.

Both engines return one :class:`ProtocolOutcome` — a chain is the
schedule whose hop ``i`` is the edge ``(i, i, i + 1)`` — and share
everything but their party loops (:class:`_Merge`).  The state is held
as arrays: set keys are interned to dense ids in first-appearance
order, each party's share is CSR, uncovered is a bool mask over
``0..n-1``, witnesses an int64 key id per element (−1 for none), and
the chosen keys a list of ids.  Hand-off snapshots and word counts are
taken from those arrays, so neither depends on Python set order.

This module does not import :mod:`repro.lowerbound` (which imports
*us*), so the chain loop is not routed through ``OneWayChain``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import (
    Collection,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Sized,
    Tuple,
    Union,
)

import numpy as np

from repro.core.solution import Certificate
from repro.errors import ConfigurationError, ProtocolError
from repro.types import ElementId, first_occurrences

SetKey = Hashable
#: One party's share: an *ordered* list of ``(key, members)`` pairs.
#: Enumeration order is protocol-relevant — it fixes witness choice and
#: greedy tie-breaks — so callers must pass a deterministic order.
PartySets = Sequence[Tuple[SetKey, Set[ElementId]]]


#: One hand-off's forwarded state: ``(uncovered, witnesses, chosen)`` —
#: the uncovered element ids ascending, a ``(k, 2)`` array of
#: ``(element, key)`` witness rows in ascending element order, and the
#: chosen keys in pick order.
StateSnapshot = Tuple[np.ndarray, np.ndarray, Tuple[SetKey, ...]]

#: A merge's running state: the uncovered mask over ``0..n-1``, the
#: witness key id per element (−1 for none), and the chosen key ids in
#: pick order.
_State = Tuple[np.ndarray, np.ndarray, List[int]]


class SetRows:
    """An ordered list of sets in CSR form: one party's share.

    Row ``r`` is the set ``keys[r]`` with members
    ``members[indptr[r]:indptr[r + 1]]``, distinct within the row.  A
    key may be listed more than once; each listing is a row of its own.
    A shard's rows (:attr:`~repro.distributed.worker.ShardOutput.rows`)
    hold ascending ``int64`` members and give every listing of a set
    its full observed membership.
    """

    __slots__ = ("keys", "indptr", "members")

    def __init__(
        self, keys: Sequence[SetKey], indptr: np.ndarray, members: np.ndarray
    ) -> None:
        self.keys: Tuple[SetKey, ...] = tuple(keys)
        self.indptr = indptr
        self.members = members

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[Tuple[SetKey, Collection[ElementId]]]
    ) -> "SetRows":
        """Rows of ``(key, members)`` pairs, in order, members as given."""
        pairs = list(pairs)
        views = [members for _, members in pairs]
        indptr = np.zeros(len(views) + 1, dtype=np.int64)
        np.cumsum([len(view) for view in views], out=indptr[1:])
        members = np.array(list(itertools.chain.from_iterable(views)))
        return cls(
            [key for key, _ in pairs],
            indptr,
            members if members.size else np.empty(0, dtype=np.int64),
        )

    @classmethod
    def from_mapping(
        cls,
        members_by_set: Mapping[SetKey, Iterable[ElementId]],
        order: Optional[Iterable[SetKey]] = None,
    ) -> "SetRows":
        """One row per key of ``order`` (default: the mapping's keys);
        a key the mapping lacks gets an empty row."""
        keys = members_by_set if order is None else order
        return cls.from_pairs(
            (key, sorted(members_by_set.get(key, ()))) for key in keys
        )

    def as_mapping(
        self, keys: Optional[Iterable[SetKey]] = None
    ) -> Dict[SetKey, FrozenSet[ElementId]]:
        """Each set's members as a frozenset, for every listed key in
        row order or only for ``keys`` (empty for a key not listed).  A
        key listed twice reads its last row."""
        row_of = {key: r for r, key in enumerate(self.keys)}
        bounds = self.indptr.tolist()
        out: Dict[SetKey, FrozenSet[ElementId]] = {}
        for key in self.keys if keys is None else keys:
            r = row_of.get(key)
            out[key] = (
                frozenset()
                if r is None
                else frozenset(self.members[bounds[r] : bounds[r + 1]].tolist())
            )
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetRows):
            return NotImplemented
        return (
            self.keys == other.keys
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.members, other.members)
        )


#: One party's sets in CSR form, ``(key_ids, indptr, members, rows)``:
#: row ``r`` is the set with key id ``key_ids[r]`` and members
#: ``members[indptr[r]:indptr[r + 1]]``; ``rows[i]`` is the row holding
#: ``members[i]``.
_Share = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


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
    certificate: Mapping[ElementId, SetKey]
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


def state_words(uncovered: Sized, witnesses: Sized, chosen: Sized) -> int:
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


def _shares(
    n: int, parties: Sequence[SetRows]
) -> Tuple[List[SetKey], List[_Share]]:
    """Intern the set keys and index every party's rows.

    Keys get dense ids in first-appearance order (party by party, in
    row order); returns the keys by id and one :data:`_Share` per
    party.  Every member must be an int element id in ``0..n-1`` —
    checked here, before any party acts, so an out-of-range id can
    neither be certified nor alias another element.
    """
    key_index: Dict[SetKey, int] = {}
    shares: List[_Share] = []
    for party in parties:
        members = party.members
        if members.size and members.dtype.kind not in "iu":
            raise ProtocolError(
                f"set members must be int element ids, got {members.dtype} values"
            )
        outside = members[(members < 0) | (members >= n)]
        if outside.size:
            raise ProtocolError(
                f"set member {int(outside[0])} is outside the universe 0..{n - 1}"
            )
        ids = [key_index.setdefault(key, len(key_index)) for key in party.keys]
        shares.append(
            (
                np.array(ids, dtype=np.int64),
                party.indptr,
                members.astype(np.int64, copy=False),
                np.repeat(np.arange(len(ids)), np.diff(party.indptr)),
            )
        )
    return list(key_index), shares


def _record_witnesses(share: _Share, witnesses: np.ndarray) -> None:
    """Give every element ``share`` holds that has no witness yet the
    first of the party's sets, in enumeration order, that holds it."""
    key_ids, _, members, rows = share
    elements, first = first_occurrences(members, len(witnesses))
    fresh = witnesses[elements] < 0
    witnesses[elements[fresh]] = key_ids[rows[first[fresh]]]


def _greedy_take(
    share: _Share,
    uncovered: np.ndarray,
    chosen: List[int],
    tau: float,
) -> None:
    """One party's greedy phase: take, in enumeration order, every own
    set whose gain when its turn comes is ≥ τ (and > 0, for τ = 0).

    One pass is the fixpoint: gains only shrink, so a set passed over
    never qualifies later.  The gains at entry (one ``bincount``) are
    upper bounds, so only sets whose bound qualifies are recounted.
    Mutates ``uncovered`` and ``chosen`` in place.
    """
    key_ids, indptr, members, rows = share
    bound = np.bincount(rows[uncovered[members]], minlength=len(key_ids))
    for r in np.flatnonzero((bound >= tau) & (bound > 0)).tolist():
        view = members[indptr[r] : indptr[r + 1]]
        gain = int(np.count_nonzero(uncovered[view]))
        if gain >= tau and gain > 0:
            chosen.append(int(key_ids[r]))
            uncovered[view] = False


class _Merge:
    """The bookkeeping both engines share: validated inputs, the CSR
    shares, the per-hand-off record, and the last party's step."""

    def __init__(
        self,
        n: int,
        party_sets: Sequence[Union[SetRows, PartySets]],
        threshold: Optional[float],
        adaptive: bool,
        capture_states: bool,
    ) -> None:
        self.n, self.t = n, len(party_sets)
        if self.t < 1:
            raise ConfigurationError(f"need at least 1 party, got {self.t}")
        if adaptive and threshold is not None:
            raise ConfigurationError(
                "adaptive re-estimation and an explicit threshold are "
                "mutually exclusive"
            )
        #: The baseline τ: ``√(n/t)`` unless ``threshold`` overrides it.
        self.tau = threshold if threshold is not None else math.sqrt(n / self.t)
        self.keys, self.shares = _shares(
            n,
            [
                share if isinstance(share, SetRows) else SetRows.from_pairs(share)
                for share in party_sets
            ],
        )
        self.key_values: Optional[np.ndarray] = None
        if capture_states:
            # int64 when every key is an int (the shape the wire packs).
            ints = all(isinstance(k, (int, np.integer)) for k in self.keys)
            self.key_values = np.fromiter(
                self.keys, dtype=np.int64 if ints else object
            )
        self.thresholds: List[float] = []
        self.message_words: List[int] = []
        self.forwarded_states: List[StateSnapshot] = []

    def fresh(self) -> _State:
        """A state with everything uncovered and no witness or pick."""
        return np.ones(self.n, dtype=bool), np.full(self.n, -1, np.int64), []

    def ship(self, state: _State) -> int:
        """Record one hand-off of ``state``; returns its
        :func:`state_words`."""
        uncovered, witnesses, chosen = state
        ids, seen = np.flatnonzero(uncovered), np.flatnonzero(witnesses >= 0)
        self.message_words.append(state_words(ids, seen, chosen))
        if self.key_values is not None:
            self.forwarded_states.append(
                (
                    ids,
                    np.column_stack((seen, self.key_values[witnesses[seen]])),
                    tuple(self.key_values[chosen].tolist()),
                )
            )
        return self.message_words[-1]

    def finish(
        self, state: _State, partial: bool, **fields: object
    ) -> ProtocolOutcome:
        """The last party's step: patch the residue, dedup, certify.

        Each still-uncovered element is patched with its witness; one
        with none is held by no party, an error unless ``partial``.  The
        picks are deduplicated in pick order; the certificate maps each
        element, ascending, to the first cover key whose view (the union
        over parties) holds it: a :class:`~repro.core.solution.Certificate`
        of the two columns when every cover key is an int, else a dict.
        ``fields`` are the schedule fields.
        """
        uncovered, witnesses, chosen = state
        residue = np.flatnonzero(uncovered)
        patch = witnesses[residue]
        missing = residue[patch < 0].tolist()
        if missing and not partial:
            raise ProtocolError(
                f"element {missing[0]} is covered by no party's sets; "
                "instance infeasible"
            )
        cover_ids = list(dict.fromkeys(chosen + patch[patch >= 0].tolist()))
        rank = np.full(len(self.keys), len(cover_ids))
        rank[cover_ids] = np.arange(len(cover_ids))
        best = np.full(self.n, len(cover_ids))
        for key_ids, _, members, rows in self.shares:
            np.minimum.at(best, members, rank[key_ids[rows]])
        certified = np.flatnonzero(best < len(cover_ids))
        cover = [self.keys[i] for i in cover_ids]
        ranks = best[certified]
        certificate: Mapping[ElementId, SetKey]
        if all(isinstance(key, (int, np.integer)) for key in cover):
            certificate = Certificate(
                certified, np.array(cover, dtype=np.int64)[ranks]
            )
        else:
            certificate = dict(
                zip(certified.tolist(), [cover[r] for r in ranks.tolist()])
            )
        return ProtocolOutcome(
            cover=cover,
            certificate=certificate,
            message_words=self.message_words,
            threshold=self.tau,
            thresholds=tuple(self.thresholds),
            uncovered=tuple(missing),
            forwarded_states=tuple(self.forwarded_states),
            **fields,  # type: ignore[arg-type]
        )


def chain_merge(
    n: int,
    party_sets: Sequence[Union[SetRows, PartySets]],
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
        One ordered ``(key, members)`` list, or one :class:`SetRows`
        (the same list in CSR form), per party.  The same key may
        appear at several parties (partial views under by-element or
        hash sharding); its membership is the union of the views *held
        by the parties that enumerate it*, each party acting only on its
        own view as a real shard would.  A view is a set of int element
        ids in ``0..n-1``; any other member raises :class:`ProtocolError`
        before any party acts.
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
    run = _Merge(n, party_sets, threshold, adaptive, capture_states)
    state = uncovered, witnesses, chosen = run.fresh()
    tau = run.tau
    for index, share in enumerate(run.shares):
        # Record witnesses for the held elements that have none.  Only
        # uncovered ones qualify, and every covered element has one: its
        # coverer's party recorded it just before taking the set.
        _record_witnesses(share, witnesses)
        if adaptive:
            tau = adaptive_threshold_for(
                int(np.count_nonzero(uncovered)), run.t - index
            )
        run.thresholds.append(tau)
        _greedy_take(share, uncovered, chosen, tau)
        if index < run.t - 1:
            run.ship(state)
    return run.finish(
        state,
        partial,
        edges=tuple((i, i, i + 1) for i in range(run.t - 1)),
        round_max_words=tuple(run.message_words),
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
        rounds.append(list(zip(actives[0::2], actives[1::2])))
        # Each pair's dst survives; an odd trailing survivor gets a bye.
        actives = actives[1::2] + actives[len(actives) & ~1 :]
    return rounds


def tournament_merge(
    n: int,
    party_sets: Sequence[Union[SetRows, PartySets]],
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
    run = _Merge(n, party_sets, threshold, adaptive, capture_states)
    # label -> (uncovered, witnesses, chosen) of the subtree it hosts.
    states: Dict[int, _State] = {}
    sizes: Dict[int, int] = {}

    # Leaf phase: every party plays the chain step against the full
    # universe.  Under adaptive τ a leaf has absorbed no peer state,
    # so it defers greedy entirely (τ = ∞) and only records witnesses
    # — except the degenerate one-party tree, which acts alone at √n
    # like the one-party chain.
    for index, share in enumerate(run.shares):
        uncovered, witnesses, chosen = states[index] = run.fresh()
        _record_witnesses(share, witnesses)
        # (A one-party adaptive baseline is √(n/1), the estimator's √n.)
        tau = math.inf if adaptive and run.t > 1 else run.tau
        run.thresholds.append(tau)
        _greedy_take(share, uncovered, chosen, tau)
        sizes[index] = 1

    edges: List[Tuple[int, int, int]] = []
    round_max_words: List[int] = []
    for round_index, pairs in enumerate(tournament_rounds(range(run.t))):
        round_max = 0
        for src, dst in pairs:
            u_src, w_src, c_src = shipped = states.pop(src)
            u_dst, w_dst, c_dst = states[dst]
            round_max = max(round_max, run.ship(shipped))
            edges.append((round_index, src, dst))
            uncovered = u_src & u_dst
            chosen = c_src + c_dst
            states[dst] = uncovered, np.where(w_src >= 0, w_src, w_dst), chosen
            sizes[dst] = sizes.pop(src) + sizes[dst]
            tau = (
                adaptive_threshold_for(
                    int(np.count_nonzero(uncovered)), sizes[dst] - 1
                )
                if adaptive
                else run.tau
            )
            run.thresholds.append(tau)
            _greedy_take(run.shares[dst], uncovered, chosen, tau)
        round_max_words.append(round_max)

    (root_state,) = states.values()
    return run.finish(
        root_state,
        partial,
        edges=tuple(edges),
        round_max_words=tuple(round_max_words),
    )
