"""The array-state protocol engines against their set-based oracle.

:func:`~repro.distributed.chain.chain_merge` and
:func:`~repro.distributed.chain.tournament_merge` hold the merge state
as arrays (an uncovered mask, a witness array, CSR shares).  The
reference engines in ``protocol_reference.py`` hold it as Python sets
and dicts, as the protocol is stated.  On generated inputs — keys
repeated across parties, ``str``, ``tuple`` and ``int`` keys, empty
sets, one party, partial merges, fixed, adaptive and explicit τ — both
sides must agree on every :class:`ProtocolOutcome` field, raise the
same :class:`ProtocolError` on infeasible inputs, and forward states
that pack to the same wire bytes.

Also here: the engines reject members outside ``0..n-1`` before any
party acts, the certificate iterates in ascending element order, and
the hand-off payload builder packs arrays and plain iterables to the
same bytes as ``struct.pack("!{n}q")``.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protocol_reference import (
    reference_chain_merge,
    reference_tournament_merge,
)
from repro.distributed.chain import chain_merge, tournament_merge
from repro.distributed.transport import _state_fields
from repro.errors import ProtocolError

ENGINES = {
    "chain": (chain_merge, reference_chain_merge),
    "tree": (tournament_merge, reference_tournament_merge),
}

#: Key styles: ints are what the coordinators pass (and what the wire
#: packs); the simple protocol passes ``(party, local_id)`` tuples.
KEY_STYLES = {
    "int": lambda i: 10 + 3 * i,
    "str": lambda i: f"s{i}",
    "tuple": lambda i: (i % 3, i),
}


@st.composite
def merge_inputs(draw):
    """``(n, party_sets, options)`` with keys drawn from a small pool so
    they repeat across (and sometimes within) parties."""
    n = draw(st.integers(min_value=1, max_value=24))
    t = draw(st.integers(min_value=1, max_value=6))
    make_key = KEY_STYLES[draw(st.sampled_from(sorted(KEY_STYLES)))]
    pool = draw(st.integers(min_value=1, max_value=8))
    members = st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n)
    party_sets = [
        [
            (make_key(k), m)
            for k, m in draw(
                st.lists(
                    st.tuples(st.integers(0, pool - 1), members), max_size=5
                )
            )
        ]
        for _ in range(t)
    ]
    mode = draw(st.sampled_from(["fixed", "adaptive", "explicit"]))
    options = {
        "partial": draw(st.booleans()),
        "adaptive": mode == "adaptive",
        "threshold": (
            draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5]))
            if mode == "explicit"
            else None
        ),
    }
    return n, party_sets, options


def normalized_state(state):
    """A forwarded state as plain tuples, whichever engine built it."""
    uncovered, witnesses, chosen = state
    return (
        tuple(int(u) for u in uncovered),
        tuple((int(u), key) for u, key in (tuple(row) for row in witnesses)),
        tuple(chosen),
    )


def outcome_fields(outcome):
    return (
        outcome.cover,
        sorted(outcome.certificate.items(), key=repr),
        outcome.message_words,
        outcome.threshold,
        outcome.edges,
        outcome.round_max_words,
        outcome.thresholds,
        outcome.uncovered,
        [normalized_state(state) for state in outcome.forwarded_states],
    )


def run(engine, n, party_sets, options):
    try:
        return engine(n, party_sets, capture_states=True, **options)
    except ProtocolError as exc:
        return str(exc)


@pytest.mark.parametrize("name", sorted(ENGINES))
@settings(max_examples=300, deadline=None)
@given(data=merge_inputs())
def test_array_engine_matches_set_reference(name, data):
    n, party_sets, options = data
    engine, reference = ENGINES[name]
    got = run(engine, n, party_sets, options)
    want = run(reference, n, party_sets, options)
    if isinstance(want, str):
        assert got == want
        return
    assert outcome_fields(got) == outcome_fields(want)
    assert list(got.certificate) == sorted(got.certificate)
    if all(isinstance(key, int) for share in party_sets for key, _ in share):
        for ours, theirs in zip(got.forwarded_states, want.forwarded_states):
            assert _state_fields(*ours) == _state_fields(*theirs)


class TestMemberValidation:
    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_out_of_range_members_rejected(self, name):
        engine = ENGINES[name][0]
        with pytest.raises(ProtocolError, match="outside the universe"):
            engine(4, [[("a", {0, 1, 5})], [("b", {2, 3})]], threshold=1.0)
        with pytest.raises(ProtocolError, match="outside the universe"):
            engine(4, [[("a", {0, 1})], [("b", {2, 3, -1})]], threshold=1.0)

    @pytest.mark.parametrize("name", sorted(ENGINES))
    @pytest.mark.parametrize("bad", [1.5, "2", None])
    def test_non_int_members_rejected(self, name, bad):
        engine = ENGINES[name][0]
        with pytest.raises(ProtocolError, match="int element ids"):
            engine(4, [[("a", {0, 1})], [("b", {2, 3, bad})]])

    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_rejected_before_any_party_acts(self, name):
        # Party 0 alone is infeasible (element 3 is held by nobody), but
        # the bad member at the last party is what gets reported.
        engine = ENGINES[name][0]
        parties = [[("a", {0})], [("b", {1})], [("c", {2, 7})]]
        with pytest.raises(ProtocolError, match="member 7"):
            engine(4, parties)


class TestCertificateOrder:
    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_certificate_iterates_in_ascending_element_order(self, name):
        engine = ENGINES[name][0]
        parties = [
            [("late", {9, 8, 7}), ("a", {5, 1})],
            [("b", {0, 6, 2}), ("late", {3, 4})],
        ]
        outcome = engine(10, parties, threshold=1.0)
        assert list(outcome.certificate) == list(range(10))


class TestStateFields:
    def test_arrays_and_iterables_pack_identically(self):
        uncovered = {9, 2, 4}
        witnesses = {0: 12, 3: 7, 9: 7}
        chosen = [7, 12]
        from_iterables = _state_fields(uncovered, witnesses.items(), chosen)
        from_arrays = _state_fields(
            np.array(sorted(uncovered), dtype=np.int64),
            np.array(sorted(witnesses.items()), dtype=np.int64),
            tuple(chosen),
        )
        assert from_arrays == from_iterables
        assert from_iterables == {
            "uncovered": struct.pack("!3q", 2, 4, 9),
            "witnesses": struct.pack("!6q", 0, 12, 3, 7, 9, 7),
            "chosen": struct.pack("!4q", 0, 7, 0, 12),
        }

    def test_empty_fields(self):
        empty = {"uncovered": b"", "witnesses": b"", "chosen": b""}
        assert _state_fields((), (), ()) == empty
        assert (
            _state_fields(
                np.zeros(0, dtype=np.int64),
                np.zeros((0, 2), dtype=np.int64),
                (),
            )
            == empty
        )
