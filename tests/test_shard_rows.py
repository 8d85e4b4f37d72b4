"""A shard's CSR membership rows against the per-set frozenset build.

:func:`repro.distributed.worker._localize` groups a shard's clean edges
into one CSR row per party-order set.  On generated shards — repeated
edges, unlisted sets, sets listed twice in the base order, out-of-range
listed ids and empty shards — every row must hold exactly the
frozenset the reference build (``localize_reference.py``) gives its
set, ascending and without repeats, and the rows must follow the party
order.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from localize_reference import reference_members_by_set
from repro.distributed.chain import SetRows
from repro.distributed.worker import ShardAccumulator


@st.composite
def shards(draw):
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 9))
    base = draw(st.lists(st.integers(-1, m), max_size=m + 2))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)), max_size=40
        )
    )
    return n, m, tuple(base), edges


def _columns(edges):
    return (
        np.array([s for s, _ in edges], dtype=np.int64),
        np.array([u for _, u in edges], dtype=np.int64),
    )


def _check(n, m, base, edges):
    accumulator = ShardAccumulator(0, n, m, base)
    accumulator.feed_columns(*_columns(edges))
    local = accumulator.localize()
    rows = local.rows
    _, elem_col = _columns(edges)
    expected = reference_members_by_set(local.set_ids, local.local_sets, elem_col)
    assert rows.keys == tuple(local.set_ids.tolist())
    assert rows.indptr[0] == 0 and len(rows.indptr) == len(rows.keys) + 1
    for r, key in enumerate(rows.keys):
        row = rows.members[rows.indptr[r] : rows.indptr[r + 1]].tolist()
        assert row == sorted(set(row))
        assert frozenset(row) == expected[key]
    assert rows.as_mapping() == expected


class TestShardRows:
    @settings(max_examples=300, deadline=None)
    @given(case=shards())
    def test_rows_match_reference(self, case):
        _check(*case)

    def test_set_listed_twice_gets_full_membership_at_each_listing(self):
        n, m, base = 4, 3, (2, 0, 2)
        edges = [(2, 1), (0, 0), (2, 3), (2, 1)]
        _check(n, m, base, edges)
        accumulator = ShardAccumulator(0, n, m, base)
        accumulator.feed_columns(*_columns(edges))
        rows = accumulator.localize().rows
        assert rows.keys == (2, 0, 2)
        assert rows.indptr.tolist() == [0, 2, 3, 5]
        assert rows.members.tolist() == [1, 3, 0, 1, 3]

    def test_empty_shard(self):
        _check(3, 4, (1, 3), [])
        rows = ShardAccumulator(0, 3, 4, (1, 3)).localize().rows
        empty = np.empty(0, dtype=np.int64)
        assert rows == SetRows((1, 3), np.zeros(3, dtype=np.int64), empty)
