"""The per-set frozenset membership build the shard localizer once used.

:func:`repro.distributed.worker._localize` builds a shard's membership
as CSR rows from one sort of edge codes.  This is the loop it replaced:
group the clean edges by local set with one ``argsort``, then build one
frozenset per party-order set, a set listed twice reading the row its
edges relabel to (the later listing).  ``test_shard_rows.py`` checks the
CSR rows against it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

import numpy as np

from repro.types import ElementId, SetId


def reference_members_by_set(
    set_ids: np.ndarray, local_sets: np.ndarray, elem_col: np.ndarray
) -> Dict[SetId, FrozenSet[ElementId]]:
    """Every party-order set's observed members, one frozenset each.

    ``set_ids`` is the party order (global ids), ``local_sets`` the
    local set of each clean edge and ``elem_col`` its global element.
    """
    members = elem_col[np.argsort(local_sets)].tolist()
    bounds = np.zeros(len(set_ids) + 1, dtype=np.int64)
    np.cumsum(np.bincount(local_sets, minlength=len(set_ids)), out=bounds[1:])
    bounds = bounds.tolist()
    members_by_set: Dict[SetId, FrozenSet[ElementId]] = {}
    for i, s in enumerate(set_ids.tolist()):
        members_by_set[s] = frozenset(set(members[bounds[i] : bounds[i + 1]]))
    return members_by_set
