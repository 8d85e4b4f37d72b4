"""Per-edge reference implementations of the arrival orders.

The oracle for :meth:`repro.streaming.orders.ArrivalOrder.apply_columns`,
which reorders ``int64`` edge columns: these reorder a list of edge
records one edge at a time, grouping edges in dictionaries and dealing
the round-robin from Python lists, as each order is stated.  Each takes
the edges and the ``random.Random`` the order was built on, and draws
from it exactly what the order must draw, so tests compare both the
output and the generator state afterwards.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, Sequence

from repro.types import Edge, make_rng

Reference = Callable[[Sequence[Edge], random.Random], List[Edge]]


def canonical(edges: Sequence[Edge], rng: random.Random) -> List[Edge]:
    return list(edges)


def random_order(edges: Sequence[Edge], rng: random.Random) -> List[Edge]:
    shuffled = list(edges)
    rng.shuffle(shuffled)
    return shuffled


def set_grouped(edges: Sequence[Edge], rng: random.Random) -> List[Edge]:
    groups: Dict[int, List[Edge]] = {}
    for edge in edges:
        groups.setdefault(edge[0], []).append(edge)
    set_ids = list(groups)
    rng.shuffle(set_ids)
    out: List[Edge] = []
    for set_id in set_ids:
        group = groups[set_id]
        rng.shuffle(group)
        out.extend(group)
    return out


def round_robin(edges: Sequence[Edge], rng: random.Random) -> List[Edge]:
    groups: Dict[int, List[Edge]] = {}
    for edge in edges:
        groups.setdefault(edge[0], []).append(edge)
    queues = []
    for set_id in sorted(groups):
        group = groups[set_id]
        rng.shuffle(group)
        queues.append(group)
    rng.shuffle(queues)
    out: List[Edge] = []
    cursor = 0
    while queues:
        cursor %= len(queues)
        queue = queues[cursor]
        out.append(queue.pop())
        if queue:
            cursor += 1
        else:
            queues.pop(cursor)
    return out


def large_sets_last(edges: Sequence[Edge], rng: random.Random) -> List[Edge]:
    groups: Dict[int, List[Edge]] = {}
    for edge in edges:
        groups.setdefault(edge[0], []).append(edge)
    set_ids = sorted(groups, key=lambda s: (len(groups[s]), s))
    out: List[Edge] = []
    for set_id in set_ids:
        group = groups[set_id]
        rng.shuffle(group)
        out.extend(group)
    return out


def locally_shuffled(randomness: float) -> Reference:
    def reference(edges: Sequence[Edge], rng: random.Random) -> List[Edge]:
        base = round_robin(edges, make_rng(rng.getrandbits(63)))
        if randomness <= 0.0 or len(base) <= 1:
            return base
        window = max(1, math.ceil(randomness * len(base)))
        out: List[Edge] = []
        for start in range(0, len(base), window):
            chunk = base[start : start + window]
            rng.shuffle(chunk)
            out.extend(chunk)
        return out

    return reference


def explicit(positions: Sequence[int]) -> Reference:
    def reference(edges: Sequence[Edge], rng: random.Random) -> List[Edge]:
        return [edges[i] for i in positions]

    return reference
