"""Streaming substrate: instances, streams, arrival orders, space metering.

This package provides everything the streaming algorithms in
:mod:`repro.core` run on top of:

* :class:`SetCoverInstance` — the static input,
* :class:`EdgeStream` / :class:`ReplayableStream` — one-pass streams,
* arrival-order policies (:mod:`repro.streaming.orders`),
* word-level space accounting (:mod:`repro.streaming.space`),
* bipartite-graph views and I/O helpers.
"""

from repro.streaming.instance import SetCoverInstance, instance_from_edges
from repro.streaming.orders import (
    ORDER_REGISTRY,
    ArrivalOrder,
    CanonicalOrder,
    ExplicitOrder,
    LargeSetsLastOrder,
    LocallyShuffledOrder,
    RandomOrder,
    RoundRobinInterleaveOrder,
    SetGroupedOrder,
    check_permutation,
    make_order,
)
from repro.streaming.space import (
    SpaceBudget,
    SpaceMeter,
    SpaceReport,
    words_for_mapping,
    words_for_set,
)
from repro.streaming.stream import (
    EdgeStream,
    FrozenEdges,
    ReplayableStream,
    StreamReader,
    concat_streams,
    stream_of,
)

__all__ = [
    "SetCoverInstance",
    "instance_from_edges",
    "ArrivalOrder",
    "CanonicalOrder",
    "RandomOrder",
    "SetGroupedOrder",
    "RoundRobinInterleaveOrder",
    "LargeSetsLastOrder",
    "LocallyShuffledOrder",
    "ExplicitOrder",
    "ORDER_REGISTRY",
    "make_order",
    "check_permutation",
    "SpaceMeter",
    "SpaceBudget",
    "SpaceReport",
    "words_for_mapping",
    "words_for_set",
    "EdgeStream",
    "FrozenEdges",
    "StreamReader",
    "ReplayableStream",
    "stream_of",
    "concat_streams",
]
