"""Bipartite incidence-graph view of set-cover instances (paper Section 2).

The paper represents an instance ``(S, U)`` as a bipartite graph
``G = (S, U, E)`` with ``(S_i, u) ∈ E`` iff ``u ∈ S_i``; a cover is a
subset of the left side whose neighbourhood is the whole right side.
This module provides conversions in both directions plus the
Dominating-Set encoding (the ``m = n`` special case studied by
Khanna–Konrad [19] that motivates the KK-algorithm).

``networkx`` is used only here and only optionally — the rest of the
library has no graph dependency.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.errors import InvalidInstanceError
from repro.streaming.instance import SetCoverInstance
from repro.types import ElementId, SetId


def to_biadjacency(instance: SetCoverInstance) -> List[Set[ElementId]]:
    """Adjacency of the left (set) side: ``adj[s]`` = elements of set s."""
    return [set(instance.set_members(s)) for s in range(instance.m)]


def element_adjacency(instance: SetCoverInstance) -> List[Set[SetId]]:
    """Adjacency of the right (element) side: ``adj[u]`` = sets containing u."""
    adj: List[Set[SetId]] = [set() for _ in range(instance.n)]
    for s, u in instance.edges():
        adj[u].add(s)
    return adj


def to_networkx(instance: SetCoverInstance):
    """Build a ``networkx`` bipartite graph of the instance.

    Left nodes are ``("S", set_id)``, right nodes ``("U", element)``;
    node attribute ``bipartite`` is 0 for sets and 1 for elements.
    """
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from((("S", s) for s in range(instance.m)), bipartite=0)
    graph.add_nodes_from((("U", u) for u in range(instance.n)), bipartite=1)
    graph.add_edges_from((("S", s), ("U", u)) for s, u in instance.edges())
    return graph


def from_networkx(graph) -> SetCoverInstance:
    """Rebuild an instance from a graph produced by :func:`to_networkx`."""
    set_ids = sorted(node[1] for node in graph.nodes if node[0] == "S")
    element_ids = sorted(node[1] for node in graph.nodes if node[0] == "U")
    if set_ids != list(range(len(set_ids))):
        raise InvalidInstanceError("set ids in graph are not dense 0..m-1")
    if element_ids != list(range(len(element_ids))):
        raise InvalidInstanceError("element ids in graph are not dense 0..n-1")
    members: List[Set[ElementId]] = [set() for _ in set_ids]
    for left, right in graph.edges:
        if left[0] == "U":
            left, right = right, left
        if left[0] != "S" or right[0] != "U":
            raise InvalidInstanceError(f"non-bipartite edge {(left, right)}")
        members[left[1]].add(right[1])
    return SetCoverInstance(len(element_ids), members, name="from-networkx")


def dominating_set_instance(
    adjacency: Sequence[Iterable[int]], name: str = "dominating-set"
) -> SetCoverInstance:
    """Encode Dominating Set on a graph as edge-arrival Set Cover.

    Vertex ``v``'s set is its closed neighbourhood ``N[v] = {v} ∪ N(v)``;
    a dominating set of the graph is exactly a set cover of this
    instance, giving the ``m = n`` special case of [19].

    Parameters
    ----------
    adjacency:
        ``adjacency[v]`` lists the neighbours of vertex ``v``; the graph
        is taken as undirected (edges are symmetrised).
    """
    n = len(adjacency)
    if n == 0:
        raise InvalidInstanceError("graph must have at least one vertex")
    closed: List[Set[int]] = [{v} for v in range(n)]
    for v, neighbours in enumerate(adjacency):
        for w in neighbours:
            if not 0 <= w < n:
                raise InvalidInstanceError(
                    f"vertex {v} lists neighbour {w} outside range(0, {n})"
                )
            if w == v:
                continue
            closed[v].add(w)
            closed[w].add(v)
    return SetCoverInstance(n, closed, name=name)


def degree_histogram(instance: SetCoverInstance) -> Dict[int, int]:
    """Histogram ``degree -> count`` over element degrees.

    High-degree elements (degree ≥ ~m/√n) are exactly the ones epoch 0
    of Algorithm 1 detects and marks; this helper supports tests and
    diagnostics around that mechanism.
    """
    hist: Dict[int, int] = {}
    for degree in instance.element_degrees():
        hist[degree] = hist.get(degree, 0) + 1
    return hist


def set_size_histogram(instance: SetCoverInstance) -> Dict[int, int]:
    """Histogram ``size -> count`` over set sizes."""
    hist: Dict[int, int] = {}
    for s in range(instance.m):
        size = instance.set_size(s)
        hist[size] = hist.get(size, 0) + 1
    return hist
