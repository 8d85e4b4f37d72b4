"""Shared primitive types for the :mod:`repro` package.

The whole library identifies sets and elements by dense non-negative
integers:

* **set ids** live in ``range(m)`` where ``m`` is the number of sets,
* **element ids** live in ``range(n)`` where ``n`` is the universe size.

An *edge* is a ``(set_id, element_id)`` pair, mirroring the paper's
stream of tuples ``(S, u)`` meaning "element ``u`` is contained in set
``S``".  Edges are plain tuples at runtime (cheap, hashable); the
:class:`Edge` NamedTuple is provided for readable construction and
pattern-matching in user code and tests.
"""

from __future__ import annotations

from typing import (
    Iterable,
    Iterator,
    MutableSequence,
    NamedTuple,
    Sequence,
    Tuple,
    Union,
)

import random

import numpy as np

SetId = int
ElementId = int
EdgeTuple = Tuple[SetId, ElementId]


class Edge(NamedTuple):
    """A single stream item: element ``element`` is contained in set ``set_id``."""

    set_id: SetId
    element: ElementId


SeedLike = Union[int, None, random.Random, np.random.Generator]


def make_rng(seed: SeedLike = None) -> random.Random:
    """Return a :class:`random.Random` derived from ``seed``.

    Accepts ``None`` (non-deterministic), an ``int`` seed, an existing
    :class:`random.Random` (returned as-is, shared state), or a numpy
    :class:`~numpy.random.Generator` (a fresh ``Random`` is seeded from
    it so downstream use stays deterministic).
    """
    if isinstance(seed, random.Random):
        return seed
    if isinstance(seed, np.random.Generator):
        return random.Random(int(seed.integers(0, 2**63)))
    return random.Random(seed)


def shuffle(rng: random.Random, items: MutableSequence) -> None:
    """Shuffle ``items`` in place exactly as :meth:`random.Random.shuffle` does.

    CPython's ``shuffle`` swaps ``items[i]`` with ``items[j]`` for ``i``
    from ``len(items) - 1`` down to 1, drawing ``j`` by rejection:
    ``getrandbits(k)`` with ``k = (i + 1).bit_length()`` until the draw
    is at most ``i`` (``_randbelow_with_getrandbits``, the same in
    CPython 3.9 through 3.13).  This loop makes the same
    ``getrandbits`` calls in the same order, so the permutation and
    ``rng``'s final state are the stdlib's; it only skips the Python
    call per draw, walking ``i`` in bands of equal ``k``.  Exact for
    :class:`random.Random` itself only: any other ``rng`` (a subclass
    may override ``random()`` or ``getrandbits()``) shuffles with its
    own ``shuffle``.
    """
    if type(rng) is not random.Random:
        rng.shuffle(items)
        return
    getrandbits = rng.getrandbits
    top = len(items) - 1
    while top > 0:
        k = (top + 1).bit_length()
        low = (1 << (k - 1)) - 1  # the smallest i drawing k bits
        for i in range(top, low - 1, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            items[i], items[j] = items[j], items[i]
        top = low - 1


def make_numpy_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a numpy :class:`~numpy.random.Generator` derived from ``seed``."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, random.Random):
        return np.random.default_rng(seed.getrandbits(63))
    return np.random.default_rng(seed)


def as_edge(item: Union[Edge, EdgeTuple, Sequence[int]]) -> Edge:
    """Coerce ``item`` to an :class:`Edge`, validating arity and sign."""
    set_id, element = item  # raises for wrong arity
    set_id = int(set_id)
    element = int(element)
    if set_id < 0 or element < 0:
        raise ValueError(f"edge ids must be non-negative, got {(set_id, element)}")
    return Edge(set_id, element)


def iter_edges(items: Iterable[Union[Edge, EdgeTuple]]) -> Iterator[Edge]:
    """Yield each item of ``items`` coerced to an :class:`Edge`."""
    for item in items:
        yield as_edge(item)


def first_occurrences(values: np.ndarray, bound: int) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct ``values``, ascending, and where each first occurs.

    The same pair as ``np.unique(values, return_index=True)`` for ids in
    ``range(bound)``, from one scatter-min over a ``bound``-sized array
    instead of a sort: O(len(values) + bound).  Every value must lie in
    ``range(bound)``; a negative one would alias a high id.
    """
    k = len(values)
    first = np.full(bound, k, dtype=np.int64)
    np.minimum.at(first, values, np.arange(k, dtype=np.int64))
    distinct = np.flatnonzero(first < k)
    return distinct, first[distinct]
