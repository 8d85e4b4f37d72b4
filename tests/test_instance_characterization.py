"""Characterization of instance construction: pinned columns and errors.

Two grids, every seed fixed:

* every generator family in :mod:`repro.generators` × three seeds: the
  sha256 of the ``int64`` bytes of
  :meth:`~repro.streaming.instance.SetCoverInstance.edge_columns`, and
  the instance's ``n``, ``m`` and ``name``;
* :class:`~repro.streaming.instance.SetCoverInstance` and
  :func:`~repro.streaming.instance.instance_from_edges` on hostile
  inputs (duplicate edges, empty sets, out-of-range, negative and
  beyond-int64 ids, numpy integer ids, ``bool`` ids): the columns, or
  the error type.

The literals were recorded from the parent of the change that made the
instance hold its edge columns in CSR form; every cell must stay
byte-identical.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.generators import (
    blogwatch_instance,
    disjoint_blocks_with_noise,
    fixed_size_instance,
    gnp_dominating_set,
    layered_hard_instance,
    needle_in_haystack,
    planted_partition_instance,
    preferential_attachment_dominating_set,
    quadratic_family,
    star_forest_dominating_set,
    two_tier_instance,
    uniform_instance,
    zipf_instance,
)
from repro.streaming.instance import SetCoverInstance, instance_from_edges
from repro.types import Edge

SEEDS = (1, 7, 42)

#: Generator family -> instance for a seed.
GENERATORS = {
    "uniform": lambda seed: uniform_instance(80, 40, 0.08, seed=seed),
    "fixed-size": lambda seed: fixed_size_instance(60, 50, set_size=6, seed=seed),
    "two-tier": lambda seed: two_tier_instance(70, 40, 4, seed=seed),
    "quadratic": lambda seed: quadratic_family(12, seed=seed),
    "planted": lambda seed: planted_partition_instance(90, 40, 6, seed=seed).instance,
    "blocks-noise": lambda seed: disjoint_blocks_with_noise(60, 5, 3, seed=seed).instance,
    "zipf": lambda seed: zipf_instance(100, 60, seed=seed),
    "blogwatch": lambda seed: blogwatch_instance(40, 30, seed=seed),
    "gnp": lambda seed: gnp_dominating_set(50, 0.08, seed=seed),
    "star-forest": lambda seed: star_forest_dominating_set(5, 6, seed=seed),
    "pref-attach": lambda seed: preferential_attachment_dominating_set(50, seed=seed),
    "needle": lambda seed: needle_in_haystack(64, 30, seed=seed).instance,
    "layered": lambda seed: layered_hard_instance(64, 4, 6, seed=seed),
}


def columns_digest(instance: SetCoverInstance) -> str:
    """sha256 of the little-endian int64 bytes of both edge columns."""
    set_ids, elements = instance.edge_columns()
    digest = hashlib.sha256()
    for column in (set_ids, elements):
        assert column.dtype == np.int64 and not column.flags.writeable
        digest.update(column.astype("<i8").tobytes())
    return digest.hexdigest()


#: (family, seed) -> (columns digest, n, m, name).
GENERATOR_PINS = {
    ("uniform", 1): (
        "d54cff299dae9c4c80f506ca938264c93c5492ecc8290e4f3fbfe04ef2dec574",
        80,
        40,
        "uniform(n=80,m=40,p=0.08)",
    ),
    ("uniform", 7): (
        "91156ab99ac8c89b9919834fbb017437dbecbd8147e70d9625fef6e8199cebe5",
        80,
        40,
        "uniform(n=80,m=40,p=0.08)",
    ),
    ("uniform", 42): (
        "d3b53ecd82e2ca0644c422d58a480af494139e73532ff76fb78e0389cb780560",
        80,
        40,
        "uniform(n=80,m=40,p=0.08)",
    ),
    ("fixed-size", 1): (
        "21d0eb6a68d5dd1d964e54a93f19c2fafe8ca730c263e6b9ae12898eb0021b89",
        60,
        50,
        "fixed-size(n=60,m=50,k=6)",
    ),
    ("fixed-size", 7): (
        "6ec1e668d39903c9569ea6646821a5ecd380dc641130c8207fda13a119f23768",
        60,
        50,
        "fixed-size(n=60,m=50,k=6)",
    ),
    ("fixed-size", 42): (
        "d4c6ac7d026f92fc0b16d2b000a3c4830b6da86260f678048d4391fd7725c6cc",
        60,
        50,
        "fixed-size(n=60,m=50,k=6)",
    ),
    ("two-tier", 1): (
        "b807dc4c0cf600e803af0e5ddbbfe848b5a0fa095cea13b98809ce0bca0af63e",
        70,
        44,
        "two-tier(n=70,small=40x5,big=4x70)",
    ),
    ("two-tier", 7): (
        "47496a15eade6a69eeb1b488c58982d6c7ce270e4bdf40e2cd2e24d0927c283e",
        70,
        44,
        "two-tier(n=70,small=40x5,big=4x70)",
    ),
    ("two-tier", 42): (
        "73fbc028cd853b1047ecc0e10942ce1bc21220f51a781ef65677e13fb9ef9114",
        70,
        44,
        "two-tier(n=70,small=40x5,big=4x70)",
    ),
    ("quadratic", 1): (
        "ffec390eecc8a1c106d56348d089b4d55d63c6e5de3ba2e29b391aebf667f871",
        12,
        144,
        "quadratic(n=12,m=144,k=3)",
    ),
    ("quadratic", 7): (
        "42da9d15520fcf7a8f7403d3038ff350267753718ba3ef7c9560710b9bc4eca8",
        12,
        144,
        "quadratic(n=12,m=144,k=3)",
    ),
    ("quadratic", 42): (
        "bfd03d48fdc6b1adf0e0c9a6af6530b0734fb1e5988844435c752a9cab71aa5c",
        12,
        144,
        "quadratic(n=12,m=144,k=3)",
    ),
    ("planted", 1): (
        "c1e768a7435b743d7f79fa3a2f7b5074eea06bea396d221c623b043f140e1fd8",
        90,
        40,
        "planted(n=90,m=40,opt=6)",
    ),
    ("planted", 7): (
        "f0329515f9de76d8747060d4e8095e7067c8ee9b35397e53fafcd5a78d3f0dda",
        90,
        40,
        "planted(n=90,m=40,opt=6)",
    ),
    ("planted", 42): (
        "3812f1640869600abaaf05418667fa1eea9abc4a04f48f51b76df67a61edd9f1",
        90,
        40,
        "planted(n=90,m=40,opt=6)",
    ),
    ("blocks-noise", 1): (
        "c5a6d2da6bbc04ca32217ab204cd06645fa8b86d65274fa920608083875a1464",
        60,
        20,
        "blocks+noise(n=60,opt=5,decoys=15)",
    ),
    ("blocks-noise", 7): (
        "ace5554d2ceb58617b7cf36137f20582f6a614aa33943cdc16f0f4471d829cef",
        60,
        20,
        "blocks+noise(n=60,opt=5,decoys=15)",
    ),
    ("blocks-noise", 42): (
        "acd6155f2c7262931eefaf185202edcb438430cd097a8760b2df77d9bbc54f98",
        60,
        20,
        "blocks+noise(n=60,opt=5,decoys=15)",
    ),
    ("zipf", 1): (
        "f5d2db02f0a08a02035770b5931ad497e3e8e1a79343109b8333a967be3b22b9",
        100,
        60,
        "zipf(n=100,m=60,s=1.5)",
    ),
    ("zipf", 7): (
        "96c989418845b861bbdbe13b0218c39dfd00951746924e312cfa463b00150d71",
        100,
        60,
        "zipf(n=100,m=60,s=1.5)",
    ),
    ("zipf", 42): (
        "5df3170ef3d3b074fa10b6e4bd8e2320716c9a53231857418db015550cc3b99b",
        100,
        60,
        "zipf(n=100,m=60,s=1.5)",
    ),
    ("blogwatch", 1): (
        "f47c5bae13ffcf47544367b8b2b976d3c03a977125194876912f4cacf121d7d0",
        40,
        30,
        "blogwatch(topics=40,blogs=30)",
    ),
    ("blogwatch", 7): (
        "1e08b1e78919775760b09094998dbddfb8e516c55818e1644214bd642de05a4f",
        40,
        30,
        "blogwatch(topics=40,blogs=30)",
    ),
    ("blogwatch", 42): (
        "ddea6ec7ad190edce44157292cc40d289a27067431d1f5cc596efc4ad1299566",
        40,
        30,
        "blogwatch(topics=40,blogs=30)",
    ),
    ("gnp", 1): (
        "ef472b32e18b2fd1666fef62bcaae763e18f0ae9f3bd97b27d0340ce884ad402",
        50,
        50,
        "gnp-domset(n=50,p=0.08)",
    ),
    ("gnp", 7): (
        "6a1602ad37c51343667169f730fe2e255a5be32678b5d512408d2696ef0b80b0",
        50,
        50,
        "gnp-domset(n=50,p=0.08)",
    ),
    ("gnp", 42): (
        "3591a87964ba20cfbb4ba59b6b771fc104b6f3bd5cf038c880f7deca29c08ab2",
        50,
        50,
        "gnp-domset(n=50,p=0.08)",
    ),
    ("star-forest", 1): (
        "3ecfcc9e5984f43b19f8aadbd2fa4f0b87013b8972f627d9f8e5284fd39ae65c",
        35,
        35,
        "stars(centres=5,leaves=6)",
    ),
    ("star-forest", 7): (
        "3ecfcc9e5984f43b19f8aadbd2fa4f0b87013b8972f627d9f8e5284fd39ae65c",
        35,
        35,
        "stars(centres=5,leaves=6)",
    ),
    ("star-forest", 42): (
        "3ecfcc9e5984f43b19f8aadbd2fa4f0b87013b8972f627d9f8e5284fd39ae65c",
        35,
        35,
        "stars(centres=5,leaves=6)",
    ),
    ("pref-attach", 1): (
        "8a195a7566040ad9380d6c68678a0f1d92049f268cc7bafed2a9c3b07f55fc0e",
        50,
        50,
        "scale-free-domset(n=50,attach=2)",
    ),
    ("pref-attach", 7): (
        "f147ec5c5b5ec4dda690273db9d061fac360b6861414043f6176208c179fb35c",
        50,
        50,
        "scale-free-domset(n=50,attach=2)",
    ),
    ("pref-attach", 42): (
        "e143e19631754d2bbf5087b8eeac89ed5c1fb97050574ac567635b09bd304c43",
        50,
        50,
        "scale-free-domset(n=50,attach=2)",
    ),
    ("needle", 1): (
        "48a61d98e1de27369902935515d150111de668ae75c8b6a215e2fad578bc9455",
        64,
        32,
        "needle(n=64,decoys=30,t=4)",
    ),
    ("needle", 7): (
        "9cd41baf69309bb81748cf3dd3b5c495907836fb21c2d02cb5e1f458c715265a",
        64,
        32,
        "needle(n=64,decoys=30,t=4)",
    ),
    ("needle", 42): (
        "79f16e16d440c945bc4273a414978229ad2cfd5af8e74b3706c72d49f1cc0f0e",
        64,
        32,
        "needle(n=64,decoys=30,t=4)",
    ),
    ("layered", 1): (
        "e49de36c8871dd7864b227aa62341bf7bcef85fc69cf952b86911d15425aa3fb",
        64,
        24,
        "layered(n=64,layers=4,per=6)",
    ),
    ("layered", 7): (
        "e7d6bf012cf5dcb86b4d5a9462ca61c9bd0882d63a59538cdee0327cd7cd888e",
        64,
        24,
        "layered(n=64,layers=4,per=6)",
    ),
    ("layered", 42): (
        "309d0e43939c43ee5666aaa3070a713eeeaf3ee0ab57b90e85e823210c24dda2",
        64,
        24,
        "layered(n=64,layers=4,per=6)",
    ),
}


@pytest.mark.parametrize("family, seed", [(f, s) for f in GENERATORS for s in SEEDS])
def test_generator_columns_pinned(family, seed):
    instance = GENERATORS[family](seed)
    record = (columns_digest(instance), instance.n, instance.m, instance.name)
    assert record == GENERATOR_PINS[family, seed]


@pytest.mark.parametrize("family, seed", [(f, s) for f in GENERATORS for s in SEEDS])
def test_covering_sets_by_element_matches_covering_sets(family, seed):
    instance = GENERATORS[family](seed)
    assert instance.covering_sets_by_element() == [
        instance.covering_sets(u) for u in range(instance.n)
    ]


def _build(cell):
    """The cell's instance as ``(n, m, set_ids, elements)`` lists, or its error type."""
    try:
        instance = cell()
    except Exception as exc:  # noqa: BLE001 - the error type is the pin
        return type(exc).__name__
    set_ids, elements = instance.edge_columns()
    return (instance.n, instance.m, set_ids.tolist(), elements.tolist())


#: Cell name -> builder.
HOSTILE_CELLS = {
    # The constructor, from per-set iterables.
    "sets-duplicates": lambda: SetCoverInstance(4, [[3, 1, 3, 1], [0, 0], [2]]),
    "sets-empty": lambda: SetCoverInstance(3, [[], [2, 0], [], set()]),
    "sets-unsorted-iterables": lambda: SetCoverInstance(
        6, [(5, 0, 3), iter([4, 1]), (u for u in (2, 5))]
    ),
    "sets-only-empty": lambda: SetCoverInstance(2, [[]]),
    "sets-none": lambda: SetCoverInstance(2, []),
    "sets-zero-universe": lambda: SetCoverInstance(0, [[0]]),
    "sets-element-equals-n": lambda: SetCoverInstance(3, [[0, 3]]),
    "sets-negative-element": lambda: SetCoverInstance(3, [[1], [-1]]),
    "sets-element-2^63": lambda: SetCoverInstance(3, [[0], [2**63]]),
    "sets-element-2^70": lambda: SetCoverInstance(3, [[2**70, 1]]),
    "sets-element-below-int64": lambda: SetCoverInstance(3, [[-(2**63) - 1]]),
    "sets-uint64-2^63": lambda: SetCoverInstance(3, [[np.uint64(2**63)]]),
    "sets-numpy-ints": lambda: SetCoverInstance(
        5,
        [
            np.array([4, 0, 2], dtype=np.int32),
            [np.int64(1), np.uint8(3), np.int16(1)],
            np.array([], dtype=np.int64),
        ],
    ),
    "sets-numpy-2d": lambda: SetCoverInstance(4, np.array([[3, 1], [0, 2]])),
    "sets-bool": lambda: SetCoverInstance(2, [[True, False, True], [False]]),
    "sets-numpy-bool": lambda: SetCoverInstance(2, [[np.True_], [np.False_, 1]]),
    # instance_from_edges, from (set, element) pairs.
    "edges-duplicates": lambda: instance_from_edges(
        3, 2, [(1, 2), (0, 0), (1, 2), (0, 0), (0, 1)]
    ),
    "edges-empty-sets": lambda: instance_from_edges(3, 4, [(2, 1), (2, 0)]),
    "edges-none": lambda: instance_from_edges(2, 2, []),
    "edges-zero-sets": lambda: instance_from_edges(2, 0, []),
    "edges-records": lambda: instance_from_edges(
        3, 2, [Edge(1, 0), Edge(0, 2), Edge(1, 1)]
    ),
    "edges-set-equals-m": lambda: instance_from_edges(3, 2, [(0, 0), (2, 1)]),
    "edges-negative-set": lambda: instance_from_edges(3, 2, [(-1, 0)]),
    "edges-set-2^63": lambda: instance_from_edges(3, 2, [(2**63, 0)]),
    "edges-set-2^70": lambda: instance_from_edges(3, 2, [(2**70, 0)]),
    "edges-element-equals-n": lambda: instance_from_edges(3, 2, [(0, 3)]),
    "edges-negative-element": lambda: instance_from_edges(3, 2, [(1, -1)]),
    "edges-element-2^70": lambda: instance_from_edges(3, 2, [(0, 2**70)]),
    "edges-uint64-2^63": lambda: instance_from_edges(3, 2, [(0, np.uint64(2**63))]),
    "edges-numpy-ints": lambda: instance_from_edges(
        4, 3, [(np.int32(2), np.int64(3)), (np.uint8(0), 1), (2, np.int16(0))]
    ),
    "edges-bool": lambda: instance_from_edges(2, 2, [(True, False), (False, True)]),
    "edges-numpy-bool": lambda: instance_from_edges(2, 2, [(np.True_, np.True_)]),
}

#: Cell name -> ``(n, m, set_ids, elements)`` or the error type's name.
HOSTILE_PINS = {
    "sets-duplicates": (4, 3, [0, 0, 1, 2], [1, 3, 0, 2]),
    "sets-empty": (3, 4, [1, 1], [0, 2]),
    "sets-unsorted-iterables": (6, 3, [0, 0, 0, 1, 1, 2, 2], [0, 3, 5, 1, 4, 2, 5]),
    "sets-only-empty": (2, 1, [], []),
    "sets-none": "InvalidInstanceError",
    "sets-zero-universe": "InvalidInstanceError",
    "sets-element-equals-n": "InvalidInstanceError",
    "sets-negative-element": "InvalidInstanceError",
    "sets-element-2^63": "InvalidInstanceError",
    "sets-element-2^70": "InvalidInstanceError",
    "sets-element-below-int64": "InvalidInstanceError",
    "sets-uint64-2^63": "InvalidInstanceError",
    "sets-numpy-ints": (5, 3, [0, 0, 0, 1, 1], [0, 2, 4, 1, 3]),
    "sets-numpy-2d": (4, 2, [0, 0, 1, 1], [1, 3, 0, 2]),
    "sets-bool": (2, 2, [0, 0, 1], [0, 1, 0]),
    "sets-numpy-bool": (2, 2, [0, 1, 1], [1, 0, 1]),
    "edges-duplicates": (3, 2, [0, 0, 1], [0, 1, 2]),
    "edges-empty-sets": (3, 4, [2, 2], [0, 1]),
    "edges-none": (2, 2, [], []),
    "edges-zero-sets": "InvalidInstanceError",
    "edges-records": (3, 2, [0, 1, 1], [2, 0, 1]),
    "edges-set-equals-m": "InvalidInstanceError",
    "edges-negative-set": "InvalidInstanceError",
    "edges-set-2^63": "InvalidInstanceError",
    "edges-set-2^70": "InvalidInstanceError",
    "edges-element-equals-n": "InvalidInstanceError",
    "edges-negative-element": "InvalidInstanceError",
    "edges-element-2^70": "InvalidInstanceError",
    "edges-uint64-2^63": "InvalidInstanceError",
    "edges-numpy-ints": (4, 3, [0, 2, 2], [1, 0, 3]),
    "edges-bool": (2, 2, [0, 1], [1, 0]),
    "edges-numpy-bool": (2, 2, [1], [1]),
}


@pytest.mark.parametrize("name", list(HOSTILE_CELLS))
def test_hostile_input_pinned(name):
    assert _build(HOSTILE_CELLS[name]) == HOSTILE_PINS[name]
