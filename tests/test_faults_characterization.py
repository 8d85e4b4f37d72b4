"""Characterization of stream fault injection and sanitizing: pinned digests.

Two grids, every seed fixed:

* :func:`~repro.faults.injectors.apply_faults` over every fault kind ×
  rates {0, 0.01, 0.1, 0.5, 1.0} × three spec seeds, on two instances,
  plus two composed pipelines.  Each cell pins a digest of the
  perturbed edges in order, the declared length and the whole
  :class:`~repro.faults.injectors.InjectionReport` (lengths, per-kind
  counts and the private meter's space report).
* ``ResilientAlgorithm``'s sanitizer on hostile streams — negative ids,
  set ids ``>= m``, elements ``>= n``, in-range pairs the instance
  lacks, duplicated edges and lying lengths.  Each cell pins the kept
  edges in order (with the sanitized stream's name and lengths), the
  skipped count and whether the length lied.

The literals were recorded from the per-edge implementations, before
injection and sanitizing moved onto edge columns; every cell must stay
byte-identical.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.faults.injectors import FAULT_KINDS, FaultSpec, apply_faults, fault_plan
from repro.faults.resilient import _sanitize
from repro.generators.planted import planted_partition_instance
from repro.streaming.instance import SetCoverInstance
from repro.streaming.orders import RandomOrder
from repro.streaming.stream import EdgeStream
from repro.types import make_rng

RATES = (0.0, 0.01, 0.1, 0.5, 1.0)
SPEC_SEEDS = (0, 1, 12345)


def _chain():
    return SetCoverInstance(
        6, [{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 5}], name="chain"
    )


def _planted():
    return planted_partition_instance(80, 30, opt_size=6, seed=11).instance


INSTANCES = {"chain": _chain, "planted": _planted}


def _ordered_edges(name):
    instance = INSTANCES[name]()
    edges = tuple(RandomOrder(seed=7).apply(list(instance.edges())))
    return instance, edges


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _pairs(edges):
    return [[int(s), int(u)] for s, u in edges]


def fault_digest(edges, n, m, specs) -> str:
    out, declared, report = apply_faults(edges, n, m, specs)
    return _digest(
        {
            "edges": _pairs(out),
            "declared": declared,
            "report": dataclasses.asdict(report),
        }
    )


#: (instance, kind, rate) -> digests for SPEC_SEEDS, in order.
EXPECTED_FAULTS = {
    ("chain", "drop", 0.0): (
        "86d6576c378d121a",
        "86d6576c378d121a",
        "86d6576c378d121a",
    ),
    ("chain", "drop", 0.01): (
        "86d6576c378d121a",
        "86d6576c378d121a",
        "86d6576c378d121a",
    ),
    ("chain", "drop", 0.1): (
        "86d6576c378d121a",
        "aab31fa9c82fbf33",
        "07d48d2bbcfbe9f3",
    ),
    ("chain", "drop", 0.5): (
        "5d2d54d8a1f5e8ac",
        "94d8f81e95d35a63",
        "8f28840975a1e2f3",
    ),
    ("chain", "drop", 1.0): (
        "aa3a01fcaba60e86",
        "aa3a01fcaba60e86",
        "aa3a01fcaba60e86",
    ),
    ("chain", "duplicate", 0.0): (
        "0aa0934769536abc",
        "0aa0934769536abc",
        "0aa0934769536abc",
    ),
    ("chain", "duplicate", 0.01): (
        "0aa0934769536abc",
        "0aa0934769536abc",
        "0aa0934769536abc",
    ),
    ("chain", "duplicate", 0.1): (
        "0aa0934769536abc",
        "ae6922375999d318",
        "479f7b67737b61f2",
    ),
    ("chain", "duplicate", 0.5): (
        "868da326bd0e1fdf",
        "2f5a38d5d8046b6d",
        "a18e95b2f704202f",
    ),
    ("chain", "duplicate", 1.0): (
        "741e8f579b151ff4",
        "741e8f579b151ff4",
        "741e8f579b151ff4",
    ),
    ("chain", "corrupt", 0.0): (
        "c05b284abeea9dcd",
        "c05b284abeea9dcd",
        "c05b284abeea9dcd",
    ),
    ("chain", "corrupt", 0.01): (
        "c05b284abeea9dcd",
        "c05b284abeea9dcd",
        "c05b284abeea9dcd",
    ),
    ("chain", "corrupt", 0.1): (
        "c05b284abeea9dcd",
        "68e5bbaca309f324",
        "02ddeafba1ac9403",
    ),
    ("chain", "corrupt", 0.5): (
        "70391155d6e3303a",
        "8fb2e9b437c76461",
        "e40d0cd25f44c916",
    ),
    ("chain", "corrupt", 1.0): (
        "c806a579211c19e5",
        "663b31daebf2d383",
        "b772e31693a4751d",
    ),
    ("chain", "truncate", 0.0): (
        "7e5bc04922d4a9ea",
        "7e5bc04922d4a9ea",
        "7e5bc04922d4a9ea",
    ),
    ("chain", "truncate", 0.01): (
        "7e5bc04922d4a9ea",
        "7e5bc04922d4a9ea",
        "7e5bc04922d4a9ea",
    ),
    ("chain", "truncate", 0.1): (
        "b39320fbe4f86fdc",
        "b39320fbe4f86fdc",
        "b39320fbe4f86fdc",
    ),
    ("chain", "truncate", 0.5): (
        "ef7562ae88232813",
        "ef7562ae88232813",
        "ef7562ae88232813",
    ),
    ("chain", "truncate", 1.0): (
        "ad745acccb80c885",
        "ad745acccb80c885",
        "ad745acccb80c885",
    ),
    ("chain", "reorder", 0.0): (
        "15d06938bfe2a484",
        "f30fe1e89023b7e8",
        "7467de2716561d38",
    ),
    ("chain", "reorder", 0.01): (
        "15d06938bfe2a484",
        "f30fe1e89023b7e8",
        "7467de2716561d38",
    ),
    ("chain", "reorder", 0.1): (
        "15d06938bfe2a484",
        "f30fe1e89023b7e8",
        "7467de2716561d38",
    ),
    ("chain", "reorder", 0.5): (
        "1975373f8bdf3612",
        "c941fccb0ca097c2",
        "a9fc918bcd543509",
    ),
    ("chain", "reorder", 1.0): (
        "bf480c8de0897ad1",
        "e0e53ca2c7b3d979",
        "739b56b3e629680c",
    ),
    ("chain", "lie-length", 0.0): (
        "5e3ea9c2fdfa8114",
        "5e3ea9c2fdfa8114",
        "5e3ea9c2fdfa8114",
    ),
    ("chain", "lie-length", 0.01): (
        "5e3ea9c2fdfa8114",
        "5e3ea9c2fdfa8114",
        "5e3ea9c2fdfa8114",
    ),
    ("chain", "lie-length", 0.1): (
        "5e3ea9c2fdfa8114",
        "5e3ea9c2fdfa8114",
        "5e3ea9c2fdfa8114",
    ),
    ("chain", "lie-length", 0.5): (
        "25fe65c9b6c68691",
        "25fe65c9b6c68691",
        "25fe65c9b6c68691",
    ),
    ("chain", "lie-length", 1.0): (
        "20b864f0863564ed",
        "20b864f0863564ed",
        "20b864f0863564ed",
    ),
    ("planted", "drop", 0.0): (
        "43c4d330400365ea",
        "43c4d330400365ea",
        "43c4d330400365ea",
    ),
    ("planted", "drop", 0.01): (
        "4ea84c773655572b",
        "5e1d4d685fa10091",
        "015367174ce22d38",
    ),
    ("planted", "drop", 0.1): (
        "abe370bf38cb6dcc",
        "a719e52a401fceec",
        "60c5cd4bebcc8ae4",
    ),
    ("planted", "drop", 0.5): (
        "f99615fa6d697590",
        "35b64c422b27a296",
        "3d58ece0dca896f9",
    ),
    ("planted", "drop", 1.0): (
        "bd8f82b4bbf6c71e",
        "bd8f82b4bbf6c71e",
        "bd8f82b4bbf6c71e",
    ),
    ("planted", "duplicate", 0.0): (
        "3e5d010f162be889",
        "3e5d010f162be889",
        "3e5d010f162be889",
    ),
    ("planted", "duplicate", 0.01): (
        "10dba4b5480c56dd",
        "b6d03408f48e7c1d",
        "4c9dc17162408e08",
    ),
    ("planted", "duplicate", 0.1): (
        "1333130c98ff1ab7",
        "11c09c61147cec6e",
        "7aed8c2e5d730662",
    ),
    ("planted", "duplicate", 0.5): (
        "5a8a9d732fc95679",
        "d8befb9dd7f7df94",
        "bee6fe79448b4771",
    ),
    ("planted", "duplicate", 1.0): (
        "c7b6e6c2d8cc80ea",
        "c7b6e6c2d8cc80ea",
        "c7b6e6c2d8cc80ea",
    ),
    ("planted", "corrupt", 0.0): (
        "abcb6b644dd03821",
        "abcb6b644dd03821",
        "abcb6b644dd03821",
    ),
    ("planted", "corrupt", 0.01): (
        "52610e86cadacfba",
        "a4ffd65f7aa6bc7c",
        "0a4d4d264a13b5d2",
    ),
    ("planted", "corrupt", 0.1): (
        "dbf081c2e119a75f",
        "7a7421ebea931b7e",
        "eaaf2a97b4c56765",
    ),
    ("planted", "corrupt", 0.5): (
        "144ccbd3b57d1745",
        "2bf1311fd3fbd97e",
        "7e98f4d70957b30c",
    ),
    ("planted", "corrupt", 1.0): (
        "18499602d422559b",
        "f91ff39943dfdc50",
        "f39727f44d923b15",
    ),
    ("planted", "truncate", 0.0): (
        "7299b746a77fd4e0",
        "7299b746a77fd4e0",
        "7299b746a77fd4e0",
    ),
    ("planted", "truncate", 0.01): (
        "108ab2d33f60bcb2",
        "108ab2d33f60bcb2",
        "108ab2d33f60bcb2",
    ),
    ("planted", "truncate", 0.1): (
        "9719039808c3633c",
        "9719039808c3633c",
        "9719039808c3633c",
    ),
    ("planted", "truncate", 0.5): (
        "7acfda425f436d61",
        "7acfda425f436d61",
        "7acfda425f436d61",
    ),
    ("planted", "truncate", 1.0): (
        "cf60e25ab3e62761",
        "cf60e25ab3e62761",
        "cf60e25ab3e62761",
    ),
    ("planted", "reorder", 0.0): (
        "b30f398d4d9fcfdc",
        "2c4c8bc289a58499",
        "18c8596e4d105a80",
    ),
    ("planted", "reorder", 0.01): (
        "134beceb8568a76b",
        "f9aa1f6ad764fdba",
        "907bdd01a3deaf6b",
    ),
    ("planted", "reorder", 0.1): (
        "05fbae03fa6d899d",
        "755955dc2c3a92e7",
        "779ec0e5df8929f9",
    ),
    ("planted", "reorder", 0.5): (
        "0737d31487c1df4f",
        "6af87962634d63f9",
        "8203af0c47172c1f",
    ),
    ("planted", "reorder", 1.0): (
        "8f6b3028d66ed5dc",
        "39eed5eb9a664da4",
        "0a12df27becce2cf",
    ),
    ("planted", "lie-length", 0.0): (
        "f7ce2d9d3846508d",
        "f7ce2d9d3846508d",
        "f7ce2d9d3846508d",
    ),
    ("planted", "lie-length", 0.01): (
        "2c9652252387c189",
        "2c9652252387c189",
        "2c9652252387c189",
    ),
    ("planted", "lie-length", 0.1): (
        "c375cb10f6d52b1b",
        "c375cb10f6d52b1b",
        "c375cb10f6d52b1b",
    ),
    ("planted", "lie-length", 0.5): (
        "3069814c59e1fd9f",
        "3069814c59e1fd9f",
        "3069814c59e1fd9f",
    ),
    ("planted", "lie-length", 1.0): (
        "8680239640828d03",
        "8680239640828d03",
        "8680239640828d03",
    ),
}

#: (instance, pipeline) -> digest.
EXPECTED_PIPELINES = {
    ("chain", "plan-all-kinds"): "5e78a4d1b71d3647",
    ("chain", "stacked"): "64e9e1060aeed6e8",
    ("planted", "plan-all-kinds"): "a5c189b8c3554b54",
    ("planted", "stacked"): "c055f6fa75fefa17",
}

PIPELINES = {
    "plan-all-kinds": lambda: fault_plan(FAULT_KINDS, 0.2, seed=3),
    "stacked": lambda: [
        FaultSpec("reorder", 0.3, seed=1),
        FaultSpec("corrupt", 0.5, seed=2),
        FaultSpec("duplicate", 0.5, seed=3),
        FaultSpec("lie-length", 0.1, seed=4),
        FaultSpec("drop", 0.2, seed=5),
        FaultSpec("truncate", 0.1, seed=6),
        FaultSpec("lie-length", 0.2, seed=7),
    ],
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
@pytest.mark.parametrize("kind", FAULT_KINDS)
@pytest.mark.parametrize("rate", RATES)
def test_fault_cell_pinned(name, kind, rate):
    instance, edges = _ordered_edges(name)
    got = tuple(
        fault_digest(
            edges, instance.n, instance.m, [FaultSpec(kind, rate, seed=seed)]
        )
        for seed in SPEC_SEEDS
    )
    assert got == EXPECTED_FAULTS[(name, kind, rate)]


@pytest.mark.parametrize("name", sorted(INSTANCES))
@pytest.mark.parametrize("pipeline", sorted(PIPELINES))
def test_fault_pipeline_pinned(name, pipeline):
    instance, edges = _ordered_edges(name)
    got = fault_digest(edges, instance.n, instance.m, PIPELINES[pipeline]())
    assert got == EXPECTED_PIPELINES[(name, pipeline)]


def _absent_pairs(instance, rng, count):
    pairs = []
    while len(pairs) < count:
        s, u = rng.randrange(instance.m), rng.randrange(instance.n)
        if not instance.contains(s, u):
            pairs.append((s, u))
    return pairs


def _splice(edges, debris, rng):
    """Insert each debris edge at a seeded position, keeping the rest."""
    out = list(edges)
    for edge in debris:
        out.insert(rng.randrange(len(out) + 1), edge)
    return out


def hostile_stream(name, case):
    """A seeded hostile stream over instance ``name``."""
    instance, edges = _ordered_edges(name)
    n, m = instance.n, instance.m
    rng = make_rng(sum(map(ord, f"{name}:{case}")))
    declared = None
    if case == "clean":
        out = list(edges)
    elif case == "negative-ids":
        out = _splice(edges, [(-1, 0), (0, -3), (-7, -7), (-1, n - 1)], rng)
    elif case == "set-id-high":
        out = _splice(edges, [(m, 0), (m + 5, 1), (10 * m, n - 1)], rng)
    elif case == "element-high":
        out = _splice(edges, [(0, n), (1, n + 9), (m - 1, 3 * n)], rng)
    elif case == "absent-pairs":
        out = _splice(edges, _absent_pairs(instance, rng, 5), rng)
    elif case == "duplicated":
        out = [e for i, e in enumerate(edges) for _ in range(1 + (i % 3 == 0))]
    elif case == "lie-long":
        out, declared = list(edges), len(edges) + 7
    elif case == "lie-short":
        out, declared = list(edges), max(0, len(edges) - 2)
    else:  # mixed
        debris = [(-1, 0), (m, 0), (0, n), (m + 2, n + 2)]
        debris += _absent_pairs(instance, rng, 3)
        out = _splice(edges + edges[:3], debris, rng)
        declared = len(out) + 1
    return EdgeStream(
        instance, tuple(out), order_name="hostile", declared_length=declared
    )


SANITIZE_CASES = (
    "clean",
    "negative-ids",
    "set-id-high",
    "element-high",
    "absent-pairs",
    "duplicated",
    "lie-long",
    "lie-short",
    "mixed",
)

#: (instance, case) -> (kept-stream digest, skipped, length_lied).
EXPECTED_SANITIZE = {
    ("chain", "clean"): ("250487c238bbe6f6", 0, False),
    ("chain", "negative-ids"): ("d1745c85e4691441", 4, False),
    ("chain", "set-id-high"): ("d1745c85e4691441", 3, False),
    ("chain", "element-high"): ("d1745c85e4691441", 3, False),
    ("chain", "absent-pairs"): ("d1745c85e4691441", 5, False),
    ("chain", "duplicated"): ("f9fb59a246ac38bd", 0, False),
    ("chain", "lie-long"): ("d1745c85e4691441", 0, True),
    ("chain", "lie-short"): ("d1745c85e4691441", 0, True),
    ("chain", "mixed"): ("78abffa2648eae00", 7, True),
    ("planted", "clean"): ("fc494163a4a7f107", 0, False),
    ("planted", "negative-ids"): ("df811cdae5dadab8", 4, False),
    ("planted", "set-id-high"): ("df811cdae5dadab8", 3, False),
    ("planted", "element-high"): ("df811cdae5dadab8", 3, False),
    ("planted", "absent-pairs"): ("df811cdae5dadab8", 5, False),
    ("planted", "duplicated"): ("1849de360f06d5f6", 0, False),
    ("planted", "lie-long"): ("df811cdae5dadab8", 0, True),
    ("planted", "lie-short"): ("df811cdae5dadab8", 0, True),
    ("planted", "mixed"): ("5a4eccf097a9235f", 7, True),
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
@pytest.mark.parametrize("case", SANITIZE_CASES)
def test_sanitize_pinned(name, case):
    stream = hostile_stream(name, case)
    clean, skipped, length_lied = _sanitize(stream)
    assert stream.consumed and not clean.consumed
    digest = _digest(
        {
            "edges": _pairs(clean.peek_all()),
            "order": clean.order_name,
            "length": clean.length,
            "actual": clean.actual_length,
        }
    )
    assert (digest, skipped, length_lied) == EXPECTED_SANITIZE[(name, case)]
