"""Characterization of the offline greedy paths: pinned digests.

Three grids, every seed fixed:

* :func:`~repro.baselines.greedy.greedy_cover` on instances from every
  generator family, two seeds each: the cover, the certificate items in
  order and the :class:`~repro.streaming.space.SpaceReport`;
* :class:`~repro.baselines.store_all.StoreAllAlgorithm` on three
  instances × two arrival orders × two seeds, traced: the cover, the
  certificate items in order, the ``SpaceReport`` and the trace bytes;
* :meth:`GreedyCoordinator.merge
  <repro.distributed.coordinator.GreedyCoordinator.merge>` over seeded
  candidate pools (partial membership views, repeated sets across
  shards, many tied gains), full and ``allow_partial``: the cover in
  pick order, the certificate, the uncovered elements, the diagnostics
  and the metered words — or the error type and message.

The literals were recorded from the parent of the change that put all
three on one greedy pick loop; every cell must stay byte-identical.
The ``greedy_cover`` and store-all literals were re-recorded when the
instance moved from one ``frozenset`` per set to CSR edge columns: the
certificate items used to follow each set's hash-table iteration order
and now follow ascending ``(witness, element)`` order.  The parent's
records, with only their certificate items sorted that way, give the
new literals.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.baselines.greedy import greedy_cover
from repro.baselines.store_all import StoreAllAlgorithm
from repro.distributed.chain import SetRows
from repro.distributed.comm import CommMeter
from repro.distributed.coordinator import GreedyCoordinator
from repro.distributed.transport import InprocTransport
from repro.distributed.worker import ShardOutput
from repro.errors import ReproError
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
from repro.obs.tracer import NULL_TRACER, RecordingTracer
from repro.streaming.orders import CanonicalOrder, RandomOrder
from repro.streaming.stream import stream_of

SEEDS = (1, 7)

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


def _digest(record) -> str:
    text = json.dumps(record, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _space(space):
    return [
        space.peak_words,
        space.final_words,
        sorted(space.components_at_peak.items()),
        sorted(space.component_peaks.items()),
    ]


def greedy_cover_cell(family: str):
    records = []
    for seed in SEEDS:
        result = greedy_cover(GENERATORS[family](seed))
        records.append(
            {
                "cover": sorted(result.cover),
                "certificate": list(result.certificate.items()),
                "space": _space(result.space),
                "algorithm": result.algorithm,
            }
        )
    return records


STORE_ALL_INSTANCES = {
    "uniform": lambda: uniform_instance(80, 40, 0.08, seed=3),
    "planted": lambda: planted_partition_instance(90, 40, 6, seed=4).instance,
    "zipf": lambda: zipf_instance(100, 60, seed=5),
}

STORE_ALL_ORDERS = {
    "canonical": lambda seed: CanonicalOrder(),
    "random": lambda seed: RandomOrder(seed=seed),
}


def store_all_cell(name: str, order: str):
    instance = STORE_ALL_INSTANCES[name]()
    records = []
    for seed in SEEDS:
        tracer = RecordingTracer()
        algorithm = StoreAllAlgorithm(seed=seed)
        algorithm.set_tracer(tracer)
        result = algorithm.run(stream_of(instance, STORE_ALL_ORDERS[order](seed)))
        tracer.finish()
        records.append(
            {
                "cover": sorted(result.cover),
                "certificate": list(result.certificate.items()),
                "space": _space(result.space),
                "diagnostics": sorted(result.diagnostics.items()),
                "trace": tracer.to_jsonl(),
            }
        )
    return records


def _candidate_pool(rng: random.Random, n: int, m: int, shards: int):
    """Seeded shard outputs whose pooled candidates tie often.

    Memberships are small random subsets of a small universe, so many
    sets share a gain; a set may appear on several shards with
    different partial views, which the coordinator unions.
    """
    truth = {
        s: frozenset(rng.sample(range(n), rng.randint(0, min(n, 5))))
        for s in range(m)
    }
    outputs = []
    for index in range(shards):
        cover = frozenset(rng.sample(range(m), rng.randint(0, m)))
        members = {
            s: frozenset(u for u in truth[s] if rng.random() < 0.8) for s in cover
        }
        outputs.append(
            ShardOutput(
                index=index,
                cover=cover,
                certificate={},
                rows=SetRows.from_mapping(members, sorted(cover)),
            )
        )
    return outputs


class _Shape:
    def __init__(self, n: int) -> None:
        self.n = n


def coordinator_cell(pool_seed: int, allow_partial: bool):
    rng = random.Random(pool_seed)
    records = []
    for _ in range(25):
        n = rng.randint(1, 10)
        outputs = _candidate_pool(rng, n, rng.randint(1, 16), rng.randint(1, 4))
        comm = CommMeter()
        try:
            outcome = GreedyCoordinator().merge(
                _Shape(n),
                outputs,
                comm,
                NULL_TRACER,
                InprocTransport(),
                allow_partial=allow_partial,
            )
        except ReproError as error:
            records.append({"error": type(error).__name__, "message": str(error)})
            continue
        report = comm.report()
        records.append(
            {
                "cover": list(outcome.cover),
                "certificate": sorted(outcome.certificate.items()),
                "uncovered": list(outcome.uncovered),
                "diagnostics": sorted(outcome.diagnostics.items()),
                "words": [
                    report.total_words,
                    report.max_message_words,
                    sorted(report.per_link_words.items()),
                ],
            }
        )
    return records


#: Generator family -> digest of greedy_cover over SEEDS.
GREEDY_COVER_GRID = {
    "blocks-noise": "5ac558af5b3a489f",
    "blogwatch": "cac6d0c4d3d06fa9",
    "fixed-size": "4fc1a47a390ea1c7",
    "gnp": "8d2fd3ac47e8eee6",
    "layered": "7067dd6da0797eba",
    "needle": "c739425a8e5c3d0a",
    "planted": "dcf070b8bfa6df5c",
    "pref-attach": "52a0bb9fb0157e28",
    "quadratic": "a9d5a0c575f6e05e",
    "star-forest": "ec224ffc13f88ffd",
    "two-tier": "c057a374b51c3ecb",
    "uniform": "aa9ad95391472b2c",
    "zipf": "5d9aa9f57d720bc3",
}

#: (instance, order) -> digest of the traced store-all runs over SEEDS.
STORE_ALL_GRID = {
    ("uniform", "canonical"): "d092be6aab18adec",
    ("uniform", "random"): "d092be6aab18adec",
    ("planted", "canonical"): "0c289302930e4455",
    ("planted", "random"): "0c289302930e4455",
    ("zipf", "canonical"): "b077fd76568e8c2d",
    ("zipf", "random"): "b077fd76568e8c2d",
}

#: (pool seed, allow_partial) -> digest of 25 greedy merges.
COORDINATOR_GRID = {
    (0, False): "8cdc0104d9608ff3",
    (0, True): "9abe6e83cc1dc9e2",
    (1, False): "8c930cd48796ca1a",
    (1, True): "b54cc603b64fe359",
    (2, False): "c22143497c0ba3b8",
    (2, True): "ca106348ffe455fe",
    (3, False): "5e5bf5414819002a",
    (3, True): "6d354cdebccfddc7",
}


@pytest.mark.parametrize("family", sorted(GENERATORS))
def test_greedy_cover_pinned(family):
    assert _digest(greedy_cover_cell(family)) == GREEDY_COVER_GRID[family]


@pytest.mark.parametrize(
    "name,order",
    sorted((name, order) for name in STORE_ALL_INSTANCES for order in STORE_ALL_ORDERS),
)
def test_store_all_pinned(name, order):
    assert _digest(store_all_cell(name, order)) == STORE_ALL_GRID[(name, order)]


@pytest.mark.parametrize("allow_partial", [False, True])
@pytest.mark.parametrize("pool_seed", [0, 1, 2, 3])
def test_greedy_merge_pinned(pool_seed, allow_partial):
    assert _digest(coordinator_cell(pool_seed, allow_partial)) == (
        COORDINATOR_GRID[(pool_seed, allow_partial)]
    )
