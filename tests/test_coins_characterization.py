"""Characterization of the seeded coin draws: pinned digests.

One grid, every seed fixed: each randomized algorithm (the low-space
adversarial algorithm at α ∈ {1, 2√n, n}, kk, random-order, element
sampling, first-fit and the uniform up-front sample) × space budgets
{none, 40, 97, 150, 400} words × the full random-order stream or its
first third, each over five instances × two seeds.  Every run is traced
and handed its own ``random.Random``; each record pins

* the cover, the certificate items in order and the ``SpaceReport`` —
  or the error type, ``used`` and the ``PartialState``;
* the diagnostics;
* the trace JSONL;
* the RNG state after the run.

The literals were recorded from the parent of the change that batched
the adversarial algorithm's coins; every cell must stay byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from typing import Optional

import pytest

from repro.baselines.trivial import FirstFitAlgorithm, UniformSampleAlgorithm
from repro.core.adversarial import LowSpaceAdversarialAlgorithm
from repro.core.element_sampling import ElementSamplingAlgorithm
from repro.core.kk import KKAlgorithm
from repro.core.random_order import RandomOrderAlgorithm
from repro.errors import ReproError
from repro.generators.planted import planted_partition_instance
from repro.generators.random_instances import fixed_size_instance, uniform_instance
from repro.obs.tracer import RecordingTracer
from repro.streaming.orders import RandomOrder
from repro.streaming.space import SpaceBudget
from repro.streaming.stream import EdgeStream

#: Row name -> constructor ``(instance, rng, budget) -> algorithm``.
ALGORITHMS = {
    "adversarial-alpha-1": lambda inst, rng, budget: LowSpaceAdversarialAlgorithm(
        alpha=1, seed=rng, space_budget=budget
    ),
    "adversarial-alpha-2sqrtn": lambda inst, rng, budget: LowSpaceAdversarialAlgorithm(
        alpha=2 * math.sqrt(inst.n), seed=rng, space_budget=budget
    ),
    "adversarial-alpha-n": lambda inst, rng, budget: LowSpaceAdversarialAlgorithm(
        alpha=inst.n, seed=rng, space_budget=budget
    ),
    "kk": lambda inst, rng, budget: KKAlgorithm(seed=rng, space_budget=budget),
    "random-order": lambda inst, rng, budget: RandomOrderAlgorithm(
        seed=rng, space_budget=budget
    ),
    "element-sampling": lambda inst, rng, budget: ElementSamplingAlgorithm(
        alpha=math.sqrt(inst.n), seed=rng, space_budget=budget
    ),
    "first-fit": lambda inst, rng, budget: FirstFitAlgorithm(
        seed=rng, space_budget=budget
    ),
    "uniform-sample": lambda inst, rng, budget: UniformSampleAlgorithm(
        rate=0.1, seed=rng, space_budget=budget
    ),
}

BUDGETS = (None, 40, 97, 150, 400)
CUTS = ("full", "third")
SEEDS = (1, 2)


def _instances():
    # The fourth has more sets than elements, so p0 = α/m < 1 even at
    # α = n; the fifth spans several 8192-edge chunks.
    return (
        uniform_instance(120, 60, 0.06, seed=3),
        planted_partition_instance(150, 50, 6, seed=4).instance,
        uniform_instance(150, 20, 0.1, seed=3),
        uniform_instance(60, 200, 0.05, seed=5),
        fixed_size_instance(300, 1500, 20, seed=6),
    )


def _outcome(algorithm, stream):
    """A JSON-ready record of one run's result or failure."""
    try:
        result = algorithm.run(stream)
    except ReproError as error:
        partial = error.partial
        return {
            "error": type(error).__name__,
            "used": getattr(error, "used", None),
            "cover": sorted(partial.cover),
            "certificate": list(partial.certificate.items()),
            "edges_consumed": partial.edges_consumed,
            "meter_peak": partial.meter_peak,
        }
    space = result.space
    return {
        "cover": sorted(result.cover),
        "certificate": list(result.certificate.items()),
        "space": [
            space.peak_words,
            space.final_words,
            sorted(space.components_at_peak.items()),
            sorted(space.component_peaks.items()),
        ],
        "diagnostics": sorted(result.diagnostics.items()),
    }


def coin_cell(name: str, budget_words: Optional[int], cut: str):
    """Records of one (row, budget, cut) cell over its inputs."""
    budget = SpaceBudget(budget_words, context="coins") if budget_words else None
    records = []
    for instance in _instances():
        edges = RandomOrder(seed=11).apply(list(instance.edges()))
        if cut == "third":
            edges = edges[: len(edges) // 3]
        for seed in SEEDS:
            rng = random.Random(seed)
            algorithm = ALGORITHMS[name](instance, rng, budget)
            tracer = RecordingTracer()
            algorithm.set_tracer(tracer)
            record = _outcome(algorithm, EdgeStream(instance, edges, order_name="random"))
            tracer.finish()
            version, words, gauss = rng.getstate()
            record["trace"] = tracer.to_jsonl()
            record["rng"] = [version, list(words), gauss]
            records.append(record)
    return records


def _digest(records) -> str:
    text = json.dumps(records, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


#: (row, budget words or None, cut) -> digest of the cell's records.
COIN_GRID = {
    ("adversarial-alpha-1", None, "full"): "3fe455c18316b84f",
    ("adversarial-alpha-1", None, "third"): "a14f5ecb1385d939",
    ("adversarial-alpha-1", 40, "full"): "283d3283867d5c23",
    ("adversarial-alpha-1", 40, "third"): "25aa53f9a5fe597c",
    ("adversarial-alpha-1", 97, "full"): "2b6dbb1b2f32dc7c",
    ("adversarial-alpha-1", 97, "third"): "31ad9f25f7e27fb8",
    ("adversarial-alpha-1", 150, "full"): "f529f05a9ce30d80",
    ("adversarial-alpha-1", 150, "third"): "4713b2db9da8fc0b",
    ("adversarial-alpha-1", 400, "full"): "abf7e2cb8ca7341a",
    ("adversarial-alpha-1", 400, "third"): "a6a53acac5fa5eea",
    ("adversarial-alpha-2sqrtn", None, "full"): "14ddaa01eec03bda",
    ("adversarial-alpha-2sqrtn", None, "third"): "95fc7fb9e24bc461",
    ("adversarial-alpha-2sqrtn", 40, "full"): "d7f97bf3546829f0",
    ("adversarial-alpha-2sqrtn", 40, "third"): "cd9a070d44faaf88",
    ("adversarial-alpha-2sqrtn", 97, "full"): "589b44316f83c015",
    ("adversarial-alpha-2sqrtn", 97, "third"): "a7a1d355238e8c14",
    ("adversarial-alpha-2sqrtn", 150, "full"): "59b41680f8931a21",
    ("adversarial-alpha-2sqrtn", 150, "third"): "4f314d572f8724fa",
    ("adversarial-alpha-2sqrtn", 400, "full"): "9f0c12cf5cdfc4ca",
    ("adversarial-alpha-2sqrtn", 400, "third"): "3fa38d26f72ca230",
    ("adversarial-alpha-n", None, "full"): "94a0be79825f7a43",
    ("adversarial-alpha-n", None, "third"): "15d824b37523937e",
    ("adversarial-alpha-n", 40, "full"): "013ff76b4d460322",
    ("adversarial-alpha-n", 40, "third"): "41843e24f6ffb816",
    ("adversarial-alpha-n", 97, "full"): "b777d885f0fb72a2",
    ("adversarial-alpha-n", 97, "third"): "8ff72b77ec801ec5",
    ("adversarial-alpha-n", 150, "full"): "bbfe1d98b0ee0e85",
    ("adversarial-alpha-n", 150, "third"): "ccca55450fe6b174",
    ("adversarial-alpha-n", 400, "full"): "2e51f711cdc52c06",
    ("adversarial-alpha-n", 400, "third"): "dc438dab69601317",
    ("kk", None, "full"): "5a28cf31850ee11b",
    ("kk", None, "third"): "515655dcb2b2dbbf",
    ("kk", 40, "full"): "d2e801608f278f0c",
    ("kk", 40, "third"): "9da1bcb6363f5d98",
    ("kk", 97, "full"): "3e5e1908a49a5a2b",
    ("kk", 97, "third"): "1467486f82f9df27",
    ("kk", 150, "full"): "74a4a80b403a8be2",
    ("kk", 150, "third"): "b7b4c81e53fec5a6",
    ("kk", 400, "full"): "a08bfbca50c76315",
    ("kk", 400, "third"): "f00111300895ec14",
    ("random-order", None, "full"): "6da3dc026f4158bd",
    ("random-order", None, "third"): "e1c68a729fa59fee",
    ("random-order", 40, "full"): "363592b0aa5d3bd5",
    ("random-order", 40, "third"): "3122a538f4cd7174",
    ("random-order", 97, "full"): "8eed7850cffd7691",
    ("random-order", 97, "third"): "ec04dae5ca5b5b2a",
    ("random-order", 150, "full"): "87413210ada5ec57",
    ("random-order", 150, "third"): "5c59669b49e87331",
    ("random-order", 400, "full"): "a0833c7c2f2de1b0",
    ("random-order", 400, "third"): "41e50b1b195282d5",
    ("element-sampling", None, "full"): "ce0ce0079c217c8b",
    ("element-sampling", None, "third"): "73a6f69ea4f32ea9",
    ("element-sampling", 40, "full"): "d523a14193fba471",
    ("element-sampling", 40, "third"): "d6cf801e095d9cc5",
    ("element-sampling", 97, "full"): "b07a432d369828be",
    ("element-sampling", 97, "third"): "ab69232055f93a7c",
    ("element-sampling", 150, "full"): "f4b5a2f52b43cf82",
    ("element-sampling", 150, "third"): "5709fe33e8c4e644",
    ("element-sampling", 400, "full"): "34512a4a69b8973d",
    ("element-sampling", 400, "third"): "447700ea2e40d0cd",
    ("first-fit", None, "full"): "abf9356219170a86",
    ("first-fit", None, "third"): "56799318a09ec72c",
    ("first-fit", 40, "full"): "b8f835d0d59b45a3",
    ("first-fit", 40, "third"): "81453e3f422e01cc",
    ("first-fit", 97, "full"): "f571d556e8120df1",
    ("first-fit", 97, "third"): "3de986aa0ce268c7",
    ("first-fit", 150, "full"): "d9e1159ffe5e4084",
    ("first-fit", 150, "third"): "2b71768528564a5f",
    ("first-fit", 400, "full"): "122f212acca59356",
    ("first-fit", 400, "third"): "990723d4e740879c",
    ("uniform-sample", None, "full"): "1d1834d51fd8fbf3",
    ("uniform-sample", None, "third"): "b005e4429178c12d",
    ("uniform-sample", 40, "full"): "516076d315bae0e3",
    ("uniform-sample", 40, "third"): "e186aed49d1dd2dc",
    ("uniform-sample", 97, "full"): "8e162a1186adebff",
    ("uniform-sample", 97, "third"): "8e8cf0fb61c2e014",
    ("uniform-sample", 150, "full"): "cdc355e5262fab62",
    ("uniform-sample", 150, "third"): "4a301bd86d546019",
    ("uniform-sample", 400, "full"): "cebc777217763c92",
    ("uniform-sample", 400, "third"): "c3cd6e0e4aa721df",
}


@pytest.mark.parametrize(
    "name,budget_words,cut",
    [
        (name, budget_words, cut)
        for name in ALGORITHMS
        for budget_words in BUDGETS
        for cut in CUTS
    ],
)
def test_coin_cell_pinned(name, budget_words, cut):
    records = coin_cell(name, budget_words, cut)
    assert _digest(records) == COIN_GRID[(name, budget_words, cut)], [
        (r.get("error"), r.get("used"), len(r["certificate"])) for r in records
    ]
