"""``solve``: the paper's three one-pass algorithms on one frozen stream.

Each op runs KK, the random-order algorithm (Algorithm 1) and the
low-space adversarial algorithm (Algorithm 2) over a fresh replay of one
random-order ``ReplayableStream`` and verifies every cover.  The kernel
(``repro.core``) does nearly all of this work; every other workload
spends at most about a fifth of its time there.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional

from harness import ClosedLoopWorkload, CorrectnessError, LayerClock, VARIANTS, median

from repro.algorithms import make_algorithm
from repro.generators.random_instances import fixed_size_instance
from repro.lowerbound.protocol import run_partitioned_stream
from repro.streaming.orders import RandomOrder
from repro.streaming.stream import ReplayableStream

#: ~6e5 edges: n elements, m sets of SET_SIZE elements each.
N, M, SET_SIZE = 1000, 12_000, 50
ALGORITHMS = ("kk", "random-order", "adversarial")
#: Parties of the Theorem 2 reduction whose messages give ``comm_words``.
PARTIES = 4

_LAYER = {
    "kk": "core.kk",
    "random-order": "core.random_order",
    "adversarial": "core.adversarial",
}


class SolveWorkload(ClosedLoopWorkload):
    name = "solve"
    timed_layers = ("core.kk", "core.random_order", "core.adversarial", "verify.ms")

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        self.instance = fixed_size_instance(
            N, M, SET_SIZE, seed=rng.getrandbits(31)
        )
        freeze_start = time.perf_counter()
        self.stream = ReplayableStream(
            self.instance, RandomOrder(seed=rng.getrandbits(31))
        )
        self.freeze_s = time.perf_counter() - freeze_start
        self.seeds = [rng.getrandbits(31) for _ in range(VARIANTS)]
        self.comm_words = self._protocol_words()
        self.op(0, None)  # warm-up

    def _protocol_words(self) -> int:
        """Total messages of the 4-party protocol KK induces (Theorem 2).

        The stream is cut into four equal parties; each hand-off carries
        KK's live state.  The protocol must end on the same cover as a
        plain run of the same algorithm on the same stream.
        """
        edges = list(self.stream.edges())
        cut = len(edges) // PARTIES
        parties = [edges[k * cut : (k + 1) * cut] for k in range(PARTIES - 1)]
        parties.append(edges[(PARTIES - 1) * cut :])
        algorithm = make_algorithm("kk", self.instance, seed=self.seeds[0])
        result, words = run_partitioned_stream(algorithm, self.instance, parties)
        plain = make_algorithm("kk", self.instance, seed=self.seeds[0]).run(
            self.stream.fresh()
        )
        if result.cover != plain.cover:
            raise CorrectnessError("partitioned KK run diverged from plain run")
        return sum(words)

    def op(self, i: int, clock: Optional[LayerClock]):
        seed = self.seeds[i % VARIANTS]
        covers = []
        peak = 0
        cover_sets = 0
        for name in ALGORITHMS:
            algorithm = make_algorithm(name, self.instance, seed=seed)
            if clock is None:
                result = algorithm.run(self.stream.fresh())
                verified = result.is_valid(self.instance)
            else:
                with clock.span(_LAYER[name]):
                    result = algorithm.run(self.stream.fresh())
                with clock.span("verify.ms"):
                    verified = result.is_valid(self.instance)
            if not verified:
                raise CorrectnessError(f"{name} returned an invalid cover")
            covers.append((tuple(sorted(result.cover)), result.space.peak_words))
            peak = max(peak, result.space.peak_words)
            cover_sets += len(result.cover)
        counts: Dict[str, float] = {
            "cover_sets": cover_sets,
            "peak_space_words": peak,
            "comm_words": self.comm_words,
        }
        if clock is not None:
            kernel_s = sum(clock.seconds[_LAYER[name]] for name in ALGORITHMS)
            self._edges_per_s = len(ALGORITHMS) * self.stream.length / kernel_s
        return tuple(covers), counts

    def traced_extras(self, i: int) -> Dict[str, float]:
        return {"core.edges_per_s": self._edges_per_s}

    def layer_summary(self, extras: Dict[str, List[float]]) -> Dict[str, float]:
        return {
            "streaming.freeze_s": self.freeze_s,
            "core.edges_per_s": median(extras["core.edges_per_s"]),
        }
