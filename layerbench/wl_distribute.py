"""``distribute``: the sharded batch path with library defaults.

Each op draws a fresh random arrival order and runs ``run_distributed``
at W=1 and then at W=4 (default backend, ``inproc`` transport,
materialize ingest, chain coordinator), verifying both covers.  Order,
routing, per-edge ``Edge`` records and shard localization dominate this
path; the kernel is a small share of it, which ``solve`` measures on its
own.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional

from harness import ClosedLoopWorkload, CorrectnessError, LayerClock, VARIANTS, median

from repro.algorithms import make_algorithm
from repro.distributed import run_distributed
from repro.generators.random_instances import fixed_size_instance
from repro.streaming.orders import RandomOrder
from repro.streaming.stream import ReplayableStream

#: 1e4 edges: small enough for >= 100 ops of two runs in one timed run.
N, M, SET_SIZE = 200, 500, 20
WIDTHS = (1, 4)

#: Public entry points wrapped during a traced op.  The kernel hook is on
#: the algorithm base class, so it times every shard's KK pass.
HOOKS = (
    ("repro.streaming.orders", "RandomOrder", "apply", "orders.apply"),
    ("repro.distributed.router", "ShardRouter", "route_edges", "router.route"),
    ("repro.distributed.backends", "SerialBackend", "run_tasks", "backends.run_tasks"),
    ("repro.distributed.backends", "ThreadBackend", "run_tasks", "backends.run_tasks"),
    ("repro.distributed.backends", "ProcessBackend", "run_tasks", "backends.run_tasks"),
    ("repro.distributed.worker", "ShardAccumulator", "feed", "worker.feed"),
    ("repro.distributed.worker", "ShardAccumulator", "feed_columns", "worker.feed"),
    ("repro.distributed.worker", "Worker", "run_accumulated", "worker.run"),
    ("repro.core.base", "StreamingSetCoverAlgorithm", "run", "core.kk"),
    ("repro.distributed.coordinator", "UnionCoordinator", "merge", "coordinator.merge"),
    ("repro.distributed.coordinator", "GreedyCoordinator", "merge", "coordinator.merge"),
    ("repro.distributed.coordinator", "ChainCoordinator", "merge", "coordinator.merge"),
    ("repro.distributed.coordinator", "TournamentCoordinator", "merge", "coordinator.merge"),
    ("repro.distributed.transport", "InprocTransport", "send", "transport.send"),
    ("repro.distributed.transport", "LoopbackTransport", "send", "transport.send"),
)


def result_signature(result) -> tuple:
    """What must repeat exactly: cover, certificate and comm report."""
    return (
        tuple(sorted(result.cover)),
        tuple(sorted(result.certificate.items())),
        result.comm,
    )


class DistributeWorkload(ClosedLoopWorkload):
    name = "distribute"
    hooks = HOOKS
    timed_layers = (
        "orders.apply",
        "router.route",
        "backends.run_tasks",
        "worker.feed",
        "worker.run",
        "core.kk",
        "coordinator.merge",
        "transport.send",
        "verify.ms",
    )

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        self.instance = fixed_size_instance(
            N, M, SET_SIZE, seed=rng.getrandbits(31)
        )
        self.seeds = [
            (rng.getrandbits(31), rng.getrandbits(31)) for _ in range(VARIANTS)
        ]
        self._w1_ms: List[float] = []
        self._last_w1_ms = 0.0
        self.op(0, None)  # warm-up

    def op(self, i: int, clock: Optional[LayerClock]):
        order_seed, run_seed = self.seeds[i % VARIANTS]
        signatures = []
        cover_sets = peak = comm = 0
        for workers in WIDTHS:
            began = time.perf_counter()
            result = run_distributed(
                self.instance,
                workers=workers,
                order=RandomOrder(seed=order_seed),
                seed=run_seed,
            )
            if workers == 1:
                self._last_w1_ms = (time.perf_counter() - began) * 1000.0
            if clock is None:
                valid = result.is_valid(self.instance)
            else:
                with clock.span("verify.ms"):
                    valid = result.is_valid(self.instance)
            if not valid:
                raise CorrectnessError(f"W={workers} returned an invalid cover")
            signatures.append(result_signature(result))
            cover_sets += result.cover_size
            peak = max(peak, int(result.diagnostics["peak_shard_space_words"]))
            comm += result.total_comm_words
        if clock is None:
            self._w1_ms.append(self._last_w1_ms)
        counts: Dict[str, float] = {
            "cover_sets": cover_sets,
            "peak_space_words": peak,
            "comm_words": comm,
        }
        return tuple(signatures), counts

    def traced_extras(self, i: int) -> Dict[str, float]:
        """The bare KK kernel on the W=1 op's stream, outside the op."""
        order_seed, run_seed = self.seeds[i % VARIANTS]
        stream = ReplayableStream(self.instance, RandomOrder(seed=order_seed))
        algorithm = make_algorithm("kk", self.instance, seed=run_seed)
        began = time.perf_counter()
        result = algorithm.run(stream.fresh())
        kernel_ms = (time.perf_counter() - began) * 1000.0
        if not result.is_valid(self.instance):
            raise CorrectnessError("bare KK run returned an invalid cover")
        return {"executor.kernel_ms": kernel_ms}

    def layer_summary(self, extras: Dict[str, List[float]]) -> Dict[str, float]:
        # W=1 is timed on the untraced ops of the traced run only.
        w1_ms = median(self._w1_ms[1:])
        kernel_ms = median(extras["executor.kernel_ms"])
        return {
            "executor.w1_ms": w1_ms,
            "executor.kernel_ms": kernel_ms,
            "executor.w1_over_kernel": w1_ms / kernel_ms if kernel_ms else 0.0,
        }
