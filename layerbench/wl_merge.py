"""``merge``: the protocol merge with heavy messages.

A large universe with few edges per shard makes the merge, not the
shards, the work: each op runs ``run_distributed_async`` with adaptive
tau over the ``loopback`` transport, once with the chain coordinator and
once with the tournament (``tree``) coordinator, and verifies both.
``loopback`` moves real encoded frames without threads or sockets, so
the load stays within the host's two cores; ``serve`` measures real TCP.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from harness import ClosedLoopWorkload, CorrectnessError, LayerClock, VARIANTS, mean
from wl_distribute import HOOKS, DistributeWorkload, result_signature

from repro.distributed.asyncsim import run_distributed_async
from repro.distributed.transport import LoopbackTransport, Transport
from repro.generators.random_instances import fixed_size_instance
from repro.streaming.orders import RandomOrder

#: ~8e3 edges over a 2500-element universe, split across 16 shards.
N, M, SET_SIZE, WORKERS = 2500, 400, 20, 16
COORDINATORS = ("chain", "tree")
WORD_BYTES = 8


class TimedTransport(Transport):
    """Forwards every call to a real transport, timing each ``send``."""

    def __init__(self, inner: Transport, clock: LayerClock) -> None:
        super().__init__()
        self.inner = inner
        self.name = inner.name
        self.clock = clock

    def send(self, src: str, dst: str, kind: str, payload: object) -> object:
        with self.clock.span("transport.send"):
            return self.inner.send(src, dst, kind, payload)

    def report(self, metered_words: int = 0):
        return self.inner.report(metered_words=metered_words)

    def close(self) -> None:
        self.inner.close()


class MergeWorkload(ClosedLoopWorkload):
    name = "merge"
    # Transport sends are timed by TimedTransport, not by a class hook.
    hooks = tuple(spec for spec in HOOKS if spec[3] != "transport.send")
    timed_layers = DistributeWorkload.timed_layers

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        self.instance = fixed_size_instance(
            N, M, SET_SIZE, seed=rng.getrandbits(31)
        )
        self.seeds = [
            (rng.getrandbits(31), rng.getrandbits(31)) for _ in range(VARIANTS)
        ]
        self._check_transport_parity()
        self.op(0, None)  # warm-up

    def _run(self, i: int, coordinator: str, transport) -> object:
        order_seed, run_seed = self.seeds[i % VARIANTS]
        return run_distributed_async(
            self.instance,
            workers=WORKERS,
            coordinator=coordinator,
            adaptive_threshold=True,
            order=RandomOrder(seed=order_seed),
            seed=run_seed,
            transport=transport,
        )

    def _check_transport_parity(self) -> None:
        """``loopback`` must deliver exactly what ``inproc`` computes."""
        for coordinator in COORDINATORS:
            wire = self._run(0, coordinator, "loopback")
            local = self._run(0, coordinator, "inproc")
            if result_signature(wire) != result_signature(local):
                raise CorrectnessError(
                    f"{coordinator}: loopback result differs from inproc"
                )

    def op(self, i: int, clock: Optional[LayerClock]):
        signatures = []
        cover_sets = peak = comm = 0
        wire = {"bytes": 0, "frames": 0, "max_words": 0, "steps": 0, "idle": 0}
        for coordinator in COORDINATORS:
            if clock is None:
                result = self._run(i, coordinator, "loopback")
                valid = result.is_valid(self.instance)
            else:
                transport = TimedTransport(LoopbackTransport(), clock)
                result = self._run(i, coordinator, transport)
                with clock.span("verify.ms"):
                    valid = result.is_valid(self.instance)
            if not valid:
                raise CorrectnessError(f"{coordinator} returned an invalid cover")
            report = result.transport
            signatures.append(result_signature(result) + (report.total_bytes,))
            cover_sets += result.cover_size
            peak = max(peak, int(result.diagnostics["peak_shard_space_words"]))
            comm += result.total_comm_words
            wire["bytes"] += report.total_bytes
            wire["frames"] += report.total_frames
            wire["max_words"] = max(wire["max_words"], result.max_message_words)
            wire["steps"] += int(result.diagnostics["logical_steps"])
            wire["idle"] += int(result.diagnostics["idle_ticks"])
        self._wire = dict(wire, words=comm)
        counts: Dict[str, float] = {
            "cover_sets": cover_sets,
            "peak_space_words": peak,
            "comm_words": comm,
        }
        return tuple(signatures), counts

    def traced_extras(self, i: int) -> Dict[str, float]:
        wire = self._wire
        return {
            "transport.bytes": wire["bytes"],
            "transport.frames": wire["frames"],
            "transport.overhead_ratio": wire["bytes"] / (WORD_BYTES * wire["words"]),
            "comm.max_message_words": wire["max_words"],
            "asyncsim.logical_steps": wire["steps"],
            "asyncsim.idle_ticks": wire["idle"],
        }

    def layer_summary(self, extras: Dict[str, List[float]]) -> Dict[str, float]:
        return {key: mean(values) for key, values in extras.items()}
