"""Success amplification: O(log m) parallel copies, keep the best cover.

Two remarks in the paper rely on this standard boost:

* after Theorem 2: "any algorithm A with success probability at least
  3/4 can be converted into an algorithm with success probability at
  least 1 − 1/(4m) by running O(log m) parallel copies of A, and
  outputting the smallest answer";
* after Theorem 4: the *expected* approximation guarantee of
  Algorithm 2 becomes a high-probability guarantee at the cost of an
  extra log m factor (in space, since all copies run concurrently).

:class:`AmplifiedAlgorithm` wraps any
:class:`~repro.core.base.StreamingSetCoverAlgorithm` factory: all
copies consume the same single pass (the wrapper buffers each edge only
transiently — one edge at a time — so this is still one pass), space is
the sum of the copies' states, and the output is the smallest valid
cover.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional

from repro.core.base import StreamingSetCoverAlgorithm
from repro.core.solution import StreamingResult
from repro.errors import ConfigurationError
from repro.streaming.stream import EdgeStream
from repro.types import SeedLike

AlgorithmFactory = Callable[[int], StreamingSetCoverAlgorithm]


class AmplifiedAlgorithm(StreamingSetCoverAlgorithm):
    """Run ``copies`` independent copies in one pass; output the best.

    Parameters
    ----------
    factory:
        Builds one inner algorithm from an integer seed.
    copies:
        Number of parallel copies; ``None`` chooses ``ceil(log2 m)`` at
        run time (the paper's O(log m)).
    """

    name = "amplified"

    def __init__(
        self,
        factory: AlgorithmFactory,
        copies: Optional[int] = None,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(seed=seed)
        if copies is not None and copies < 1:
            raise ConfigurationError(f"copies must be >= 1, got {copies}")
        self._factory = factory
        self._copies = copies

    def _run(self, stream: EdgeStream) -> StreamingResult:
        m = stream.instance.m
        copies = (
            self._copies
            if self._copies is not None
            else max(1, math.ceil(math.log2(max(2, m))))
        )
        inner: List[StreamingSetCoverAlgorithm] = [
            self._factory(self._rng.getrandbits(63)) for _ in range(copies)
        ]
        # All copies consume the same pass: spend the live stream, then
        # hand each copy its own one-pass view of the shared buffer.
        # Each copy still sees one pass, and the *charged* space is the
        # sum of copies' states, not the buffer.
        edges = stream.peek_all()
        reader = stream.reader()
        while len(reader.take_rest_columns()[0]):
            pass  # a take stops at each checkpoint; fire them all
        results: List[StreamingResult] = []
        for algorithm in inner:
            view = EdgeStream(
                stream.instance, edges, order_name=stream.order_name
            )
            results.append(algorithm.run(view))

        best = min(results, key=lambda r: r.cover_size)
        total_peak = sum(r.space.peak_words for r in results)
        self._meter.set_component("parallel-copies", total_peak)
        return StreamingResult(
            cover=best.cover,
            certificate=best.certificate,
            space=self._meter.report(),
            algorithm=f"{self.name}({best.algorithm} x{copies})",
            diagnostics={
                "copies": float(copies),
                "best_cover": float(best.cover_size),
                "worst_cover": float(
                    max(r.cover_size for r in results)
                ),
                "mean_cover": float(
                    sum(r.cover_size for r in results) / copies
                ),
            },
        )
