"""Experiment runner: algorithms × instances × orders × seeds.

:class:`ExperimentRunner` freezes a stream per (instance, order, seed)
triple via :class:`ReplayableStream`, so every algorithm in a
comparison sees the identical edge sequence, then collects
:class:`RunMetrics` rows ready for the table renderer.  Cells run one
after another; any exception escaping a run is re-raised as
:class:`~repro.errors.ExperimentExecutionError` carrying the failing
cell's context (algorithm, order, instance, seed, grid index).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import RunMetrics, metrics_from_result
from repro.analysis.opt import opt_or_bound
from repro.core.base import StreamingSetCoverAlgorithm
from repro.errors import ExperimentExecutionError
from repro.obs.tracer import TraceCollector
from repro.streaming.instance import SetCoverInstance
from repro.streaming.orders import make_order
from repro.streaming.stream import ReplayableStream
from repro.types import SeedLike, make_rng

AlgorithmFactory = Callable[[int], StreamingSetCoverAlgorithm]
"""Build a fresh algorithm from an integer seed."""

Spec = Tuple[ReplayableStream, str, Optional[int], int]
"""One grid cell: ``(stream, algorithm name, OPT handle or None, seed)``."""


class ExperimentRunner:
    """Runs a grid of algorithms over instances and arrival orders.

    Parameters
    ----------
    algorithms:
        Mapping ``name -> factory(seed)``.
    seed:
        Master seed; per-run seeds are derived deterministically.
    collector:
        Optional :class:`~repro.obs.tracer.TraceCollector`; when given,
        every run gets a fresh recording tracer keyed by a
        deterministic cell label, so the merged JSONL depends only on
        the master seed and the grid.
    """

    def __init__(
        self,
        algorithms: Dict[str, AlgorithmFactory],
        seed: SeedLike = None,
        collector: Optional[TraceCollector] = None,
    ) -> None:
        if not algorithms:
            raise ValueError("need at least one algorithm")
        self.algorithms = dict(algorithms)
        self._rng = make_rng(seed)
        self._collector = collector

    def run_one(
        self,
        instance: SetCoverInstance,
        order_name: str,
        algorithm_name: str,
        opt_handle: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> RunMetrics:
        """Run a single algorithm on a single ordered stream."""
        seed = seed if seed is not None else self._rng.getrandbits(63)
        order = make_order(order_name, seed=seed)
        replayable = ReplayableStream(instance, order)
        return self._execute(
            replayable,
            algorithm_name,
            opt_handle=opt_handle,
            seed=seed,
            trace_label=f"single:{algorithm_name}",
        )

    def compare(
        self,
        instance: SetCoverInstance,
        order_name: str,
        opt_handle: Optional[int] = None,
        replications: int = 1,
    ) -> List[RunMetrics]:
        """All algorithms on identical streams, ``replications`` times."""
        specs = self._build_specs(instance, order_name, opt_handle, replications)
        return self._execute_specs(specs)

    def sweep_instances(
        self,
        instances: Sequence[Tuple[SetCoverInstance, Optional[int]]],
        order_name: str,
        replications: int = 1,
    ) -> List[RunMetrics]:
        """All algorithms across ``(instance, planted_opt)`` pairs."""
        specs: List[Spec] = []
        for instance, opt_handle in instances:
            specs.extend(
                self._build_specs(instance, order_name, opt_handle, replications)
            )
        return self._execute_specs(specs)

    # -- internals -------------------------------------------------------

    def _build_specs(
        self,
        instance: SetCoverInstance,
        order_name: str,
        opt_handle: Optional[int],
        replications: int,
    ) -> List[Spec]:
        """Draw seeds and freeze streams for one comparison, up front."""
        specs: List[Spec] = []
        for _ in range(replications):
            seed = self._rng.getrandbits(63)
            order = make_order(order_name, seed=seed)
            replayable = ReplayableStream(instance, order)
            for name in self.algorithms:
                specs.append((replayable, name, opt_handle, seed))
        return specs

    def _execute_specs(self, specs: Sequence[Spec]) -> List[RunMetrics]:
        rows: List[RunMetrics] = []
        for index, (replayable, name, opt_handle, seed) in enumerate(specs):
            try:
                rows.append(
                    self._execute(
                        replayable,
                        name,
                        opt_handle=opt_handle,
                        seed=seed,
                        trace_label=f"{index:05d}:{name}",
                    )
                )
            except Exception as error:  # noqa: BLE001 — wrapped below
                raise ExperimentExecutionError(
                    algorithm=name,
                    order=replayable.order_name,
                    instance=repr(replayable.instance),
                    seed=seed,
                    spec_index=index,
                    cause=error,
                ) from error
        return rows

    def _execute(
        self,
        replayable: ReplayableStream,
        algorithm_name: str,
        opt_handle: Optional[int],
        seed: int,
        trace_label: str = "",
    ) -> RunMetrics:
        factory = self.algorithms[algorithm_name]
        algorithm = factory(seed)
        if self._collector is not None:
            algorithm.set_tracer(self._collector.tracer_for(trace_label))
        stream = replayable.fresh()
        result = algorithm.run(stream)
        instance = replayable.instance
        if opt_handle is not None:
            handle, exact = opt_handle, True
        else:
            handle, exact = opt_or_bound(instance)
        return metrics_from_result(
            result,
            instance,
            order=replayable.order_name,
            opt_handle=handle,
            opt_is_exact=exact,
            stream_length=replayable.length,
            seed=seed,
        )
