"""The long-running set-cover service: asyncio server with admission.

:class:`SetCoverServer` listens on localhost TCP, speaks the framed
protocol of :mod:`repro.serve.protocol`, and dispatches requests
against a shared :class:`~repro.serve.registry.InstanceRegistry`.
Compute requests (``solve`` / ``distribute`` / ``summary``) first
lease their estimated words from the global
:class:`~repro.serve.admission.ResourcePool` — queueing or failing
with a typed :class:`~repro.errors.AdmissionError` — then run the
*batch* code path (:func:`~repro.algorithms.make_algorithm`,
:func:`~repro.distributed.executor.run_distributed`) on a worker
thread, so a served solve is byte-identical to its CLI twin
(``tests/test_serve_server.py::TestBatchTwinParity`` checks this).
Control requests (``ping`` / ``load`` / ``list`` / ``stats`` / ...)
bypass admission and stay answerable while the pool is saturated.

Connection model: one asyncio task per connection, requests on a
connection processed in order (pipelining across *connections* is the
concurrency story — each client holds its own connection).  Errors a
handler raises become typed error responses; the connection, and the
server, stay up.

Graceful shutdown (the drain contract, tested by
``tests/test_serve_server.py``): stop accepting, reject queued
admissions with ``reason="shutting-down"``, let every in-flight request
finish and answer, then close lingering connections.  New compute
requests arriving on open connections during the drain are rejected
with the same typed error.  After :meth:`shutdown` returns no acceptor
task or worker thread created on behalf of a request remains live.

A sandbox that forbids binding raises the typed
:class:`~repro.errors.TransportError` from :meth:`start`, which the
parity tests, the bench, and CI treat as a graceful skip — the same
contract as the PR-8 socket transport.
"""

from __future__ import annotations

import asyncio
import math
import numbers
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Set, Tuple

from repro.algorithms import make_algorithm, registered_algorithms
from repro.core.solution import witness_columns
from repro.distributed.backends import registered_backends
from repro.distributed.comm import check_count, make_comm_budget
from repro.distributed.coordinator import registered_coordinators
from repro.distributed.executor import check_seed, run_distributed
from repro.distributed.router import STRATEGIES
from repro.distributed.transport import Codec, make_codec
from repro.errors import (
    AdmissionError,
    InvalidParameterError,
    ReproError,
    TransportError,
)
from repro.faults.injectors import FAULT_KINDS, FaultSpec, inject
from repro.faults.resilient import POLICIES, ResilientAlgorithm
from repro.obs.tracer import RecordingTracer, TraceCollector, events_to_jsonl
from repro.obs.summary import summarize
from repro.serve.admission import REJECT_SHUTTING_DOWN, ResourcePool
from repro.serve.protocol import (
    COMPUTE_KINDS,
    REQUEST_KINDS,
    error_response,
    ok_response,
    read_frame_async,
    write_frame_async,
)
from repro.serve.registry import InstanceRegistry, LoadedInstance
from repro.streaming.orders import ORDER_REGISTRY, make_order
from repro.streaming.stream import stream_of
from repro._version import __version__

#: Upper bound on the test/ops ``delay_ms`` solve knob — it exists to
#: make drain and queueing behaviour observable, not to sleep servers.
MAX_DELAY_MS = 5_000


def certificate_pairs(
    certificate: Mapping[int, int],
) -> Tuple[Tuple[int, int], ...]:
    """A response's ``certificate``: ``(element, witness)`` pairs by element.

    Ordered from the certificate's columns; the same tuple as
    ``tuple(sorted(certificate.items()))``.
    """
    elements, witnesses = witness_columns(certificate, by_element=True)
    return tuple(zip(elements.tolist(), witnesses.tolist()))


@dataclass
class ServeConfig:
    """Tunables for one server; defaults suit tests and local use."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Global pool capacities, in words (the admission currency).
    space_pool_words: int = 200_000
    comm_pool_words: int = 100_000
    #: Queued-admission bounds.
    max_queue: int = 16
    queue_timeout: Optional[float] = 30.0
    #: Backend/parallelism for distribute requests (operational).
    backend: str = "serial"
    max_workers: int = 1
    #: Seconds shutdown waits for in-flight requests before force-close.
    drain_timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.backend not in registered_backends():
            raise InvalidParameterError(
                "backend", self.backend,
                "known backends: " + ", ".join(registered_backends()),
            )
        check_count("max_workers", self.max_workers)
        timeout = self.drain_timeout
        if (
            isinstance(timeout, bool)
            or not isinstance(timeout, numbers.Real)
            or not math.isfinite(timeout)
            or timeout <= 0
        ):
            raise InvalidParameterError(
                "drain_timeout", timeout, "must be a finite positive number"
            )


class SetCoverServer:
    """One service instance; start on an event loop, stop gracefully."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        registry: Optional[InstanceRegistry] = None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        self.registry = registry if registry is not None else InstanceRegistry()
        self.pool = ResourcePool(
            space_words=self.config.space_pool_words,
            comm_words=self.config.comm_pool_words,
            max_queue=self.config.max_queue,
            queue_timeout=self.config.queue_timeout,
        )
        self._codec: Codec = make_codec()
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: Set[asyncio.StreamWriter] = set()
        self._handlers: Set[asyncio.Task] = set()
        self._draining = False
        self._stopped = False
        self._inflight = 0
        self._idle: Optional[asyncio.Event] = None
        self._shutdown_requested: Optional[asyncio.Event] = None
        self._started_at = 0.0
        self.port: Optional[int] = None
        self.counters: Dict[str, int] = {}

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Bind and begin accepting; typed error where binding is denied."""
        self._idle = asyncio.Event()
        self._idle.set()
        self._shutdown_requested = asyncio.Event()
        try:
            self._server = await asyncio.start_server(
                self._on_connection, self.config.host, self.config.port
            )
        except OSError as exc:
            raise TransportError(
                f"serve cannot bind on {self.config.host}: {exc}"
            ) from exc
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()

    async def wait_shutdown(self) -> None:
        """Block until a client ``shutdown`` request (or local trigger)."""
        assert self._shutdown_requested is not None
        await self._shutdown_requested.wait()

    def request_shutdown(self) -> None:
        """Trigger :meth:`wait_shutdown` (callable from handlers/signals)."""
        if self._shutdown_requested is not None:
            self._shutdown_requested.set()

    async def shutdown(self) -> None:
        """Drain and stop: the graceful-shutdown contract (idempotent)."""
        if self._stopped:
            return
        self._stopped = True
        self._draining = True
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.drain_timeout
        if self._server is not None:
            self._server.close()
        # Queued admissions first: they must observe a typed rejection,
        # and their handlers then count down the in-flight drain below.
        await self.pool.shutdown()
        if self._idle is not None:
            try:
                await asyncio.wait_for(
                    self._idle.wait(), self.config.drain_timeout
                )
            except asyncio.TimeoutError:
                pass  # force-close below; slow requests lose their reply
        for writer in list(self._connections):
            writer.close()
        # A closed connection ends its handler's pending read with EOF.
        # Await the handlers: left to the loop's teardown they would be
        # cancelled, which asyncio reports as a traceback.  One still
        # inside a request when the drain budget runs out is cancelled.
        handlers = [t for t in self._handlers if t is not asyncio.current_task()]
        if handlers:
            _, stuck = await asyncio.wait(
                handlers, timeout=max(deadline - loop.time(), 0.0)
            )
            for task in stuck:
                task.cancel()
            await asyncio.gather(*stuck, return_exceptions=True)
        if self._server is not None:
            # From Python 3.12 on this also waits for every connection
            # to close, so it must follow the closes above.
            await self._server.wait_closed()
        self.request_shutdown()

    # -- connection handling ---------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        task = asyncio.current_task()
        self._handlers.add(task)
        try:
            while True:
                try:
                    request = await read_frame_async(reader)
                except (TransportError, ConnectionError, OSError):
                    break  # malformed or torn connection; drop it
                if request is None:
                    break  # clean EOF
                response = await self._dispatch(request)
                try:
                    await write_frame_async(writer, self._codec, response)
                except (ConnectionError, OSError):
                    break
        finally:
            self._handlers.discard(task)
            self._connections.discard(writer)
            writer.close()

    async def _dispatch(self, request: Any) -> Dict[str, Any]:
        """Route one request; every failure becomes a typed error reply."""
        if not isinstance(request, dict):
            return error_response(
                0,
                InvalidParameterError(
                    "request", type(request).__name__,
                    "request payload must be a dict",
                ),
            )
        request_id = request.get("id", 0)
        if isinstance(request_id, bool) or not isinstance(
            request_id, numbers.Integral
        ):
            # No usable id to echo: answer on id 0, as for a non-dict.
            return error_response(
                0, InvalidParameterError("id", request_id, "must be an int")
            )
        request_id = int(request_id)
        kind = request.get("kind")
        self._enter()
        try:
            if kind not in REQUEST_KINDS:
                raise InvalidParameterError(
                    "kind", kind, "known request kinds: "
                    + ", ".join(REQUEST_KINDS)
                )
            self.counters[kind] = self.counters.get(kind, 0) + 1
            if kind in COMPUTE_KINDS and self._draining:
                raise AdmissionError(
                    REJECT_SHUTTING_DOWN, context=f"serve {kind}"
                )
            handler = getattr(self, f"_handle_{kind}")
            result = await handler(request)
            return ok_response(request_id, result)
        except ReproError as error:
            self.counters["errors"] = self.counters.get("errors", 0) + 1
            return error_response(request_id, error)
        except Exception as error:  # noqa: BLE001 — the server must stay up
            self.counters["errors"] = self.counters.get("errors", 0) + 1
            return error_response(request_id, error)
        finally:
            self._exit()

    def _enter(self) -> None:
        self._inflight += 1
        if self._idle is not None:
            self._idle.clear()

    def _exit(self) -> None:
        self._inflight -= 1
        if self._inflight == 0 and self._idle is not None:
            self._idle.set()

    # -- control handlers ------------------------------------------------

    async def _handle_ping(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {"server": "repro-serve", "version": __version__}

    async def _handle_load(self, request: Dict[str, Any]) -> Dict[str, Any]:
        entry = self.registry.load_text(
            str(request.get("name", "")), str(request.get("text", ""))
        )
        return entry.describe()

    async def _handle_unload(self, request: Dict[str, Any]) -> Dict[str, Any]:
        entry = self.registry.unload(str(request.get("name", "")))
        return {"unloaded": entry.name}

    async def _handle_list(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {"instances": [e.describe() for e in self.registry.entries()]}

    async def _handle_stats(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "uptime_s": time.monotonic() - self._started_at,
            "draining": self._draining,
            "inflight": self._inflight,
            "instances": len(self.registry),
            "counters": dict(sorted(self.counters.items())),
            "pool": self.pool.stats().as_dict(),
        }

    async def _handle_shutdown(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self.request_shutdown()
        return {"stopping": True}

    # -- compute handlers (admission-controlled) -------------------------

    async def _with_lease(
        self, space_words: int, comm_words: int, context: str, fn
    ):
        """Lease → run on a worker thread → release; the request spine."""
        lease = await self.pool.lease(
            space_words=space_words, comm_words=comm_words, context=context
        )
        try:
            return await asyncio.to_thread(fn)
        finally:
            self.pool.release(lease)

    def _solve_params(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Validate the shared solve-shaped parameters with typed errors."""
        algorithm = str(request.get("algorithm", "kk"))
        if algorithm not in registered_algorithms():
            raise InvalidParameterError(
                "algorithm", algorithm,
                "known algorithms: " + ", ".join(registered_algorithms()),
            )
        order = str(request.get("order", "canonical"))
        if order not in ORDER_REGISTRY:
            raise InvalidParameterError(
                "order", order,
                "known orders: " + ", ".join(sorted(ORDER_REGISTRY)),
            )
        return {
            "entry": self.registry.get(str(request.get("instance", ""))),
            "algorithm": algorithm,
            "order": order,
            "seed": check_seed("seed", request.get("seed", 0)),
            "alpha": request.get("alpha"),
        }

    async def _handle_solve(self, request: Dict[str, Any]) -> Dict[str, Any]:
        params = self._solve_params(request)
        entry: LoadedInstance = params["entry"]
        include_trace = bool(request.get("include_trace", False))
        delay_ms = request.get("delay_ms", 0)
        check_count("delay_ms", delay_ms, minimum=0)
        delay_ms = min(delay_ms, MAX_DELAY_MS)
        fault_kind = request.get("fault_kind")
        if fault_kind is not None and fault_kind not in FAULT_KINDS:
            raise InvalidParameterError(
                "fault_kind", fault_kind,
                "known fault kinds: " + ", ".join(FAULT_KINDS),
            )
        fault_rate = request.get("fault_rate", 0.1)
        if (
            isinstance(fault_rate, bool)
            or not isinstance(fault_rate, numbers.Real)
            or not 0.0 <= fault_rate <= 1.0
        ):
            raise InvalidParameterError(
                "fault_rate", fault_rate, "must be a number in [0, 1]"
            )
        policy = str(request.get("policy", "best_effort"))
        if policy not in POLICIES:
            raise InvalidParameterError(
                "policy", policy, "known policies: " + ", ".join(POLICIES)
            )

        def work() -> Dict[str, Any]:
            if delay_ms:
                time.sleep(delay_ms / 1000.0)
            started = time.perf_counter()
            order = make_order(params["order"], seed=params["seed"])
            stream = stream_of(entry.instance, order)
            tracer = RecordingTracer() if include_trace else None
            algorithm = make_algorithm(
                params["algorithm"],
                entry.instance,
                seed=params["seed"],
                alpha=params["alpha"],
                tracer=tracer,
            )
            response: Dict[str, Any] = {
                "instance": entry.name,
                "algorithm": params["algorithm"],
                "order": params["order"],
                "seed": params["seed"],
            }
            if fault_kind is not None:
                faulty = inject(
                    stream,
                    [
                        FaultSpec(
                            kind=str(fault_kind),
                            rate=fault_rate,
                            seed=params["seed"],
                        )
                    ],
                )
                outcome = ResilientAlgorithm(algorithm, policy=policy).run(
                    faulty
                )
                result = outcome.result
                if result is not None and outcome.degradation is None:
                    result.verify(entry.instance)
                response.update(
                    {
                        "outcome": "ok" if outcome.ok else "degraded",
                        "degraded": not outcome.ok,
                        "cover": tuple(
                            sorted(result.cover) if result is not None else ()
                        ),
                        "cover_size": (
                            len(result.cover) if result is not None else 0
                        ),
                        "certificate": (
                            certificate_pairs(result.certificate)
                            if result is not None
                            else ()
                        ),
                        "peak_words": (
                            result.space.peak_words if result is not None else 0
                        ),
                        "valid": outcome.ok,
                    }
                )
            else:
                result = algorithm.run(stream)
                result.verify(entry.instance)
                response.update(
                    {
                        "outcome": "ok",
                        "degraded": False,
                        "cover": tuple(sorted(result.cover)),
                        "cover_size": len(result.cover),
                        "certificate": certificate_pairs(result.certificate),
                        "peak_words": result.space.peak_words,
                        "valid": True,
                    }
                )
            if tracer is not None:
                tracer.finish()
                response["trace_jsonl"] = events_to_jsonl(tracer.events)
            response["elapsed_ms"] = (time.perf_counter() - started) * 1000.0
            return response

        return await self._with_lease(
            entry.estimated_solve_words, 0, "serve solve", work
        )

    async def _handle_summary(self, request: Dict[str, Any]) -> Dict[str, Any]:
        params = self._solve_params(request)
        entry: LoadedInstance = params["entry"]

        def work() -> Dict[str, Any]:
            order = make_order(params["order"], seed=params["seed"])
            stream = stream_of(entry.instance, order)
            tracer = RecordingTracer()
            algorithm = make_algorithm(
                params["algorithm"],
                entry.instance,
                seed=params["seed"],
                alpha=params["alpha"],
                tracer=tracer,
            )
            result = algorithm.run(stream)
            result.verify(entry.instance)
            events = tracer.finish()
            summary = summarize(events)
            return {
                "instance": entry.name,
                "algorithm": params["algorithm"],
                "order": params["order"],
                "seed": params["seed"],
                "cover_size": len(result.cover),
                "peak_words": result.space.peak_words,
                "trace_events": len(events),
                "summary_text": summary.render(),
            }

        return await self._with_lease(
            entry.estimated_solve_words, 0, "serve summary", work
        )

    async def _handle_distribute(
        self, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        params = self._solve_params(request)
        entry: LoadedInstance = params["entry"]
        workers = request.get("workers", 4)
        check_count("workers", workers)
        strategy = str(request.get("strategy", "by-set"))
        if strategy not in STRATEGIES:
            raise InvalidParameterError(
                "strategy", strategy,
                "known strategies: " + ", ".join(sorted(STRATEGIES)),
            )
        coordinator = str(request.get("coordinator", "chain"))
        if coordinator not in registered_coordinators():
            raise InvalidParameterError(
                "coordinator", coordinator,
                "known coordinators: " + ", ".join(registered_coordinators()),
            )
        budget = make_comm_budget(
            request.get("comm_budget"), context="serve distribute"
        )
        include_trace = bool(request.get("include_trace", False))
        comm_words = (
            budget.words
            if budget is not None
            else entry.estimated_distribute_comm_words(workers)
        )

        def work() -> Dict[str, Any]:
            started = time.perf_counter()
            order = make_order(params["order"], seed=params["seed"])
            collector = TraceCollector() if include_trace else None
            result = run_distributed(
                entry.instance,
                workers=workers,
                algorithm=params["algorithm"],
                strategy=strategy,
                coordinator=coordinator,
                order=order,
                seed=params["seed"],
                alpha=params["alpha"],
                max_workers=self.config.max_workers,
                comm_budget=budget,
                backend=self.config.backend,
                collector=collector,
            )
            result.verify(entry.instance)
            response: Dict[str, Any] = {
                "instance": entry.name,
                "algorithm": params["algorithm"],
                "order": params["order"],
                "seed": params["seed"],
                "workers": workers,
                "strategy": strategy,
                "coordinator": coordinator,
                "outcome": "ok",
                "degraded": False,
                "cover": tuple(sorted(result.cover)),
                "cover_size": result.cover_size,
                "certificate": certificate_pairs(result.certificate),
                "total_comm_words": result.total_comm_words,
                "max_message_words": result.max_message_words,
                "messages": result.comm.num_messages,
                "per_link_words": dict(
                    sorted(result.comm.per_link_words.items())
                ),
                "valid": True,
            }
            if collector is not None:
                response["trace_jsonl"] = collector.to_jsonl()
            response["elapsed_ms"] = (time.perf_counter() - started) * 1000.0
            return response

        return await self._with_lease(
            entry.estimated_solve_words + 64 * workers,
            comm_words,
            "serve distribute",
            work,
        )


# -- threaded harness --------------------------------------------------------


@dataclass
class ServerHandle:
    """A server running on a background event-loop thread.

    The harness the CLI bench, the scripts, and the tests share: start
    with :func:`start_server_thread`, talk to ``host:port`` from any
    thread, and :meth:`stop` to drain and join.  Context-manager use
    stops on exit.
    """

    server: SetCoverServer
    loop: asyncio.AbstractEventLoop
    thread: threading.Thread
    host: str
    port: int
    _stopped: bool = field(default=False, repr=False)

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful shutdown, then stop and join the loop thread."""
        if self._stopped:
            return
        self._stopped = True
        future = asyncio.run_coroutine_threadsafe(
            self.server.shutdown(), self.loop
        )
        try:
            future.result(timeout)
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def start_server_thread(
    config: Optional[ServeConfig] = None,
    registry: Optional[InstanceRegistry] = None,
    start_timeout: float = 10.0,
) -> ServerHandle:
    """Run a :class:`SetCoverServer` on a daemon event-loop thread.

    Raises whatever :meth:`SetCoverServer.start` raised — notably the
    typed :class:`~repro.errors.TransportError` in bind-forbidden
    sandboxes, so callers can skip gracefully.
    """
    server = SetCoverServer(config=config, registry=registry)
    ready = threading.Event()
    box: Dict[str, object] = {}

    def runner() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:  # noqa: BLE001 — relayed to caller
            box["error"] = exc
            ready.set()
            loop.close()
            return
        box["loop"] = loop
        ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    thread = threading.Thread(
        target=runner, name="repro-serve-loop", daemon=True
    )
    thread.start()
    if not ready.wait(start_timeout):
        raise TransportError("serve event loop failed to start in time")
    if "error" in box:
        raise box["error"]  # type: ignore[misc]
    assert server.port is not None
    return ServerHandle(
        server=server,
        loop=box["loop"],  # type: ignore[assignment]
        thread=thread,
        host=server.config.host,
        port=server.port,
    )
