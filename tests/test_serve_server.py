"""The live server: registry ops, batch-twin parity, admission, drain.

Every test runs against a real localhost TCP server on a background
event-loop thread (skipped gracefully where the sandbox forbids
binding — the PR-8 socket contract).  The three load-bearing claims:

1. **Batch-twin parity** — a served solve/distribute returns the same
   cover, certificate, and trace JSONL bytes the direct library call
   produces, including under concurrent clients.
2. **Typed admission** — an oversized request is refused with an
   :class:`AdmissionError` whose fields survive the wire; a contended
   pool queues FIFO and both requests succeed.
3. **Graceful shutdown** (the drain contract) — in-flight requests
   finish and answer, queued admissions get a typed shutting-down
   rejection, the port stops accepting, and no server thread remains
   live.
"""

from __future__ import annotations

import logging
import socket
import struct
import threading
import time

import pytest

from repro.algorithms import make_algorithm
from repro.distributed import run_distributed
from repro.distributed.transport import FRAME_HEADER_SIZE, encode_frame, make_codec
from repro.errors import (
    AdmissionError,
    InvalidParameterError,
    RemoteServeError,
    TransportError,
)
from repro.generators.planted import planted_partition_instance
from repro.obs.tracer import RecordingTracer, events_to_jsonl
from repro.serve import (
    InstanceRegistry,
    ServeClient,
    ServeConfig,
    start_server_thread,
)
from repro.serve.protocol import payload_to_error, recv_frame, send_frame
from repro.streaming.io import dumps_instance
from repro.streaming.orders import make_order
from repro.streaming.stream import stream_of

SEED = 11


def make_instance(seed: int = SEED):
    return planted_partition_instance(80, 30, opt_size=6, seed=seed).instance


def start_or_skip(config=None, registry=None):
    """A running server handle, or a graceful skip where bind is denied."""
    try:
        return start_server_thread(
            config if config is not None else ServeConfig(port=0), registry
        )
    except TransportError as exc:
        pytest.skip(f"sandbox forbids binding localhost TCP: {exc}")


@pytest.fixture(scope="module")
def instance():
    return make_instance()


@pytest.fixture(scope="module")
def handle(instance):
    registry = InstanceRegistry()
    registry.load_instance("demo", instance)
    server = start_or_skip(registry=registry)
    with server:
        yield server


@pytest.fixture()
def client(handle):
    with ServeClient(host=handle.host, port=handle.port) as c:
        yield c


def batch_solve(instance, algorithm="kk", order_name="canonical", seed=0):
    order = make_order(order_name, seed=seed)
    tracer = RecordingTracer()
    result = make_algorithm(
        algorithm, instance, seed=seed, alpha=None, tracer=tracer
    ).run(stream_of(instance, order))
    result.verify(instance)
    tracer.finish()
    return result, events_to_jsonl(tracer.events)


class TestServeConfig:
    """Regression: a float or bool ``max_workers`` was accepted and then
    failed every distribute request; a str ``max_workers`` or
    ``drain_timeout`` escaped as a bare ``TypeError``; a NaN, infinite or
    bool ``drain_timeout`` was accepted."""

    @pytest.mark.parametrize(
        "parameter,value",
        [
            ("max_workers", 2.5),
            ("max_workers", True),
            ("max_workers", "2"),
            ("max_workers", 0),
            ("drain_timeout", "x"),
            ("drain_timeout", True),
            ("drain_timeout", float("nan")),
            ("drain_timeout", float("inf")),
            ("drain_timeout", 0),
        ],
    )
    def test_bad_values_rejected(self, parameter, value):
        with pytest.raises(InvalidParameterError) as excinfo:
            ServeConfig(**{parameter: value})
        assert excinfo.value.parameter == parameter

    def test_boundary_values_accepted(self):
        config = ServeConfig(max_workers=1, drain_timeout=0.01)
        assert (config.max_workers, config.drain_timeout) == (1, 0.01)


class TestControlPlane:
    def test_ping(self, client):
        assert client.ping()["server"] == "repro-serve"

    def test_load_list_unload_round_trip(self, client):
        other = make_instance(seed=99)
        loaded = client.load("other", other)
        assert loaded["name"] == "other"
        assert loaded["n"] == other.n
        names = [e["name"] for e in client.instances()]
        assert names == sorted(names)
        assert "other" in names and "demo" in names
        assert client.unload("other") == {"unloaded": "other"}
        assert "other" not in [e["name"] for e in client.instances()]

    def test_load_accepts_io_text(self, client):
        other = make_instance(seed=5)
        client.load("fromtext", dumps_instance(other))
        entry = [
            e for e in client.instances() if e["name"] == "fromtext"
        ][0]
        assert entry["edges"] == other.num_edges
        client.unload("fromtext")

    def test_duplicate_load_is_typed(self, client, instance):
        with pytest.raises(RemoteServeError) as excinfo:
            client.load("demo", instance)
        assert excinfo.value.error_type == "InvalidParameterError"

    def test_unknown_instance_is_typed(self, client):
        with pytest.raises(RemoteServeError) as excinfo:
            client.solve("missing")
        assert excinfo.value.error_type == "InvalidParameterError"
        assert "demo" in str(excinfo.value)  # names the loaded ones

    def test_unknown_algorithm_is_typed(self, client):
        for algorithm in ("quantum", "kk-reference"):
            with pytest.raises(RemoteServeError) as excinfo:
                client.solve("demo", algorithm=algorithm)
            assert excinfo.value.error_type == "InvalidParameterError"

    @pytest.mark.parametrize(
        "kind, fields, parameter",
        [
            ("solve", {"seed": "x"}, "seed"),
            ("solve", {"seed": 1.9}, "seed"),
            ("summary", {"seed": True}, "seed"),
            ("distribute", {"seed": "7"}, "seed"),
            ("distribute", {"workers": "four"}, "workers"),
            ("distribute", {"workers": 2.0}, "workers"),
            ("distribute", {"workers": 0}, "workers"),
            ("solve", {"delay_ms": "soon"}, "delay_ms"),
            ("solve", {"delay_ms": 1.5}, "delay_ms"),
            ("solve", {"delay_ms": -1}, "delay_ms"),
            ("solve", {"fault_kind": "drop", "fault_rate": "abc"}, "fault_rate"),
            ("solve", {"fault_kind": "drop", "fault_rate": 2.0}, "fault_rate"),
            ("solve", {"fault_kind": "drop", "fault_rate": -0.1}, "fault_rate"),
            ("solve", {"fault_kind": "drop", "fault_rate": float("nan")}, "fault_rate"),
            ("solve", {"fault_rate": True}, "fault_rate"),
        ],
    )
    def test_malformed_parameter_is_typed_before_admission(
        self, client, kind, fields, parameter
    ):
        admitted = client.stats()["pool"]["admitted"]
        with pytest.raises(RemoteServeError) as excinfo:
            client.request(kind, instance="demo", **fields)
        assert excinfo.value.error_type == "InvalidParameterError"
        assert f"invalid {parameter}=" in str(excinfo.value)
        assert client.stats()["pool"]["admitted"] == admitted

    @pytest.mark.parametrize("bad_id", [None, "x", 1.5, True])
    def test_bad_request_id_is_typed_and_connection_survives(
        self, handle, bad_id
    ):
        # Regression: int(id) ran outside the dispatch's try, so a bad
        # id got no reply and the server dropped the connection.
        codec = make_codec()
        with socket.create_connection((handle.host, handle.port), 10) as sock:
            send_frame(sock, codec, {"id": bad_id, "kind": "ping"})
            reply = recv_frame(sock)
            assert reply["id"] == 0 and reply["ok"] is False
            error = payload_to_error(reply["error"])
            assert error.error_type == "InvalidParameterError"
            assert "invalid id=" in str(error)
            send_frame(sock, codec, {"id": 7, "kind": "ping"})
            pong = recv_frame(sock)
            assert pong["id"] == 7 and pong["ok"] is True

    def test_undecodable_frame_drops_only_its_connection(
        self, handle, client, caplog
    ):
        # Regression: the UnpicklingError escaped the connection handler
        # and asyncio logged "Unhandled exception in client_connected_cb".
        body = b"\x80\x05garbage"
        header = bytearray(encode_frame(make_codec(), {})[:FRAME_HEADER_SIZE])
        struct.pack_into(">I", header, FRAME_HEADER_SIZE - 4, len(body))
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with socket.create_connection((handle.host, handle.port), 10) as sock:
                sock.sendall(bytes(header) + body)
                assert sock.recv(1) == b""  # the server hung up
            assert client.ping()["server"] == "repro-serve"
        assert not caplog.records

    def test_stats_counters_accumulate(self, client):
        before = client.stats()["counters"].get("solve", 0)
        client.solve("demo")
        after = client.stats()["counters"]
        assert after["solve"] == before + 1
        assert after.get("stats", 0) >= 2


class TestBatchTwinParity:
    def test_solve_matches_batch_twin(self, client, instance):
        for algorithm, order_name, seed in [
            ("kk", "canonical", 0),
            ("kk", "random", 7),
            ("store-all", "large-sets-last", 2),
            ("first-fit", "large-sets-last", 3),
        ]:
            twin, twin_trace = batch_solve(
                instance, algorithm, order_name, seed
            )
            served = client.solve(
                "demo",
                algorithm=algorithm,
                order=order_name,
                seed=seed,
                include_trace=True,
            )
            assert tuple(served["cover"]) == tuple(sorted(twin.cover))
            assert tuple(tuple(p) for p in served["certificate"]) == tuple(
                sorted(twin.certificate.items())
            )
            assert served["peak_words"] == twin.space.peak_words
            assert served["trace_jsonl"] == twin_trace
            assert served["valid"] is True

    def test_concurrent_solves_match_batch_twin(self, handle, instance):
        """N simultaneous clients, same request: all byte-identical."""
        twin, twin_trace = batch_solve(instance, "kk", "random", 13)
        results, failures = [], []

        def one_client():
            try:
                with ServeClient(host=handle.host, port=handle.port) as c:
                    results.append(
                        c.solve(
                            "demo", order="random", seed=13,
                            include_trace=True,
                        )
                    )
            except Exception as exc:  # noqa: BLE001
                failures.append(exc)

        threads = [threading.Thread(target=one_client) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
        assert len(results) == 4
        for served in results:
            assert tuple(served["cover"]) == tuple(sorted(twin.cover))
            assert served["trace_jsonl"] == twin_trace
            assert served["peak_words"] == twin.space.peak_words

    def test_distribute_matches_batch_twin(self, client, instance):
        for workers, coordinator in [(3, "greedy"), (3, "chain"), (2, "union")]:
            twin = run_distributed(
                instance, workers=workers, algorithm="kk",
                coordinator=coordinator, seed=SEED,
            )
            twin.verify(instance)
            served = client.distribute(
                "demo", workers=workers, coordinator=coordinator, seed=SEED
            )
            assert tuple(served["cover"]) == tuple(sorted(twin.cover))
            assert tuple(tuple(p) for p in served["certificate"]) == tuple(
                sorted(twin.certificate.items())
            )
            assert served["total_comm_words"] == twin.total_comm_words
            assert served["max_message_words"] == twin.max_message_words
            assert served["messages"] == twin.comm.num_messages
            assert served["per_link_words"] == twin.comm.per_link_words

    def test_summary_reports_trace(self, client):
        served = client.summary("demo", algorithm="kk", seed=1)
        assert served["trace_events"] > 0
        assert "events" in served["summary_text"]

    def test_chaos_solve_reports_outcome(self, client):
        served = client.solve(
            "demo", fault_kind="drop", fault_rate=0.3, seed=3,
            policy="best_effort",
        )
        assert served["outcome"] in ("ok", "degraded")
        assert served["degraded"] == (served["outcome"] == "degraded")
        if served["outcome"] == "ok":
            assert served["valid"] is True


class TestAdmission:
    def test_oversized_request_rejected_with_fields(self, instance):
        registry = InstanceRegistry()
        entry = registry.load_instance("demo", instance)
        config = ServeConfig(
            port=0, space_pool_words=entry.estimated_solve_words // 2
        )
        with start_or_skip(config, registry) as handle:
            with ServeClient(host=handle.host, port=handle.port) as c:
                with pytest.raises(AdmissionError) as excinfo:
                    c.solve("demo")
                error = excinfo.value
                assert error.reason == "exceeds-capacity"
                assert (
                    error.requested_space_words == entry.estimated_solve_words
                )
                assert (
                    error.available_space_words
                    == entry.estimated_solve_words // 2
                )
                assert error.retry_after is None
                # The pool recorded the rejection; the server stayed up.
                stats = c.stats()
                assert stats["pool"]["rejections"] == {
                    "exceeds-capacity": 1
                }
                assert c.ping()["server"] == "repro-serve"

    def test_contended_pool_queues_fifo_and_serves_both(self, instance):
        registry = InstanceRegistry()
        entry = registry.load_instance("demo", instance)
        config = ServeConfig(port=0, space_pool_words=entry.estimated_solve_words)
        with start_or_skip(config, registry) as handle:
            results, failures = [], []

            def solve(delay_ms):
                try:
                    with ServeClient(
                        host=handle.host, port=handle.port
                    ) as c:
                        results.append(c.solve("demo", delay_ms=delay_ms))
                except Exception as exc:  # noqa: BLE001
                    failures.append(exc)

            slow = threading.Thread(target=solve, args=(400,))
            slow.start()
            time.sleep(0.15)  # slow solve holds the whole pool
            fast = threading.Thread(target=solve, args=(0,))
            fast.start()
            slow.join()
            fast.join()
            assert not failures
            assert len(results) == 2
            assert all(r["valid"] for r in results)
            with ServeClient(host=handle.host, port=handle.port) as c:
                pool = c.stats()["pool"]
                assert pool["queued_total"] >= 1
                assert pool["admitted"] == 2
                assert pool["completed"] == 2


class TestGracefulShutdown:
    def test_drain_completes_inflight_and_rejects_queued(self, instance):
        """The satellite-2 contract, end to end."""
        registry = InstanceRegistry()
        entry = registry.load_instance("demo", instance)
        config = ServeConfig(
            port=0, space_pool_words=entry.estimated_solve_words
        )
        handle = start_or_skip(config, registry)
        outcomes = {}

        def inflight():
            with ServeClient(host=handle.host, port=handle.port) as c:
                outcomes["inflight"] = c.solve("demo", delay_ms=800)

        def queued():
            with ServeClient(host=handle.host, port=handle.port) as c:
                try:
                    outcomes["queued"] = c.solve("demo")
                except AdmissionError as exc:
                    outcomes["queued_error"] = exc

        first = threading.Thread(target=inflight)
        first.start()
        time.sleep(0.25)  # in flight, holding the whole pool
        second = threading.Thread(target=queued)
        second.start()
        time.sleep(0.25)  # queued behind the first

        handle.stop()
        first.join(10)
        second.join(10)

        # The in-flight request drained to a full, valid answer.
        assert outcomes["inflight"]["valid"] is True
        # The queued admission was evicted with the typed rejection.
        assert "queued" not in outcomes
        assert outcomes["queued_error"].reason == "shutting-down"
        # The port no longer accepts.
        with pytest.raises(TransportError):
            ServeClient(host=handle.host, port=handle.port, timeout=2)
        # This server's event-loop thread is joined and gone (other
        # servers in the process keep their own threads).
        assert not handle.thread.is_alive()

    def test_stop_is_idempotent(self, instance):
        registry = InstanceRegistry()
        registry.load_instance("demo", instance)
        handle = start_or_skip(registry=registry)
        with ServeClient(host=handle.host, port=handle.port) as c:
            assert c.solve("demo")["valid"] is True
        handle.stop()
        handle.stop()  # second stop is a no-op

    def test_client_shutdown_request_stops_server(self, instance):
        registry = InstanceRegistry()
        registry.load_instance("demo", instance)
        handle = start_or_skip(registry=registry)
        with ServeClient(host=handle.host, port=handle.port) as c:
            assert c.shutdown() == {"stopping": True}
        # The foreground serve loop would now drain; emulate it.
        handle.stop()
        with pytest.raises(TransportError):
            ServeClient(host=handle.host, port=handle.port, timeout=2)
