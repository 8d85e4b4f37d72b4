"""The transport layer: wire format, the three transports, and parity.

Five concerns:

1. **Wire format** — int64 word packing, framing, codec round-trips,
   and the typed errors malformed frames raise.
2. **Transports** — inproc's zero-copy identity, loopback's scheduler
   clock / fault injection / retransmit budget, socket's real TCP
   round-trip (skipped gracefully where the sandbox forbids binding).
3. **Parity** — covers, certificates, and comm reports are
   byte-identical across all three transports, sync and async; the
   TransportReport is excluded from result equality.
4. **The satellite property** — for any fault-free run, per-link frame
   counts equal the comm report's per-link message counts, and measured
   bytes ≥ metered words × 8 (one int64 per word).
5. **Budget ordering** — the comm meter charges *before* the wire
   moves, so a budget-tripped merge metered the offending message but
   never transmitted it.
"""

from __future__ import annotations

import socket
import struct
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.distributed import (
    TRANSPORT_REGISTRY,
    CommBudget,
    CommMeter,
    DistributedResult,
    InprocTransport,
    LoopbackTransport,
    PickleCodec,
    SocketTransport,
    TransportReport,
    decode_frame,
    encode_frame,
    make_codec,
    make_transport,
    pack_words,
    registered_transports,
    run_distributed,
    run_distributed_async,
    unpack_words,
)
from repro.distributed.chain import state_words
from repro.distributed.coordinator import _send
from repro.distributed.executor import resolve_transport, validate_transport
from repro.distributed.transport import (
    FRAME_HEADER_SIZE,
    candidate_upload_wire,
    cover_upload_wire,
    handoff_wire,
    handoff_words,
    read_candidate_upload,
    read_cover_upload,
)
from repro.errors import (
    CommBudgetError,
    InvalidParameterError,
    TransportError,
    TransportPartitionError,
)
from repro.generators.planted import planted_partition_instance
from repro.obs.tracer import NULL_TRACER

COORDINATORS = ("union", "greedy", "chain")


@pytest.fixture(scope="module")
def instance():
    return planted_partition_instance(60, 40, opt_size=6, seed=3).instance


def socket_or_skip(**kwargs):
    """A SocketTransport, or a graceful skip where binding is forbidden."""
    try:
        return SocketTransport(**kwargs)
    except TransportError as exc:
        pytest.skip(f"socket transport unavailable: {exc}")


def garbage_body_frame() -> bytes:
    """A frame whose header is valid but whose pickle body is not."""
    body = b"\x80\x05garbage"
    header = bytearray(encode_frame(PickleCodec(), {})[:FRAME_HEADER_SIZE])
    struct.pack_into(">I", header, FRAME_HEADER_SIZE - 4, len(body))
    return bytes(header) + body


# -- wire format ------------------------------------------------------------


class TestWordPacking:
    def test_round_trip(self):
        values = [0, 1, 7, 2**40, -3]
        assert unpack_words(pack_words(values)) == values

    def test_eight_bytes_per_word(self):
        assert len(pack_words(range(5))) == 40
        assert pack_words([]) == b""

    def test_ragged_field_rejected(self):
        with pytest.raises(TransportError, match="not a multiple"):
            unpack_words(b"\x00" * 9)


class TestCodecs:
    def test_pickle_round_trip(self):
        codec = PickleCodec()
        payload = {"kind": "cover", "index": 2, "cover": pack_words([1, 2])}
        assert codec.decode(codec.encode(payload)) == payload

    def test_make_codec_is_pickle(self):
        assert make_codec().name == "pickle"

    def test_unknown_codec_rejected(self):
        # Tag 2 was msgpack's; pickle is the only codec a frame may name.
        frame = bytearray(encode_frame(PickleCodec(), {"k": 1}))
        frame[4] = 2
        with pytest.raises(TransportError, match="codec tag 2"):
            decode_frame(bytes(frame))


class TestFraming:
    def test_round_trip(self):
        payload = {"kind": "handoff", "hop": 0, "uncovered": pack_words([4])}
        frame = encode_frame(PickleCodec(), payload)
        assert decode_frame(frame) == payload

    def test_bad_magic_rejected(self):
        frame = encode_frame(PickleCodec(), {"k": 1})
        with pytest.raises(TransportError, match="magic"):
            decode_frame(b"XXXX" + frame[4:])

    def test_truncated_header_rejected(self):
        with pytest.raises(TransportError, match="shorter"):
            decode_frame(b"RPWT")

    def test_length_mismatch_rejected(self):
        frame = encode_frame(PickleCodec(), {"k": 1})
        with pytest.raises(TransportError, match="announces"):
            decode_frame(frame[:-1])

    def test_unknown_codec_tag_rejected(self):
        frame = bytearray(encode_frame(PickleCodec(), {"k": 1}))
        frame[4] = 99
        with pytest.raises(TransportError, match="codec tag"):
            decode_frame(bytes(frame))

    def test_undecodable_body_rejected(self):
        with pytest.raises(TransportError, match="cannot decode") as excinfo:
            decode_frame(garbage_body_frame())
        assert excinfo.value.__cause__ is not None


class TestWireHelpers:
    def test_cover_upload_round_trip(self):
        payload = cover_upload_wire(3, {9, 2, 5}, {0: 2, 4: 9, 1: 5})
        index, cover, pairs = read_cover_upload(payload)
        assert index == 3
        assert cover == [2, 5, 9]
        assert pairs == [(0, 2), (1, 5), (4, 9)]

    def test_candidate_upload_round_trip(self):
        payload = candidate_upload_wire(
            1, [7, 4], {4: frozenset({0, 2}), 7: frozenset({1})}
        )
        index, uploads = read_candidate_upload(payload)
        assert index == 1
        assert uploads == [(4, [0, 2]), (7, [1])]

    def test_handoff_words_mirrors_state_words(self):
        uncovered = {3, 1, 4}
        witnesses = {0: 5, 2: 7}
        chosen = [7, 5, 9]
        payload = handoff_wire(0, uncovered, witnesses.items(), chosen)
        assert handoff_words(payload) == state_words(
            uncovered, witnesses, chosen
        )


# -- transports -------------------------------------------------------------


class TestRegistry:
    def test_three_transports(self):
        assert registered_transports() == ["inproc", "loopback", "socket"]
        assert set(TRANSPORT_REGISTRY) == set(registered_transports())

    def test_unknown_transport_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_transport("carrier-pigeon")

    def test_validate_rejects_wrong_types_and_unknown_names(self):
        with pytest.raises(InvalidParameterError):
            validate_transport(42)
        with pytest.raises(InvalidParameterError):
            validate_transport("bogus")
        validate_transport(None)
        validate_transport("loopback")

    def test_resolve_default_is_inproc(self):
        transport = resolve_transport(None)
        assert isinstance(transport, InprocTransport)
        built = InprocTransport()
        assert resolve_transport(built) is built


class TestInprocTransport:
    def test_zero_copy_identity(self):
        with InprocTransport() as transport:
            payload = {"kind": "cover", "index": 0, "cover": pack_words([1])}
            assert transport.send("a", "b", "cover", payload) is payload

    def test_bytes_and_frames_recorded(self):
        transport = InprocTransport()
        payload = {"kind": "x", "data": pack_words(range(10))}
        frame_len = len(encode_frame(transport.codec, payload))
        transport.send("a", "b", "x", payload)
        transport.send("a", "b", "x", payload)
        report = transport.report(metered_words=10)
        assert report.total_frames == 2
        assert report.total_bytes == 2 * frame_len
        assert report.per_link_bytes == {"a->b": 2 * frame_len}
        assert report.per_link_frames == {"a->b": 2}
        assert report.retransmits == 0
        assert report.overhead_ratio == 2 * frame_len / 80


class TestLoopbackTransport:
    def test_delivers_equal_payload_not_same_object(self):
        with LoopbackTransport() as transport:
            payload = {"kind": "x", "data": pack_words([5, 6])}
            delivered = transport.send("a", "b", "x", payload)
            assert delivered == payload
            assert delivered is not payload

    def test_clock_advances_with_link_delays(self):
        transport = LoopbackTransport(link_delays={"a->b": 4}, default_delay=1)
        transport.send("a", "b", "x", {"k": 1})
        after_slow = transport.clock
        transport.send("b", "c", "x", {"k": 2})
        assert after_slow >= 5  # 4 delay ticks + 1 delivery step
        assert transport.clock > after_slow
        assert transport.report().diagnostics["logical_clock"] == float(
            transport.clock
        )

    def test_partitioned_link_exhausts_retransmits(self):
        transport = LoopbackTransport(partitioned=["a->b"], max_retries=2)
        with pytest.raises(TransportPartitionError) as excinfo:
            transport.send("a", "b", "x", {"k": 1})
        assert excinfo.value.link == "a->b"
        assert excinfo.value.attempts == 3
        report = transport.report()
        # Every transmission hit the wire and was paid for.
        assert report.per_link_frames["a->b"] == 3
        assert report.per_link_retransmits["a->b"] == 2
        # An unpartitioned link still works afterwards.
        assert transport.send("a", "c", "x", {"k": 2}) == {"k": 2}

    def test_seeded_drops_retransmit_then_succeed(self):
        # drop_rate=0.9, seed chosen so some sends need retransmits; a
        # high retry budget means delivery still succeeds, and the same
        # seed reproduces the same retransmit count.
        def run(seed):
            transport = LoopbackTransport(
                seed=seed, drop_rate=0.9, max_retries=50
            )
            for i in range(5):
                assert transport.send("a", "b", "x", {"i": i}) == {"i": i}
            return transport.report()

        first, second = run(7), run(7)
        assert first.retransmits > 0
        assert first.retransmits == second.retransmits
        assert first.total_bytes == second.total_bytes

    def test_invalid_parameters_rejected(self):
        with pytest.raises(InvalidParameterError):
            LoopbackTransport(drop_rate=1.0)
        with pytest.raises(InvalidParameterError):
            LoopbackTransport(jitter=-1)
        with pytest.raises(InvalidParameterError):
            LoopbackTransport(max_retries=-1)

    @pytest.mark.parametrize(
        "kwargs,parameter",
        [
            ({"jitter": 1.5}, "jitter"),
            ({"jitter": True}, "jitter"),
            ({"max_retries": 1.5}, "max_retries"),
            ({"max_retries": False}, "max_retries"),
            ({"default_delay": 0.5}, "default_delay"),
            ({"default_delay": -1}, "default_delay"),
            ({"link_delays": {"a->b": 2.5}}, "link_delays"),
        ],
    )
    def test_non_int_counts_rejected_at_construction(self, kwargs, parameter):
        # Regression: a fractional jitter or retry count used to pass
        # construction and fail mid-merge with a bare ValueError or
        # TypeError; a fractional delay gave a fractional clock.
        with pytest.raises(InvalidParameterError) as excinfo:
            LoopbackTransport(**kwargs)
        assert excinfo.value.parameter.startswith(parameter)

    def test_clock_counts_delay_then_delivery_step(self):
        # One frame in flight: idle through its delay, one step to land.
        transport = LoopbackTransport(link_delays={"a->b": 3}, default_delay=0)
        clock = []
        for src, dst in (("a", "b"), ("b", "c")):
            transport.send(src, dst, "x", {"k": 1})
            diagnostics = transport.report().diagnostics
            clock.append(
                (diagnostics["logical_clock"], diagnostics["idle_ticks"])
            )
        assert clock == [(4.0, 3.0), (5.0, 3.0)]


class TestSocketTransport:
    @pytest.mark.parametrize(
        "kwargs, parameter",
        [
            ({"max_retries": 1.5}, "max_retries"),
            ({"max_retries": "2"}, "max_retries"),
            ({"timeout": -1.0}, "timeout"),
            ({"timeout": 0}, "timeout"),
            ({"timeout": True}, "timeout"),
            ({"timeout": float("nan")}, "timeout"),
        ],
    )
    def test_bad_retries_or_timeout_rejected_before_binding(
        self, kwargs, parameter
    ):
        # Regression: these used to construct (binding a listener) and
        # fail at the first send with a bare TypeError or ValueError, or
        # as a misleading partition error for timeout=0.
        with pytest.raises(InvalidParameterError) as excinfo:
            SocketTransport(**kwargs)
        assert excinfo.value.parameter == parameter

    def test_round_trip_over_tcp(self):
        transport = socket_or_skip()
        try:
            payload = {"kind": "cover", "cover": pack_words([3, 1, 4])}
            delivered = transport.send("a", "b", "cover", payload)
            assert delivered == payload
            assert delivered is not payload
            report = transport.report()
            assert report.per_link_frames == {"a->b": 1}
            assert report.diagnostics["port"] == float(transport.port)
        finally:
            transport.close()

    def test_multiple_links_and_close_idempotent(self):
        transport = socket_or_skip()
        try:
            transport.send("a", "b", "x", {"k": 1})
            transport.send("b", "c", "x", {"k": 2})
            assert set(transport.report().per_link_frames) == {"a->b", "b->c"}
        finally:
            transport.close()
            transport.close()
        with pytest.raises(TransportError, match="closed"):
            transport.send("a", "b", "x", {"k": 3})

    @pytest.mark.parametrize(
        "frame",
        [
            pytest.param(b"XXXX" + encode_frame(PickleCodec(), {})[4:], id="magic"),
            pytest.param(garbage_body_frame(), id="body"),
        ],
    )
    def test_malformed_frame_drops_only_its_connection(self, monkeypatch, frame):
        # Regression: the reader thread died with an uncaught
        # TransportError (bad magic) or UnpicklingError (bad body).
        raised = []
        monkeypatch.setattr(threading, "excepthook", raised.append)
        transport = socket_or_skip()
        try:
            assert transport.send("a", "b", "x", {"k": 1}) == {"k": 1}
            before = set(threading.enumerate())
            with socket.create_connection(
                (transport.host, transport.port), timeout=5
            ) as bad:
                bad.sendall(frame)
                try:  # the transport hangs up, with a reset if bytes were unread
                    assert bad.recv(1) == b""
                except ConnectionResetError:
                    pass
            for thread in set(threading.enumerate()) - before:
                thread.join(timeout=5)
            assert transport.send("a", "b", "x", {"k": 2}) == {"k": 2}
        finally:
            transport.close()
        assert raised == []


# -- parity and the satellite property --------------------------------------


class TestTransportParity:
    @pytest.mark.parametrize("coordinator", COORDINATORS)
    def test_three_transports_identical_results(self, instance, coordinator):
        results = {}
        for name in registered_transports():
            if name == "socket":
                try:
                    transport = SocketTransport()
                except TransportError:
                    continue  # sandbox forbids binding; inproc/loopback remain
            else:
                transport = make_transport(name)
            results[name] = run_distributed(
                instance,
                4,
                coordinator=coordinator,
                transport=transport,
            )
        assert len(results) >= 2
        baseline = results["inproc"]
        baseline.verify(instance)
        for name, result in results.items():
            # Dataclass equality covers cover/certificate/comm/shards;
            # TransportReport is excluded by compare=False.
            assert result == baseline, name
            assert result.comm == baseline.comm, name
            assert result.transport.transport == name
            assert result.transport.per_link_frames == (
                result.comm.per_link_messages
            ), name
            # Same codec + framing everywhere: measured bytes agree too.
            assert result.transport.total_bytes == (
                baseline.transport.total_bytes
            ), name

    def test_async_matches_sync_per_transport(self, instance):
        for name in ("inproc", "loopback"):
            sync = run_distributed(
                instance, 3, coordinator="chain", transport=name
            )
            asynchronous = run_distributed_async(
                instance, 3, coordinator="chain", transport=name,
                schedule_seed=5,
            )
            # Diagnostics gain scheduler fields in async mode; the
            # semantic payload and the wire accounting must not move.
            assert asynchronous.cover == sync.cover
            assert asynchronous.certificate == sync.certificate
            assert asynchronous.comm == sync.comm
            assert (
                asynchronous.transport.total_bytes
                == sync.transport.total_bytes
            )
            assert (
                asynchronous.transport.per_link_frames
                == sync.transport.per_link_frames
            )

    def test_transport_report_excluded_from_equality(self, instance):
        inproc = run_distributed(instance, 3, transport="inproc")
        loopback = run_distributed(instance, 3, transport="loopback")
        assert inproc == loopback
        assert inproc.transport.transport != loopback.transport.transport

    def test_default_run_measures_inproc(self, instance):
        result = run_distributed(instance, 3)
        assert isinstance(result.transport, TransportReport)
        assert result.transport.transport == "inproc"
        assert result.transport.total_bytes > 0


class TestFramesMatchMessagesProperty:
    """Satellite: frames == comm messages, bytes ≥ words × 8, per link."""

    @given(
        workers=st.integers(min_value=1, max_value=5),
        coordinator=st.sampled_from(COORDINATORS),
        transport_name=st.sampled_from(["inproc", "loopback"]),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    @settings(max_examples=25, deadline=None)
    def test_fault_free_runs(self, workers, coordinator, transport_name, seed):
        instance = planted_partition_instance(
            40, 24, opt_size=4, seed=seed % 7
        ).instance
        result = run_distributed(
            instance,
            workers,
            coordinator=coordinator,
            seed=seed,
            transport=transport_name,
        )
        comm, transport = result.comm, result.transport
        assert transport.per_link_frames == comm.per_link_messages
        assert transport.total_frames == comm.num_messages
        assert transport.metered_words == comm.total_words
        assert transport.total_bytes >= 8 * comm.total_words
        if comm.total_words:
            assert transport.overhead_ratio >= 1.0
        # Per-link refinement of the byte bound: every link's frames
        # carry at least that link's metered words as int64s.
        for link, words in comm.per_link_words.items():
            assert transport.per_link_bytes[link] >= 8 * words


class TestBudgetTripOrdering:
    def test_tripping_message_metered_but_never_transmitted(self):
        meter = CommMeter(budget=CommBudget(10))
        transport = InprocTransport()
        _send(
            meter, NULL_TRACER, "a", "b", 6,
            transport=transport, kind="x", payload={"k": 1},
        )
        with pytest.raises(CommBudgetError):
            _send(
                meter, NULL_TRACER, "b", "c", 7,
                transport=transport, kind="x", payload={"k": 2},
            )
        # Apply-then-raise on the meter (see test_meter_contract.py)...
        assert meter.total_words == 13
        # ...but charge-before-wire on the transport: the over-budget
        # message never crossed.
        report = transport.report()
        assert report.total_frames == 1
        assert "b->c" not in report.per_link_frames

    def test_budget_trip_through_executor(self, instance):
        transport = InprocTransport()
        with pytest.raises(CommBudgetError):
            run_distributed(
                instance,
                4,
                coordinator="union",
                comm_budget=CommBudget(1),
                transport=transport,
            )
        # W=4 uploads: the first was metered over budget, nothing sent.
        assert transport.report().total_frames == 0
