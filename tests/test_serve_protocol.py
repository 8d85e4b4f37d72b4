"""The serve wire protocol: envelopes, typed-error round trips, framing.

Three concerns:

1. **Envelopes** — request/ok/error payload shapes, unknown request
   kinds failing fast client-side.
2. **Typed-error transport** — an :class:`AdmissionError` crosses the
   wire and is reconstructed as itself with every field intact; any
   other typed error comes back a :class:`RemoteServeError` tagged with
   the original type name.
3. **Framing** — blocking send/recv over a socketpair round-trips
   payloads, clean EOF is ``None``, mid-frame EOF and oversized
   announced lengths are typed :class:`TransportError`\\ s before any
   allocation.
"""

from __future__ import annotations

import asyncio
import socket
import struct

import pytest

from repro.distributed.transport import (
    FRAME_HEADER_SIZE,
    encode_frame,
    make_codec,
)
from repro.errors import (
    AdmissionError,
    CommBudgetError,
    InvalidParameterError,
    RemoteServeError,
    TransportError,
)
from repro.serve.protocol import (
    COMPUTE_KINDS,
    MAX_FRAME_BYTES,
    REQUEST_KINDS,
    error_response,
    error_to_payload,
    ok_response,
    payload_to_error,
    read_frame_async,
    recv_frame,
    request_payload,
    send_frame,
)


class TestEnvelopes:
    def test_request_payload_shape(self):
        payload = request_payload("solve", 7, instance="demo", seed=3)
        assert payload == {
            "kind": "solve", "id": 7, "instance": "demo", "seed": 3
        }

    def test_unknown_kind_fails_fast(self):
        with pytest.raises(InvalidParameterError) as excinfo:
            request_payload("explode", 1)
        assert "explode" in str(excinfo.value)

    def test_compute_kinds_are_request_kinds(self):
        assert set(COMPUTE_KINDS) <= set(REQUEST_KINDS)

    def test_ok_response_echoes_id(self):
        response = ok_response(42, {"x": 1})
        assert response == {"id": 42, "ok": True, "result": {"x": 1}}

    def test_error_response_shape(self):
        response = error_response(9, InvalidParameterError("seed", -1, "no"))
        assert response["id"] == 9
        assert response["ok"] is False
        assert response["error"]["type"] == "InvalidParameterError"
        assert response["error"]["parameter"] == "seed"


class TestErrorRoundTrip:
    def test_admission_error_round_trips_every_field(self):
        original = AdmissionError(
            "queue-full",
            requested_space_words=100,
            requested_comm_words=20,
            available_space_words=7,
            available_comm_words=3,
            queue_depth=16,
            retry_after=0.25,
            context="serve solve",
        )
        rebuilt = payload_to_error(error_to_payload(original))
        assert isinstance(rebuilt, AdmissionError)
        assert rebuilt.reason == "queue-full"
        assert rebuilt.requested_space_words == 100
        assert rebuilt.requested_comm_words == 20
        assert rebuilt.available_space_words == 7
        assert rebuilt.available_comm_words == 3
        assert rebuilt.queue_depth == 16
        assert rebuilt.retry_after == pytest.approx(0.25)
        assert rebuilt.context == "serve solve"

    def test_other_typed_errors_become_remote(self):
        original = CommBudgetError(used=10, budget=5, context="t")
        rebuilt = payload_to_error(error_to_payload(original))
        assert isinstance(rebuilt, RemoteServeError)
        assert rebuilt.error_type == "CommBudgetError"
        assert "CommBudgetError (remote)" in str(rebuilt)

    def test_bare_exception_becomes_remote(self):
        rebuilt = payload_to_error(error_to_payload(ValueError("boom")))
        assert isinstance(rebuilt, RemoteServeError)
        assert rebuilt.error_type == "ValueError"
        assert "boom" in str(rebuilt)


def garbage_body_frame() -> bytes:
    """A frame whose header is valid but whose pickle body is not."""
    body = b"\x80\x05garbage"
    header = bytearray(encode_frame(make_codec(), {})[:FRAME_HEADER_SIZE])
    struct.pack_into(">I", header, FRAME_HEADER_SIZE - 4, len(body))
    return bytes(header) + body


class TestFraming:
    def pair(self):
        left, right = socket.socketpair()
        left.settimeout(5)
        right.settimeout(5)
        return left, right

    def test_round_trip_over_socketpair(self):
        codec = make_codec()
        left, right = self.pair()
        try:
            payload = request_payload("ping", 1, blob="x" * 1000)
            send_frame(left, codec, payload)
            assert recv_frame(right) == payload
        finally:
            left.close()
            right.close()

    def test_multiple_frames_in_sequence(self):
        codec = make_codec()
        left, right = self.pair()
        try:
            for i in range(5):
                send_frame(left, codec, {"i": i})
            for i in range(5):
                assert recv_frame(right) == {"i": i}
        finally:
            left.close()
            right.close()

    def test_clean_eof_is_none(self):
        left, right = self.pair()
        left.close()
        try:
            assert recv_frame(right) is None
        finally:
            right.close()

    def test_mid_frame_eof_is_typed(self):
        codec = make_codec()
        left, right = self.pair()
        try:
            frame = encode_frame(codec, {"x": 1})
            left.sendall(frame[: FRAME_HEADER_SIZE + 2])
            left.close()
            with pytest.raises(TransportError):
                recv_frame(right)
        finally:
            right.close()

    def test_oversized_announced_length_is_typed(self):
        codec = make_codec()
        left, right = self.pair()
        try:
            frame = bytearray(encode_frame(codec, {"x": 1}))
            # Rewrite the length field to announce > MAX_FRAME_BYTES.
            struct.pack_into(
                ">I", frame, FRAME_HEADER_SIZE - 4, MAX_FRAME_BYTES + 1
            )
            left.sendall(bytes(frame))
            with pytest.raises(TransportError) as excinfo:
                recv_frame(right)
            assert "cap" in str(excinfo.value)
        finally:
            left.close()
            right.close()

    def test_garbage_header_is_typed(self):
        left, right = self.pair()
        try:
            left.sendall(b"NOPE" + b"\x00" * (FRAME_HEADER_SIZE - 4))
            with pytest.raises(TransportError):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_undecodable_body_is_typed(self):
        left, right = self.pair()
        try:
            left.sendall(garbage_body_frame())
            with pytest.raises(TransportError, match="cannot decode"):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_undecodable_body_is_typed_async(self):
        async def read():
            reader = asyncio.StreamReader()
            reader.feed_data(garbage_body_frame())
            reader.feed_eof()
            return await read_frame_async(reader)

        with pytest.raises(TransportError, match="cannot decode"):
            asyncio.run(read())
