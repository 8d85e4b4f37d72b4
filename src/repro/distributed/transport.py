"""Pluggable wire transports: turning metered words into measured bytes.

:class:`~repro.distributed.comm.CommMeter` charges idealised machine
*words* on abstract links — the currency of Theorem 2 — but nothing
ever crosses a wire, so the comm report cannot be validated against
physical bytes and transport-level faults (partitions, retransmits)
are unreachable.  This module adds the missing layer: every message a
coordinator charges also travels, as real serialized bytes, through a
registered :class:`Transport`:

``inproc``
    Zero-copy, the default.  The payload is framed once to *measure*
    its wire size, then delivered by reference — today's behaviour
    with a byte count attached.
``loopback``
    An in-memory channel on a logical clock, with seeded per-link
    latency, jitter, and partition/drop injection.  Frames are encoded,
    held for their link delay, and decoded on delivery; a partitioned
    link retransmits up to ``max_retries`` times and then raises a
    typed :class:`~repro.errors.TransportPartitionError`.
``socket``
    Real TCP over localhost.  A background acceptor thread owns the
    listening socket; senders hold one connection per link and ship
    length-prefixed frames, which the receiver side decodes and hands
    back.  Connection failures retransmit; a sandbox that forbids
    binding raises :class:`~repro.errors.TransportError` at
    construction, which callers (the parity tests, the bench) treat as
    a graceful skip.

Wire format (shared by every transport, so their byte counts are
comparable)::

    4 bytes  magic  b"RPWT"
    1 byte   codec tag (1 = pickle, the only codec)
    4 bytes  payload length, big-endian
    N bytes  codec-encoded payload

Payloads themselves are built by the ``*_wire`` helpers below: pure
``str -> int | bytes`` dicts whose id sequences are packed as
big-endian **int64** arrays — one machine word, eight bytes.  That
packing is what makes the words/bytes comparison honest: a message of
``w`` metered words carries at least ``8·w`` payload bytes (the chain's
two-words-per-key charge is mirrored by a two-int64 encoding per key),
so ``TransportReport.overhead_ratio >= 1`` is a structural property,
not a measurement accident.

The codec is pickle; a frame carrying any other codec tag is a typed
:class:`~repro.errors.TransportError`.

Determinism and parity: a transport never changes *what* is computed —
coordinators consume the **delivered** payload, so the parity tests
(``tests/test_distributed_transport.py::TestTransportParity``) prove
covers, certificates, and comm reports byte-identical across all three
transports, while the
:class:`TransportReport` (attached to
:attr:`~repro.distributed.executor.DistributedResult.transport`,
excluded from equality) records what the
wire actually carried: per-link bytes, frames, and retransmits.
"""

from __future__ import annotations

import itertools
import math
import numbers
import pickle
import queue
import socket as socket_module
import struct
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Type

import numpy as np

from repro.distributed.comm import check_count, check_link_delays, link_label
from repro.errors import (
    InvalidParameterError,
    TransportError,
    TransportPartitionError,
)
from repro.types import SeedLike, make_rng

WIRE_MAGIC = b"RPWT"
_HEADER = struct.Struct("!4sBI")
#: Size of the fixed frame header, public for stream readers that pull
#: the header and payload off a byte stream separately (the socket
#: transport's read loop, the serve protocol's asyncio reader).
FRAME_HEADER_SIZE = _HEADER.size
#: Bytes per idealised machine word (int64) on the wire.
WORD_BYTES = 8


def parse_frame_header(header: bytes) -> Tuple[int, int]:
    """Parse the fixed frame header into ``(codec tag, payload length)``.

    Validates size and magic with the same typed errors
    :func:`decode_frame` raises, so incremental stream readers reject
    bad wire data identically to whole-frame decoders.
    """
    if len(header) != _HEADER.size:
        raise TransportError(
            f"frame header of {len(header)} bytes, expected {_HEADER.size}"
        )
    magic, tag, length = _HEADER.unpack(header)
    if magic != WIRE_MAGIC:
        raise TransportError(f"bad frame magic {magic!r}")
    return tag, length


# -- word packing -----------------------------------------------------------


def pack_words(values: Iterable[object]) -> bytes:
    """Pack integer ids — or rows of ids, row-major — as big-endian
    int64, eight bytes per word."""
    if not isinstance(values, np.ndarray):
        values = list(values)
    return np.asarray(values, dtype=">i8").tobytes()


def unpack_words(data: bytes) -> List[int]:
    """Inverse of :func:`pack_words`."""
    count, remainder = divmod(len(data), WORD_BYTES)
    if remainder:
        raise TransportError(
            f"packed word field of {len(data)} bytes is not a multiple of "
            f"{WORD_BYTES}"
        )
    return list(struct.unpack(f"!{count}q", data))


# -- codecs -----------------------------------------------------------------


class Codec:
    """Serializer for wire payloads (pure ``str -> int | bytes`` dicts)."""

    name = "abstract"
    tag = 0

    def encode(self, payload: object) -> bytes:
        raise NotImplementedError

    def decode(self, data: bytes) -> object:
        raise NotImplementedError


class PickleCodec(Codec):
    """The always-available codec; deterministic for the wire dicts."""

    name = "pickle"
    tag = 1

    def encode(self, payload: object) -> bytes:
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)

    def decode(self, data: bytes) -> object:
        return pickle.loads(data)


def make_codec() -> Codec:
    """The wire codec every transport and the serve protocol use."""
    return PickleCodec()


# -- framing ----------------------------------------------------------------


def encode_frame(codec: Codec, payload: object) -> bytes:
    """Length-prefix one codec-encoded payload."""
    body = codec.encode(payload)
    return _HEADER.pack(WIRE_MAGIC, codec.tag, len(body)) + body


def decode_frame(frame: bytes) -> object:
    """Parse one frame back to its payload; typed errors on bad wire."""
    if len(frame) < _HEADER.size:
        raise TransportError(
            f"frame of {len(frame)} bytes is shorter than the "
            f"{_HEADER.size}-byte header"
        )
    magic, tag, length = _HEADER.unpack(frame[: _HEADER.size])
    if magic != WIRE_MAGIC:
        raise TransportError(f"bad frame magic {magic!r}")
    body = frame[_HEADER.size :]
    if len(body) != length:
        raise TransportError(
            f"frame announces {length} payload bytes but carries {len(body)}"
        )
    if tag != PickleCodec.tag:
        raise TransportError(f"unknown codec tag {tag}")
    try:
        return PickleCodec().decode(body)
    except Exception as exc:  # noqa: BLE001 — any codec failure is bad wire
        raise TransportError(
            f"cannot decode {length}-byte frame body: {exc!r}"
        ) from exc


# -- wire payload schemas ---------------------------------------------------
#
# One builder/reader pair per message kind the coordinators send.  Id
# sequences travel as packed int64 arrays so payload bytes track metered
# words exactly; the readers return the same deterministic orders the
# pre-transport merge code iterated in, which is what keeps the merge
# result independent of the transport.


def cover_upload_wire(
    index: int,
    cover: Iterable[int],
    certificate: Mapping[int, int],
) -> Dict[str, object]:
    """A shard's (cover, certificate) upload — the union merge's input."""
    return {
        "kind": "cover",
        "index": index,
        "cover": pack_words(sorted(cover)),
        "certificate": pack_words(sorted(certificate.items())),
    }


def read_cover_upload(
    payload: Mapping[str, object]
) -> Tuple[int, List[int], List[Tuple[int, int]]]:
    """``(index, cover ids, sorted (element, witness) pairs)``."""
    flat = unpack_words(payload["certificate"])  # type: ignore[arg-type]
    pairs = list(zip(flat[0::2], flat[1::2]))
    return (
        int(payload["index"]),  # type: ignore[arg-type]
        unpack_words(payload["cover"]),  # type: ignore[arg-type]
        pairs,
    )


def candidate_upload_wire(
    index: int,
    cover: Iterable[int],
    members_by_set: Mapping[int, Iterable[int]],
) -> Dict[str, object]:
    """A shard's candidate-set upload — the greedy merge's input."""
    sids = sorted(cover)
    views = [sorted(members_by_set.get(sid, ())) for sid in sids]
    return {
        "kind": "candidates",
        "index": index,
        "sets": pack_words(sids),
        "counts": pack_words(len(view) for view in views),
        "members": pack_words(itertools.chain.from_iterable(views)),
    }


def read_candidate_upload(
    payload: Mapping[str, object]
) -> Tuple[int, List[Tuple[int, List[int]]]]:
    """``(index, [(set id, observed members)...])`` in sorted-set order."""
    sids = unpack_words(payload["sets"])  # type: ignore[arg-type]
    counts = unpack_words(payload["counts"])  # type: ignore[arg-type]
    members = unpack_words(payload["members"])  # type: ignore[arg-type]
    bounds = list(itertools.accumulate(counts, initial=0))
    out = [(sid, members[a:b]) for sid, a, b in zip(sids, bounds, bounds[1:])]
    return int(payload["index"]), out  # type: ignore[arg-type]


def _state_fields(
    uncovered: Iterable[int],
    witnesses: Iterable[Tuple[int, int]],
    chosen: Iterable[int],
) -> Dict[str, object]:
    """The packed protocol state every hand-off carries.

    Takes a :data:`~repro.distributed.chain.StateSnapshot` (ascending
    uncovered array, ``(k, 2)`` witness array) as is, or plain
    iterables: an uncovered iterable is sorted here, witness pairs are
    packed in the order given.  A chosen key is charged at *two* words
    by :func:`~repro.distributed.chain.state_words` (keys may be
    composite in the abstract protocol), so it is encoded as two int64s
    here — the wire mirrors the accounting, keeping payload bytes ≥
    8 × words.
    """
    if not isinstance(uncovered, np.ndarray):
        uncovered = sorted(uncovered)
    return {
        "uncovered": pack_words(uncovered),
        "witnesses": pack_words(witnesses),
        "chosen": pack_words([(0, key) for key in chosen]),
    }


def handoff_wire(
    hop: int,
    uncovered: Iterable[int],
    witnesses: Iterable[Tuple[int, int]],
    chosen: Iterable[int],
) -> Dict[str, object]:
    """One chain hand-off: the forwarded protocol state after ``hop``."""
    return {
        "kind": "handoff",
        "hop": hop,
        **_state_fields(uncovered, witnesses, chosen),
    }


def tree_handoff_wire(
    round_index: int,
    src: int,
    dst: int,
    uncovered: Iterable[int],
    witnesses: Iterable[Tuple[int, int]],
    chosen: Iterable[int],
) -> Dict[str, object]:
    """One tournament hand-off: a subtree's state shipped to its peer,
    with the tree position (``round``, ``src``, ``dst``) in place of the
    chain's ``hop``."""
    return {
        "kind": "tree-handoff",
        "round": round_index,
        "src": src,
        "dst": dst,
        **_state_fields(uncovered, witnesses, chosen),
    }


def handoff_words(payload: Mapping[str, object]) -> int:
    """Recompute a hand-off's word count from its wire form.

    Equals :func:`~repro.distributed.chain.state_words` of the state
    that built the payload — works on chain (:func:`handoff_wire`) and
    tree (:func:`tree_handoff_wire`) hand-offs alike, since both pack
    the same three state fields.  The coordinators assert this against
    the words they charged, an end-to-end integrity check that the
    bytes delivered really are the state forwarded.
    """
    return (
        len(payload["uncovered"])  # type: ignore[arg-type]
        + len(payload["witnesses"])  # type: ignore[arg-type]
        + len(payload["chosen"])  # type: ignore[arg-type]
    ) // WORD_BYTES


# -- transport report -------------------------------------------------------


@dataclass(frozen=True)
class TransportReport:
    """What one merge's messages physically put on the wire.

    Operational metadata: attached to
    :attr:`DistributedResult.transport <repro.distributed.executor.DistributedResult>`
    but excluded from result equality — the transport must never change
    what is computed, only measure how it moved.  ``total_bytes`` counts
    every transmitted frame including retransmitted ones;
    ``payload_bytes`` is the codec output alone, so
    ``total_bytes - payload_bytes`` is pure framing overhead.
    """

    transport: str
    codec: str
    total_bytes: int
    total_frames: int
    payload_bytes: int
    retransmits: int
    metered_words: int
    per_link_bytes: Dict[str, int] = field(default_factory=dict)
    per_link_frames: Dict[str, int] = field(default_factory=dict)
    per_link_retransmits: Dict[str, int] = field(default_factory=dict)
    diagnostics: Dict[str, float] = field(default_factory=dict)

    @property
    def overhead_ratio(self) -> float:
        """Measured wire bytes over the int64 size of the metered words.

        ≥ 1.0 by construction of the wire format: every metered word
        travels as at least one int64 plus framing/codec structure.
        """
        if self.metered_words <= 0:
            return 0.0
        return self.total_bytes / (WORD_BYTES * self.metered_words)

    def link_bytes(self, src: str, dst: str) -> int:
        """Wire bytes carried on the ``src->dst`` link (0 if unused)."""
        return self.per_link_bytes.get(link_label(src, dst), 0)

    def link_frames(self, src: str, dst: str) -> int:
        """Frames carried on the ``src->dst`` link (0 if unused)."""
        return self.per_link_frames.get(link_label(src, dst), 0)


# -- transports -------------------------------------------------------------


class Transport:
    """Interface: move one coordinator message as real bytes.

    :meth:`send` encodes ``payload`` with the transport's codec, moves
    the frame through the medium, and returns the *delivered* payload —
    coordinators consume the return value, so the wire sits on the data
    path, not beside it.  Accounting (bytes, frames, retransmits per
    link) accumulates on the transport; :meth:`report` snapshots it.
    """

    name = "abstract"

    def __init__(self) -> None:
        self.codec = make_codec()
        self._per_link_bytes: Dict[str, int] = {}
        self._per_link_frames: Dict[str, int] = {}
        self._per_link_retransmits: Dict[str, int] = {}
        self._total_bytes = 0
        self._total_frames = 0
        self._payload_bytes = 0
        self._retransmits = 0

    # -- accounting ------------------------------------------------------

    def _record(
        self, link: str, frame_bytes: int, retransmit: bool = False
    ) -> None:
        """Charge one transmitted frame (retransmissions included)."""
        self._per_link_bytes[link] = (
            self._per_link_bytes.get(link, 0) + frame_bytes
        )
        self._per_link_frames[link] = self._per_link_frames.get(link, 0) + 1
        self._total_bytes += frame_bytes
        self._total_frames += 1
        self._payload_bytes += frame_bytes - _HEADER.size
        if retransmit:
            self._per_link_retransmits[link] = (
                self._per_link_retransmits.get(link, 0) + 1
            )
            self._retransmits += 1

    def _diagnostics(self) -> Dict[str, float]:
        """Transport-specific report diagnostics; override to extend."""
        return {}

    def report(self, metered_words: int = 0) -> TransportReport:
        """Snapshot the wire accounting (pair with the comm report)."""
        return TransportReport(
            transport=self.name,
            codec=self.codec.name,
            total_bytes=self._total_bytes,
            total_frames=self._total_frames,
            payload_bytes=self._payload_bytes,
            retransmits=self._retransmits,
            metered_words=metered_words,
            per_link_bytes=dict(self._per_link_bytes),
            per_link_frames=dict(self._per_link_frames),
            per_link_retransmits=dict(self._per_link_retransmits),
            diagnostics=self._diagnostics(),
        )

    # -- lifecycle -------------------------------------------------------

    def send(self, src: str, dst: str, kind: str, payload: object) -> object:
        raise NotImplementedError

    def close(self) -> None:
        """Release any sockets/threads; idempotent."""

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(codec={self.codec.name!r})"


class InprocTransport(Transport):
    """Zero-copy delivery with measured framing — the default.

    The payload is framed once so the report carries the exact bytes a
    wire transport would have moved, then delivered *by reference*: no
    decode, no copy, today's in-process behaviour byte for byte.
    """

    name = "inproc"

    def send(self, src: str, dst: str, kind: str, payload: object) -> object:
        frame = encode_frame(self.codec, payload)
        self._record(link_label(src, dst), len(frame))
        return payload


class LoopbackTransport(Transport):
    """In-memory channel on its own logical clock.

    Every frame is delivered after its configured link delay plus seeded
    jitter, then decoded.  One frame is in flight at a time, so each
    delivery idles the clock through the delay and spends one step
    landing: ``idle_ticks += delay`` and ``clock += delay + 1`` — the
    reading an :class:`~repro.distributed.asyncsim.AsyncScheduler`
    draining a single message gives, in the async simulator's units.
    Fault injection: links named in ``partitioned`` drop every frame,
    and ``drop_rate`` drops each transmission independently (seeded) —
    both retransmit up to ``max_retries`` extra times before raising
    :class:`~repro.errors.TransportPartitionError`.  Dropped frames
    still count toward bytes/frames: a real NIC transmits them too.
    Delays, ``jitter`` and ``max_retries`` must be non-bool ints ``>= 0``.
    """

    name = "loopback"

    def __init__(
        self,
        seed: SeedLike = 0,
        link_delays: Optional[Mapping[str, int]] = None,
        default_delay: int = 1,
        jitter: int = 0,
        drop_rate: float = 0.0,
        partitioned: Sequence[str] = (),
        max_retries: int = 3,
    ) -> None:
        super().__init__()
        check_count("jitter", jitter, minimum=0)
        if not 0.0 <= drop_rate < 1.0:
            raise InvalidParameterError(
                "drop_rate", drop_rate, "must be in [0, 1)"
            )
        check_count("max_retries", max_retries, minimum=0)
        self.link_delays = check_link_delays(link_delays, default_delay)
        self.default_delay = default_delay
        self._rng = make_rng(seed)
        self.jitter = jitter
        self.drop_rate = drop_rate
        self.partitioned = frozenset(partitioned)
        self.max_retries = max_retries
        #: Logical steps after the frames so far.
        self.clock = 0
        #: Steps the clock spent waiting out link delays.
        self.idle_ticks = 0

    def send(self, src: str, dst: str, kind: str, payload: object) -> object:
        frame = encode_frame(self.codec, payload)
        link = link_label(src, dst)
        for attempt in range(self.max_retries + 1):
            self._record(link, len(frame), retransmit=attempt > 0)
            dropped = link in self.partitioned or (
                self.drop_rate > 0.0 and self._rng.random() < self.drop_rate
            )
            if dropped:
                continue
            delay = self.link_delays.get(link, self.default_delay)
            if self.jitter:
                delay += self._rng.randrange(self.jitter + 1)
            self.idle_ticks += delay
            self.clock += delay + 1
            return decode_frame(frame)
        raise TransportPartitionError(link, self.max_retries + 1)

    def _diagnostics(self) -> Dict[str, float]:
        return {
            "logical_clock": float(self.clock),
            "idle_ticks": float(self.idle_ticks),
        }


def _recv_exactly(conn: socket_module.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes or raise ``ConnectionError``."""
    chunks: List[bytes] = []
    remaining = count
    while remaining:
        chunk = conn.recv(remaining)
        if not chunk:
            raise ConnectionError("peer closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class SocketTransport(Transport):
    """Real TCP over localhost with length-prefixed frames.

    One listening socket per transport (bound eagerly, so a sandbox
    that forbids binding fails fast with a typed
    :class:`~repro.errors.TransportError` callers can treat as a
    skip); one cached client connection per link; a background
    acceptor thread spawns a reader per connection that decodes frames
    and hands them back through a queue.  Sends are serialized under a
    lock — coordinator merges are sequential, and the lock keeps the
    request/response pairing trivially correct if they ever are not.
    A send that hits a connection error reconnects and retransmits up
    to ``max_retries`` extra times.  ``max_retries`` must be a non-bool
    int ``>= 0`` and ``timeout`` a finite non-bool real ``> 0``; both
    are checked before the listener binds.
    """

    name = "socket"

    def __init__(
        self,
        host: str = "127.0.0.1",
        timeout: float = 10.0,
        max_retries: int = 2,
    ) -> None:
        super().__init__()
        check_count("max_retries", max_retries, minimum=0)
        if (
            isinstance(timeout, bool)
            or not isinstance(timeout, numbers.Real)
            or not 0 < timeout < math.inf
        ):
            raise InvalidParameterError(
                "timeout", timeout, "must be a finite real > 0"
            )
        self.host = host
        self.timeout = timeout
        self.max_retries = max_retries
        self._closed = False
        self._clients: Dict[str, socket_module.socket] = {}
        self._received: "queue.Queue[object]" = queue.Queue()
        self._lock = threading.Lock()
        try:
            server = socket_module.socket(
                socket_module.AF_INET, socket_module.SOCK_STREAM
            )
            server.bind((host, 0))
            server.listen(16)
        except OSError as exc:
            raise TransportError(
                f"socket transport cannot bind on {host}: {exc}"
            ) from exc
        self._server = server
        self.port = server.getsockname()[1]
        self._acceptor = threading.Thread(
            target=self._accept_loop, name="repro-transport-accept", daemon=True
        )
        self._acceptor.start()

    # -- receive side ----------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn, _ = self._server.accept()
            except OSError:
                return  # closed
            reader = threading.Thread(
                target=self._read_loop,
                args=(conn,),
                name="repro-transport-read",
                daemon=True,
            )
            reader.start()

    def _read_loop(self, conn: socket_module.socket) -> None:
        try:
            while True:
                header = _recv_exactly(conn, FRAME_HEADER_SIZE)
                _, length = parse_frame_header(header)
                body = _recv_exactly(conn, length)
                self._received.put(decode_frame(header + body))
        except (TransportError, ConnectionError, OSError):
            pass  # malformed or torn connection; drop it
        finally:
            conn.close()

    # -- send side -------------------------------------------------------

    def _client_for(self, link: str) -> socket_module.socket:
        client = self._clients.get(link)
        if client is None:
            client = socket_module.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            self._clients[link] = client
        return client

    def send(self, src: str, dst: str, kind: str, payload: object) -> object:
        if self._closed:
            raise TransportError("socket transport is closed")
        frame = encode_frame(self.codec, payload)
        link = link_label(src, dst)
        with self._lock:
            for attempt in range(self.max_retries + 1):
                try:
                    client = self._client_for(link)
                    client.sendall(frame)
                    self._record(link, len(frame), retransmit=attempt > 0)
                    return self._received.get(timeout=self.timeout)
                except (ConnectionError, OSError, queue.Empty):
                    stale = self._clients.pop(link, None)
                    if stale is not None:
                        stale.close()
        raise TransportPartitionError(link, self.max_retries + 1)

    def _diagnostics(self) -> Dict[str, float]:
        return {"port": float(self.port)}

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for client in self._clients.values():
            try:
                client.close()
            except OSError:  # pragma: no cover - best-effort teardown
                pass
        self._clients.clear()
        try:
            self._server.close()
        except OSError:  # pragma: no cover - best-effort teardown
            pass


#: Public name -> transport class.
TRANSPORT_REGISTRY: Dict[str, Type[Transport]] = {
    "inproc": InprocTransport,
    "loopback": LoopbackTransport,
    "socket": SocketTransport,
}


def registered_transports() -> List[str]:
    """Registry names in deterministic (sorted) order."""
    return sorted(TRANSPORT_REGISTRY)


def make_transport(
    name: str,
    seed: SeedLike = 0,
    **options: object,
) -> Transport:
    """Construct a registered transport by name.

    ``seed`` feeds the loopback transport's jitter/drop RNG and is
    ignored by the deterministic transports; extra keyword options go
    to the transport constructor (e.g. ``drop_rate`` for loopback).
    """
    try:
        cls = TRANSPORT_REGISTRY[name]
    except KeyError:
        known = ", ".join(registered_transports())
        raise InvalidParameterError(
            "transport", name, f"known transports: {known}"
        ) from None
    if cls is LoopbackTransport:
        return LoopbackTransport(seed=seed, **options)  # type: ignore[arg-type]
    return cls(**options)  # type: ignore[arg-type]
