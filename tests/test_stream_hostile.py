"""Tests for checkpoint/restore against truncated and length-lying buffers."""

from __future__ import annotations

import pytest

from repro.errors import InvalidStreamError
from repro.faults import FaultSpec, inject
from repro.streaming.stream import (
    EdgeStream,
    FrozenEdges,
    StreamCheckpoint,
    stream_of,
)
from repro.types import Edge


def records(columns):
    """The ``Edge`` records of a ``take_columns`` chunk."""
    set_ids, elements = columns
    return tuple(map(Edge, set_ids.tolist(), elements.tolist()))


@pytest.fixture
def edges(chain_instance):
    return tuple(chain_instance.edges())


@pytest.fixture
def frozen(edges):
    return FrozenEdges(edges)


class TestCheckpointRoundTrip:
    def test_resume_continues_where_left_off(self, chain_instance, frozen, edges):
        first_view = EdgeStream(chain_instance, frozen)
        reader = first_view.reader()
        consumed = records(reader.take_columns(3))
        checkpoint = reader.checkpoint()
        assert consumed == edges[:3]
        assert checkpoint.position == 3

        second_view = EdgeStream(chain_instance, frozen)
        resumed = second_view.reader(resume_from=checkpoint)
        assert records(resumed.take_rest_columns()) == edges[3:]

    def test_checkpoint_at_stream_end(self, chain_instance, frozen, edges):
        view = EdgeStream(chain_instance, frozen)
        reader = view.reader()
        reader.take_rest_columns()
        checkpoint = reader.checkpoint()
        fresh = EdgeStream(chain_instance, frozen)
        resumed = fresh.reader(resume_from=checkpoint)
        assert records(resumed.take_rest_columns()) == ()

    def test_resume_preserves_one_pass_discipline(
        self, chain_instance, frozen
    ):
        view = EdgeStream(chain_instance, frozen)
        checkpoint = view.reader().checkpoint()
        fresh = EdgeStream(chain_instance, frozen)
        fresh.reader(resume_from=checkpoint)
        from repro.errors import StreamExhaustedError

        with pytest.raises(StreamExhaustedError):
            fresh.reader(resume_from=checkpoint)


class TestHostileRestore:
    def test_truncated_buffer_rejected(self, chain_instance, frozen, edges):
        reader = EdgeStream(chain_instance, frozen).reader()
        reader.take_columns(3)
        checkpoint = reader.checkpoint()
        truncated = EdgeStream(chain_instance, edges[:-2])
        with pytest.raises(InvalidStreamError, match="truncated or extended"):
            truncated.reader(resume_from=checkpoint)

    def test_extended_buffer_rejected(self, chain_instance, frozen, edges):
        checkpoint = EdgeStream(chain_instance, frozen).reader().checkpoint()
        extended = EdgeStream(chain_instance, edges + edges[:1])
        with pytest.raises(InvalidStreamError, match="truncated or extended"):
            extended.reader(resume_from=checkpoint)

    def test_length_lying_stream_rejected(self, chain_instance, frozen, edges):
        checkpoint = EdgeStream(chain_instance, frozen).reader().checkpoint()
        liar = EdgeStream(
            chain_instance, edges, declared_length=len(edges) + 5
        )
        with pytest.raises(InvalidStreamError, match="length-lying"):
            liar.reader(resume_from=checkpoint)

    def test_declared_length_mismatch_rejected(self, chain_instance, edges):
        checkpoint = StreamCheckpoint(
            position=0,
            buffer_length=len(edges),
            declared_length=len(edges) + 1,
        )
        honest = EdgeStream(chain_instance, edges)
        with pytest.raises(InvalidStreamError, match="declared"):
            honest.reader(resume_from=checkpoint)

    def test_position_out_of_range_rejected(self, chain_instance, edges):
        checkpoint = StreamCheckpoint(
            position=len(edges) + 1,
            buffer_length=len(edges),
            declared_length=len(edges),
        )
        honest = EdgeStream(chain_instance, edges)
        with pytest.raises(InvalidStreamError, match="position"):
            honest.reader(resume_from=checkpoint)


class TestDeclaredLength:
    def test_negative_declared_length_rejected(self, chain_instance, edges):
        with pytest.raises(InvalidStreamError, match="declared_length"):
            EdgeStream(chain_instance, edges, declared_length=-1)

    def test_length_lies_actual_length_does_not(self, chain_instance, edges):
        liar = EdgeStream(
            chain_instance, edges, declared_length=len(edges) + 7
        )
        assert liar.length == len(edges) + 7
        assert liar.actual_length == len(edges)

    def test_consumption_terminates_at_the_truth(self, chain_instance, edges):
        # Readers pace themselves on the buffer, not the declaration:
        # a lying stream must not hang a loop driven by `remaining`.
        liar = EdgeStream(
            chain_instance, edges, declared_length=len(edges) + 7
        )
        reader = liar.reader()
        taken = []
        while reader.remaining:
            chunk = records(reader.take_columns(4))
            if not chunk:
                break
            taken.extend(chunk)
        assert tuple(taken) == edges

    def test_injected_lie_is_detectable(self, chain_instance):
        faulty = inject(
            stream_of(chain_instance), [FaultSpec("lie-length", 0.5, seed=2)]
        )
        assert faulty.length > faulty.actual_length
        assert faulty.injection.lies_about_length
        checkpoint = faulty.reader().checkpoint()
        # A checkpoint taken on the lying stream refuses to restore onto
        # it: declared and actual disagree, so positions are unreliable.
        replay = EdgeStream(
            chain_instance,
            faulty.peek_all(),
            declared_length=faulty.length,
        )
        with pytest.raises(InvalidStreamError):
            replay.reader(resume_from=checkpoint)
