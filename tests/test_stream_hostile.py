"""Tests for streams whose declared length lies, is zero, or is negative."""

from __future__ import annotations

import pytest

from repro.core.random_order import RandomOrderAlgorithm, StreamLengthOblivious
from repro.errors import InvalidCoverError, InvalidStreamError
from repro.faults import FaultSpec, inject
from repro.streaming.instance import SetCoverInstance
from repro.streaming.stream import EdgeStream, stream_of
from repro.types import Edge

ALGORITHMS = (RandomOrderAlgorithm, StreamLengthOblivious)


def records(columns):
    """The ``Edge`` records of a ``take_columns`` chunk."""
    set_ids, elements = columns
    return tuple(map(Edge, set_ids.tolist(), elements.tolist()))


@pytest.fixture
def edges(chain_instance):
    return tuple(chain_instance.edges())


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

    @pytest.mark.parametrize("algorithm", ALGORITHMS, ids=lambda cls: cls.name)
    def test_empty_stream_names_the_missing_element(self, algorithm):
        # N = 0 must not reach a division; the pass ends where kk's
        # does, in the typed error for an element that never arrived.
        instance = SetCoverInstance(2, [[0, 1]])
        with pytest.raises(InvalidCoverError, match="element 0 never appeared"):
            algorithm(seed=1).run(EdgeStream(instance, []))

    @pytest.mark.parametrize("algorithm", ALGORITHMS, ids=lambda cls: cls.name)
    def test_zero_declared_length_still_covers(self, algorithm):
        instance = SetCoverInstance(2, [[0, 1]])
        stream = EdgeStream(instance, [(0, 0), (0, 1)], declared_length=0)
        result = algorithm(seed=1).run(stream)
        assert result.is_valid(instance)
