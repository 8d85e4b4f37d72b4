"""Tests for StreamingResult and certificate helpers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.solution import (
    StreamingResult,
    certificate_from_cover,
    verify_certificate,
)
from repro.errors import InvalidCoverError
from repro.streaming.instance import SetCoverInstance
from repro.streaming.space import SpaceMeter


def make_result(cover, certificate, algorithm="test"):
    return StreamingResult(
        cover=frozenset(cover),
        certificate=dict(certificate),
        space=SpaceMeter().report(),
        algorithm=algorithm,
    )


class TestVerify:
    def test_valid_result(self, tiny_instance):
        result = make_result({0, 2}, {0: 0, 1: 0, 2: 2, 3: 2})
        result.verify(tiny_instance)
        assert result.is_valid(tiny_instance)

    def test_missing_witness(self, tiny_instance):
        result = make_result({0, 2}, {0: 0, 1: 0, 2: 2})
        with pytest.raises(InvalidCoverError):
            result.verify(tiny_instance)
        assert not result.is_valid(tiny_instance)

    def test_witness_not_in_cover(self, tiny_instance):
        result = make_result({0}, {0: 0, 1: 0, 2: 2, 3: 2})
        with pytest.raises(InvalidCoverError):
            result.verify(tiny_instance)

    def test_witness_not_containing(self, tiny_instance):
        result = make_result({0, 2}, {0: 2, 1: 0, 2: 2, 3: 2})
        with pytest.raises(InvalidCoverError):
            result.verify(tiny_instance)

    def test_negative_witness_fails(self, tiny_instance):
        # Set id -1 is not set 2, even though set 2 holds elements 2, 3.
        result = make_result({0, -1}, {0: 0, 1: 0, 2: -1, 3: -1})
        with pytest.raises(InvalidCoverError, match="witness -1 for element 2 is not a set id"):
            result.verify(tiny_instance)
        assert not result.is_valid(tiny_instance)

    def test_witness_beyond_m_is_an_invalid_cover(self, tiny_instance):
        result = make_result({0, 2, 7}, {0: 0, 1: 0, 2: 2, 3: 7})
        with pytest.raises(InvalidCoverError, match="witness 7 for element 3"):
            result.verify(tiny_instance)
        assert not result.is_valid(tiny_instance)


def _scalar_verify(instance, cover, certificate, label, uncovered=None):
    """The per-element check, element by element: the message oracle."""
    for u in range(instance.n):
        if u not in certificate:
            if uncovered is None:
                raise InvalidCoverError(f"{label}: element {u} has no witness")
            if u in uncovered:
                continue
            raise InvalidCoverError(
                f"{label}: element {u} has no witness and is not "
                "reported uncovered"
            )
        witness = certificate[u]
        if witness not in cover:
            raise InvalidCoverError(
                f"{label}: witness {witness} for element {u} is not in "
                "the reported cover"
            )
        if not 0 <= witness < instance.m:
            raise InvalidCoverError(
                f"{label}: witness {witness} for element {u} is not a set id "
                f"in range(0, {instance.m})"
            )
        if not instance.contains(witness, u):
            raise InvalidCoverError(
                f"{label}: set {witness} does not contain element {u}"
            )


def _outcome(check, *args):
    try:
        check(*args)
    except InvalidCoverError as error:
        return str(error)
    return None


class TestVerifyMatchesElementByElement:
    """The column check names the same first failure as the scalar loop."""

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 12),
        m=st.integers(1, 6),
        relaxed=st.booleans(),
    )
    def test_same_outcome(self, data, n, m, relaxed):
        sets = data.draw(
            st.lists(st.frozensets(st.integers(0, n - 1)), min_size=m, max_size=m)
        )
        instance = SetCoverInstance(n, sets)
        ids = st.integers(-2, m + 1)
        certificate = data.draw(
            st.dictionaries(st.integers(-1, n + 1), ids, max_size=n + 2)
        )
        # Mostly honest certificates, so the grid reaches every check.
        for u in range(n):
            holders = [s for s in range(m) if u in sets[s]]
            if holders and data.draw(st.booleans()):
                certificate[u] = data.draw(st.sampled_from(holders))
        cover = frozenset(certificate.values()) - data.draw(st.frozensets(ids))
        cover |= data.draw(st.frozensets(ids))
        uncovered = data.draw(st.frozensets(st.integers(-1, n))) if relaxed else None
        args = (instance, cover, certificate, "grid", uncovered)
        assert _outcome(verify_certificate, *args) == _outcome(_scalar_verify, *args)


class TestMetrics:
    def test_cover_size(self):
        assert make_result({1, 5, 9}, {}).cover_size == 3

    def test_ratio(self):
        result = make_result({1, 2, 3, 4}, {})
        assert result.approximation_ratio(2) == 2.0

    def test_ratio_rejects_bad_opt(self):
        with pytest.raises(ValueError):
            make_result({1}, {}).approximation_ratio(0)

    def test_covered_elements(self, tiny_instance):
        result = make_result({0}, {})
        assert result.covered_elements(tiny_instance) == {0, 1}


class TestCertificateFromCover:
    def test_builds_total_certificate(self, tiny_instance):
        certificate = certificate_from_cover(tiny_instance, frozenset({0, 2}))
        verify_certificate(
            tiny_instance, set(certificate.values()), certificate, "greedy"
        )
        assert set(certificate) == set(range(4))

    def test_witnesses_in_cover(self, tiny_instance):
        certificate = certificate_from_cover(tiny_instance, frozenset({0, 2}))
        assert set(certificate.values()) <= {0, 2}

    def test_rejects_non_cover(self, tiny_instance):
        with pytest.raises(InvalidCoverError):
            certificate_from_cover(tiny_instance, frozenset({0, 1}))

    def test_overlap_prefers_lowest_id(self, tiny_instance):
        certificate = certificate_from_cover(
            tiny_instance, frozenset({0, 1, 2})
        )
        assert certificate[1] == 0  # sets 0 and 1 both contain element 1
