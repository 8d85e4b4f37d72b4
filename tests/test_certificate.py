"""``Certificate``, the column-backed witness map, and the paths built on it.

* the Mapping contract against a dict built item by item (Hypothesis);
* the union merge of shard columns against a ``setdefault`` oracle;
* a KK pass stopped by its budget salvages the certificate the scalar
  reference salvages;
* :class:`TestRunPathsBuildNoDict` fails if a distributed run path looks
  a certificate up by key, which would build the dict behind it.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kk_reference import KKReferenceAlgorithm

from repro.core.kk import _CHUNK, KKAlgorithm
from repro.core.scaling import Scaling
from repro.core.solution import Certificate, CertificateBuilder
from repro.distributed import run_distributed
from repro.distributed.asyncsim import run_distributed_async
from repro.distributed.chain import SetRows
from repro.distributed.comm import CommMeter
from repro.distributed.coordinator import UnionCoordinator
from repro.distributed.transport import InprocTransport
from repro.distributed.worker import ShardOutput
from repro.errors import InvalidCoverError, SpaceBudgetExceededError
from repro.generators.planted import planted_partition_instance
from repro.obs.tracer import NULL_TRACER
from repro.streaming.instance import SetCoverInstance
from repro.streaming.orders import RandomOrder
from repro.streaming.space import SpaceBudget
from repro.streaming.stream import EdgeStream

INT64 = st.integers(-(2**63), 2**63 - 1)

#: ``(element, witness)`` pairs with distinct elements, in drawn order.
PAIRS = st.lists(st.tuples(INT64, INT64), max_size=40, unique_by=lambda p: p[0])


def _certificate(pairs):
    return Certificate([u for u, _ in pairs], [s for _, s in pairs])


class TestMappingContract:
    @settings(max_examples=200, deadline=None)
    @given(pairs=PAIRS, probe=INT64, data=st.data())
    def test_matches_a_dict(self, pairs, probe, data):
        expected = {}
        for u, s in pairs:
            expected[u] = s
        certificate = _certificate(pairs)
        assert list(certificate.items()) == list(expected.items())
        assert list(certificate) == list(expected)
        assert list(certificate.values()) == list(expected.values())
        assert len(certificate) == len(expected)
        for u, s in pairs:
            assert u in certificate
            assert certificate[u] == s and certificate.get(u) == s
        if probe not in expected:
            assert probe not in certificate
            assert certificate.get(probe) is None
            assert certificate.get(probe, "none") == "none"
            with pytest.raises(KeyError):
                certificate[probe]
        assert certificate == expected and expected == certificate
        assert not certificate != expected and not expected != certificate
        shuffled = data.draw(st.permutations(pairs))
        assert _certificate(shuffled) == certificate
        assert certificate == dict(shuffled)

        other = dict(expected)
        if pairs and data.draw(st.booleans()):
            u, s = pairs[data.draw(st.integers(0, len(pairs) - 1))]
            other[u] = s + 1 if s < 2**63 - 1 else s - 1
        else:
            other[next(u for u in itertools.count() if u not in expected)] = 0
        assert certificate != other and other != certificate
        assert not certificate == other and not other == certificate
        assert _certificate(list(other.items())) != certificate

        restored = pickle.loads(pickle.dumps(certificate))
        assert type(restored) is Certificate
        assert list(restored.items()) == list(expected.items())
        assert restored == certificate

    def test_columns_are_read_only(self):
        certificate = Certificate([3, 1], [7, 9])
        elements, witnesses = certificate.columns()
        with pytest.raises(ValueError):
            elements[0] = 0
        with pytest.raises(ValueError):
            witnesses[0] = 0
        restored = pickle.loads(pickle.dumps(certificate))
        with pytest.raises(ValueError):
            restored.columns()[0][0] = 0

    def test_not_equal_to_other_types(self):
        certificate = Certificate([0], [1])
        assert certificate != [(0, 1)]
        assert certificate != {(0, 1)}

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError):
            Certificate([1, 2], [3])

    def test_builder_writes_in_order(self):
        builder = CertificateBuilder(5)
        builder.add(4, 0)
        builder.extend(np.array([2, 0]), np.array([1, 1]))
        assert len(builder) == 3
        assert builder.elements.tolist() == [4, 2, 0]
        assert list(builder.build().items()) == [(4, 0), (2, 1), (0, 1)]


@st.composite
def shard_certificates(draw):
    n = draw(st.integers(1, 30))
    shards = draw(
        st.lists(
            st.dictionaries(st.integers(0, n - 1), st.integers(0, 9), max_size=n),
            min_size=1,
            max_size=5,
        )
    )
    return n, shards


class TestUnionMerge:
    @settings(max_examples=150, deadline=None)
    @given(case=shard_certificates(), columns=st.booleans())
    def test_first_shard_wins_as_setdefault_does(self, case, columns):
        n, shards = case
        instance = SetCoverInstance(n, [set(range(n))] * 10)
        outputs = [
            ShardOutput(
                index=index,
                cover=frozenset(certificate.values()),
                certificate=(
                    _certificate(list(certificate.items()))
                    if columns
                    else certificate
                ),
                rows=SetRows.from_mapping({}),
            )
            for index, certificate in enumerate(shards)
        ]
        expected = {}
        for certificate in shards:
            for u, s in sorted(certificate.items()):
                expected.setdefault(u, s)
        outcome = UnionCoordinator().merge(
            instance,
            outputs,
            CommMeter(),
            NULL_TRACER,
            InprocTransport(),
            allow_partial=True,
        )
        assert list(outcome.certificate.items()) == list(expected.items())
        assert outcome.uncovered == tuple(
            u for u in range(n) if u not in expected
        )
        assert outcome.cover == tuple(
            sorted(set().union(*(c.values() for c in shards)))
        )


class TestBudgetSalvage:
    def test_kk_partial_certificate_matches_reference(self):
        # The first chunk repeats 180 edges over elements 0..59; the
        # rest brings 2,000 new elements.  A budget one word above the
        # words held after the first chunk breaks the pass as the
        # first-set store records the second chunk, before any of its
        # edges is processed, at the same point in kernel and reference.
        early = [(s, (3 * s + t) % 60) for s in range(30) for t in range(6)]
        late = [(30 + j, 60 + 10 * j + t) for j in range(200) for t in range(10)]
        edges = (early * (_CHUNK // len(early) + 1))[:_CHUNK] + late
        members = [set() for _ in range(230)]
        for s, u in edges:
            members[s].add(u)
        instance = SetCoverInstance(2060, members)
        scaling = dataclasses.replace(
            Scaling.practical(),
            kk_level_width_factor=2.5 / math.sqrt(instance.n),
            sample_constant=0.05,
        )
        with pytest.raises(InvalidCoverError) as first_chunk:
            KKAlgorithm(scaling=scaling, seed=1).run(
                EdgeStream(instance, edges[:_CHUNK])
            )
        budget = SpaceBudget(words=first_chunk.value.partial.meter_peak + 1)
        partials = []
        for cls in (KKAlgorithm, KKReferenceAlgorithm):
            with pytest.raises(SpaceBudgetExceededError) as caught:
                cls(scaling=scaling, seed=1, space_budget=budget).run(
                    EdgeStream(instance, edges)
                )
            partials.append(caught.value.partial)
        fast, reference = partials
        assert isinstance(fast.certificate, Certificate)
        assert len(fast.certificate) > 0
        assert list(fast.certificate.items()) == list(reference.certificate.items())
        assert fast.certificate == reference.certificate
        assert fast.cover == reference.cover


@pytest.fixture
def no_lookup(monkeypatch):
    """Fail the test if anything builds a certificate's lookup dict."""

    def forbidden(self):
        raise AssertionError("the run path looked a certificate up by key")

    monkeypatch.setattr(Certificate, "_lookup", forbidden)


@pytest.fixture(scope="module")
def planted():
    return planted_partition_instance(80, 60, opt_size=6, seed=3).instance


class TestRunPathsBuildNoDict:
    @pytest.mark.parametrize("coordinator", ["chain", "tree", "greedy", "union"])
    def test_run_distributed(self, planted, no_lookup, coordinator):
        result = run_distributed(
            planted, 4, coordinator=coordinator, order=RandomOrder(seed=5), seed=6
        )
        result.verify(planted)

    @pytest.mark.parametrize("coordinator", ["chain", "tree"])
    def test_async_over_loopback(self, planted, no_lookup, coordinator):
        result = run_distributed_async(
            planted,
            4,
            coordinator=coordinator,
            adaptive_threshold=True,
            transport="loopback",
            order=RandomOrder(seed=5),
            seed=6,
        )
        result.verify(planted)
        assert isinstance(result.certificate, Certificate)
