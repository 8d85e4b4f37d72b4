"""KK's inclusion-sized rescan windows on inclusion-dense streams.

After an inclusion the kernel sizes its next window to about
``1.5 / (p·ρ)`` edges, floored at ``_MIN_WINDOW`` and capped at
``_CHUNK``, and carries it across chunks; an inclusion-free window
doubles.  Window boundaries cannot change the output, so these cells
compare the kernel with the per-edge oracle ``tests/kk_reference.py``
(covers, certificates, diagnostics, space reports, trace JSONL) on
streams where every promotion is an inclusion (``p ≥ 1``) or nearly so,
with level widths of 1–3 and streams longer than one chunk: the
windows there sit on the floor and cross chunk starts.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kk_reference import KKReferenceAlgorithm

from repro.core import kk
from repro.core.base import FirstSetStore
from repro.core.kk import _CHUNK, _MIN_WINDOW, KKAlgorithm
from repro.core.scaling import Scaling
from repro.generators.random_instances import fixed_size_instance
from repro.obs.tracer import RecordingTracer
from repro.streaming.orders import RandomOrder
from repro.streaming.stream import ReplayableStream


def _scaling(n, width, sample_constant):
    """The practical preset with kk's level width pinned to ``width``."""
    scaling = dataclasses.replace(
        Scaling.practical(),
        kk_level_width_factor=(width + 0.5) / math.sqrt(n),
        sample_constant=sample_constant,
    )
    assert scaling.kk_level_width(n) == width
    return scaling


def _outcome(cls, stream, scaling, seed):
    algorithm = cls(scaling=scaling, seed=seed)
    algorithm.name = "kk"
    tracer = RecordingTracer()
    algorithm.set_tracer(tracer)
    result = algorithm.run(stream)
    tracer.finish()
    return result, tracer.to_jsonl()


def _assert_same_as_reference(instance, order, scaling, seed):
    replay = ReplayableStream(instance, order)
    fast, fast_trace = _outcome(KKAlgorithm, replay.fresh(), scaling, seed)
    ref, ref_trace = _outcome(KKReferenceAlgorithm, replay.fresh(), scaling, seed)
    assert fast == ref
    assert fast.space == ref.space
    assert fast.diagnostics == ref.diagnostics
    assert fast_trace == ref_trace
    return fast


class TestInclusionDenseGrid:
    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(min_value=300, max_value=800),
        width=st.integers(min_value=1, max_value=3),
        sample_constant=st.sampled_from([0.05, 0.3, 1e9]),
        instance_seed=st.integers(min_value=0, max_value=2**16),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_multi_chunk_streams(self, n, width, sample_constant, instance_seed, seed):
        instance = fixed_size_instance(n, 1400 + n, 12, seed=instance_seed)
        assert instance.num_edges > _CHUNK
        _assert_same_as_reference(
            instance,
            RandomOrder(seed=instance_seed + 1),
            _scaling(n, width, sample_constant),
            seed,
        )

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_every_promotion_an_inclusion_over_chunks(self, width):
        instance = fixed_size_instance(3000, 3000, 12, seed=width)
        result = _assert_same_as_reference(
            instance, RandomOrder(seed=width), _scaling(3000, width, 1e9), width
        )
        assert result.diagnostics["inclusion_events"] > 100


class TestWindowSchedule:
    """The floor and the carried window are reached, not only allowed."""

    def _schedule(self, monkeypatch, instance, order, scaling, seed):
        events = []
        count_nonzero = np.count_nonzero
        observe = FirstSetStore.observe_columns

        def counting(array, *args, **kwargs):
            # The kernel's dead-window test is its one count of a 1-d
            # boolean mask; it runs once per window.
            if array.dtype == bool and array.ndim == 1:
                events.append(("window", len(array)))
            return count_nonzero(array, *args, **kwargs)

        def observing(store, set_ids, elements):
            events.append(("chunk", len(elements)))
            return observe(store, set_ids, elements)

        monkeypatch.setattr(kk.np, "count_nonzero", counting)
        monkeypatch.setattr(FirstSetStore, "observe_columns", observing)
        stream = ReplayableStream(instance, order).fresh()
        KKAlgorithm(scaling=scaling, seed=seed).run(stream)
        monkeypatch.undo()
        return events

    def test_floor_and_carried_window(self, monkeypatch):
        instance = fixed_size_instance(3000, 3000, 12, seed=3)
        events = self._schedule(
            monkeypatch, instance, RandomOrder(seed=3), _scaling(3000, 2, 1e9), 3
        )
        windows = [size for kind, size in events if kind == "window"]
        assert _MIN_WINDOW in windows
        # A later chunk's first window is the one carried over, smaller
        # than the chunk: windows no longer restart at the chunk size.
        carried = [
            (events[i][1], events[i + 1][1])
            for i in range(1, len(events) - 1)
            if events[i][0] == "chunk" and events[i + 1][0] == "window"
        ]
        assert len(carried) >= 2
        assert any(window < chunk for chunk, window in carried)
