"""Identity of Algorithm 1's column pass against its per-edge oracle.

``RandomOrderAlgorithm`` finds the edges that change its state with
column masks and walks only special-set threshold crossings in Python;
the per-edge loop it was rewritten from is kept as the test oracle
``RandomOrderReferenceAlgorithm`` (``tests/random_order_reference.py``).
For every cell below the two must agree on everything a run shows:

* a finished run: cover, certificate items in order, the space report
  with its key order, diagnostics, every ``last_probe`` field, the
  trace JSONL and the final RNG state;
* a run stopped by its space budget: the error's type, ``used`` and
  ``budget``, its :class:`~repro.errors.PartialState` (certificate
  items in order), the probe, the trace and the RNG state;
* a run driven by :func:`run_partitioned_stream`: the messages too.

The cells cross the pass's boundaries: m = Θ(n²) instances, a
special-dense scaling whose Sol grows inside subepochs, tracking on and
off, budgets crossing in epoch 0, in a subepoch and in the remainder,
stream checkpoints inside every phase, a declared stream length wrong
in each direction, and the length-oblivious wrapper.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from random_order_reference import RandomOrderReferenceAlgorithm

import repro.core.random_order as random_order_module
from repro.core.random_order import RandomOrderAlgorithm, StreamLengthOblivious
from repro.core.scaling import Scaling
from repro.errors import SpaceBudgetExceededError
from repro.generators.random_instances import fixed_size_instance, quadratic_family
from repro.lowerbound.protocol import run_partitioned_stream
from repro.obs.tracer import RecordingTracer
from repro.streaming.orders import RandomOrder
from repro.streaming.space import SpaceBudget
from repro.streaming.stream import EdgeStream, ReplayableStream

IMPLEMENTATIONS = (RandomOrderAlgorithm, RandomOrderReferenceAlgorithm)


def special_dense(**overrides) -> Scaling:
    """The practical preset with many specials, Sol growing mid-subepoch.

    A small sample constant keeps epoch 0 from witnessing most
    elements, a half-size threshold makes batch sets special after one
    or two counting edges, and an unreachable mark count switches off
    epoch-0 marking, so the A(i) epochs do most of the work.
    """
    fields = dict(
        sample_constant=0.3,
        special_threshold_factor=0.5,
        mark_count_factor=50.0,
        min_tracking_mark=1.0,
    )
    fields.update(overrides)
    return Scaling.practical().with_overrides(**fields)


def _probe(algorithm):
    probe = algorithm.last_probe
    if probe is None:
        return None
    return (
        dataclasses.asdict(probe),
        list(probe.inclusion_positions.items()),
    )


def outcome(
    cls,
    instance,
    edges,
    seed,
    scaling=None,
    budget=None,
    declared_length=None,
    cuts=None,
    traced=True,
):
    """Everything one run of ``cls`` shows, as one comparable tuple."""
    rng = random.Random(seed)
    algorithm = cls(
        scaling=scaling,
        seed=rng,
        space_budget=None if budget is None else SpaceBudget(budget),
    )
    tracer = RecordingTracer() if traced else None
    algorithm.set_tracer(tracer)
    try:
        if cuts is None:
            stream = EdgeStream(
                instance, edges, order_name="fixed", declared_length=declared_length
            )
            result, messages = algorithm.run(stream), None
        else:
            bounds = [0, *cuts, len(edges)]
            parties = [edges[a:b] for a, b in zip(bounds, bounds[1:])]
            result, messages = run_partitioned_stream(algorithm, instance, parties)
    except SpaceBudgetExceededError as error:
        shown = (
            "raised",
            type(error),
            error.used,
            error.budget,
            error.partial,
            list(error.partial.certificate.items()),
        )
    else:
        space = result.space
        shown = (
            "ran",
            result.cover,
            list(result.certificate.items()),
            space,
            list(space.components_at_peak.items()),
            list(space.component_peaks.items()),
            result.diagnostics,
            result.algorithm,
            messages,
        )
    trace = tracer.to_jsonl() if traced else None
    return shown, _probe(algorithm), trace, rng.getstate()


def assert_same(instance, edges, seed, **options):
    """Both implementations show the same run; returns the kernel's."""
    shown = [outcome(cls, instance, edges, seed, **options) for cls in IMPLEMENTATIONS]
    kernel, reference = shown
    assert kernel[0] == reference[0]
    assert kernel[1] == reference[1]
    assert kernel[2] == reference[2]
    assert kernel[3] == reference[3]
    return kernel


def ordered_edges(instance, seed):
    return list(ReplayableStream(instance, RandomOrder(seed=seed)).edges())


def _phase_ends(instance, edges, scaling):
    """Stream positions where epoch 0 and the A(i) phases end."""
    algorithm = RandomOrderReferenceAlgorithm(scaling=scaling, seed=0)
    algorithm.run(EdgeStream(instance, edges))
    scaling = algorithm.scaling
    window = scaling.detection_window(instance.n, instance.m, len(edges))
    return window, algorithm.last_probe.stream_positions_consumed_by_phases


class TestGrid:
    @pytest.mark.parametrize("traced", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "shape", [(30, 900, 4), (40, 1600, 6), (50, 2500, 5)], ids=str
    )
    def test_quadratic_sets(self, shape, seed, traced):
        # m = n² sets: the regime Theorem 3's space bound is stated for.
        n, m, set_size = shape
        instance = fixed_size_instance(n, m, set_size, seed=seed)
        assert_same(instance, ordered_edges(instance, seed + 7), seed, traced=traced)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_quadratic_family(self, seed):
        instance = quadratic_family(40, density=0.5, seed=seed)
        assert_same(instance, ordered_edges(instance, seed), seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_solve_shape_scaled_down(self, seed):
        instance = fixed_size_instance(300, 3000, 30, seed=seed)
        assert_same(instance, ordered_edges(instance, seed), seed)

    @pytest.mark.parametrize("tracking", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "shape", [(60, 400, 8), (120, 1500, 10), (40, 800, 20)], ids=str
    )
    def test_special_dense(self, shape, seed, tracking):
        n, m, set_size = shape
        instance = fixed_size_instance(n, m, set_size, seed=seed)
        scaling = special_dense(enable_tracking=tracking)
        _, probe, _, _ = assert_same(
            instance, ordered_edges(instance, seed), seed, scaling=scaling
        )
        stats = probe[0]["epoch_stats"]
        assert sum(s["special_sets"] for s in stats) > 0

    def test_sol_grows_inside_subepochs(self):
        # Several inclusions, some inside one subepoch: the scan restarts
        # past each one and later Sol edges become witnesses.
        instance = fixed_size_instance(120, 1500, 10, seed=3)
        scaling = special_dense()
        _, probe, trace, _ = assert_same(
            instance, ordered_edges(instance, 3), 3, scaling=scaling
        )
        stats = probe[0]["epoch_stats"]
        assert sum(s["added_to_sol"] for s in stats) >= 5
        assert sum(s["tracked_edges"] for s in stats) > 0
        assert '"phase":"special"' in trace

    def test_tracking_marks(self):
        instance = fixed_size_instance(120, 1500, 10, seed=3)
        scaling = special_dense(sample_constant=0.02, min_tracking_mark=1.0)
        _, probe, _, _ = assert_same(
            instance, ordered_edges(instance, 3), 3, scaling=scaling
        )
        assert sum(s["marked_by_tracking"] for s in probe[0]["epoch_stats"]) > 0

    @pytest.mark.parametrize("factor", [0.25, 0.6, 2.0, 5.0])
    def test_declared_length_wrong(self, factor):
        # Loop sizing reads the declared N; the reader sees the true one.
        instance = fixed_size_instance(80, 900, 8, seed=5)
        edges = ordered_edges(instance, 5)
        for scaling in (None, special_dense()):
            assert_same(
                instance,
                edges,
                5,
                scaling=scaling,
                declared_length=int(factor * len(edges)),
            )

    def test_stream_shorter_than_the_phases(self):
        # Phases sized for 10x the edges exhaust the stream mid-epoch.
        instance = fixed_size_instance(60, 400, 8, seed=6)
        edges = ordered_edges(instance, 6)
        kernel = assert_same(
            instance, edges, 6, scaling=special_dense(), declared_length=10 * len(edges)
        )
        assert kernel[0][0] == "ran"


class TestBudgets:
    @pytest.mark.parametrize(
        "case",
        [
            ("default", 60, 400, 8, 1),
            ("dense", 120, 1500, 10, 3),
            ("dense", 60, 400, 8, 2),
        ],
        ids=str,
    )
    def test_every_budget_below_the_peak(self, case):
        # Budgets from one word to the peak: each run stops at the first
        # charge past it, wherever that charge is.
        kind, n, m, set_size, seed = case
        scaling = special_dense() if kind == "dense" else None
        instance = fixed_size_instance(n, m, set_size, seed=seed)
        edges = ordered_edges(instance, seed)
        window, phases_end = _phase_ends(instance, edges, scaling)
        peak = RandomOrderReferenceAlgorithm(scaling=scaling, seed=seed).run(
            EdgeStream(instance, edges)
        ).space.peak_words
        stopped = set()
        budgets = [*range(1, peak, max(1, peak // 250)), peak]
        for step, budget in enumerate(budgets):
            shown = assert_same(
                instance, edges, seed, scaling=scaling, budget=budget, traced=step % 2
            )[0]
            if shown[0] == "raised":
                consumed = shown[4].edges_consumed
                stopped.add(
                    "epoch0"
                    if consumed <= window
                    else "phases" if consumed <= phases_end else "remainder"
                )
        assert shown[0] == "ran"  # the peak itself fits
        assert {"epoch0", "phases"} <= stopped

    def test_budget_crossing_in_the_remainder(self):
        # Sparse sets, a short detection window and short phases leave
        # most witnesses to the remainder, where the certificate takes
        # the meter past everything before it.
        instance = fixed_size_instance(300, 1500, 2, seed=2)
        scaling = Scaling.practical().with_overrides(
            sample_constant=1.0, phase_budget_fraction=0.05
        )
        edges = ordered_edges(instance, 2)
        _, phases_end = _phase_ends(instance, edges, scaling)
        reference = RandomOrderReferenceAlgorithm(scaling=scaling, seed=2)
        full = reference.run(EdgeStream(instance, edges))
        witnessed = instance.n - full.diagnostics["patched_elements"]
        in_remainder = 0
        for budget in range(full.space.peak_words - 300, full.space.peak_words, 7):
            shown = assert_same(instance, edges, 2, scaling=scaling, budget=budget)[0]
            assert shown[0] == "raised"
            partial = shown[4]
            if (
                partial.edges_consumed > phases_end
                and len(partial.certificate) < witnessed
            ):
                in_remainder += 1
        assert in_remainder > 10


class TestCheckpoints:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("dense", [False, True])
    def test_cuts_in_every_phase(self, seed, dense):
        scaling = special_dense() if dense else None
        instance = fixed_size_instance(120, 1500, 10, seed=seed)
        edges = ordered_edges(instance, seed)
        window, phases_end = _phase_ends(instance, edges, scaling)
        cuts = sorted(
            {
                window // 3,
                window,
                window + 1,
                (window + phases_end) // 2,
                (window + phases_end) // 2 + 17,
                phases_end,
                (phases_end + len(edges)) // 2,
            }
        )
        shown = assert_same(instance, edges, seed, scaling=scaling, cuts=cuts)[0]
        assert len(shown[-1]) == len(cuts)

    def test_cuts_with_a_budget(self):
        instance = fixed_size_instance(120, 1500, 10, seed=2)
        edges = ordered_edges(instance, 2)
        scaling = special_dense()
        window, phases_end = _phase_ends(instance, edges, scaling)
        cuts = [window // 2, window + 5, (window + phases_end) // 2]
        peak = RandomOrderReferenceAlgorithm(scaling=scaling, seed=2).run(
            EdgeStream(instance, edges)
        ).space.peak_words
        for budget in (peak // 3, peak // 2, peak - 1):
            assert_same(instance, edges, 2, scaling=scaling, budget=budget, cuts=cuts)


class TestLengthOblivious:
    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("dense", [False, True])
    def test_wrapper_runs_the_same_inner_pass(self, seed, dense, monkeypatch):
        scaling = special_dense() if dense else None
        instance = fixed_size_instance(60, 400, 8, seed=seed)
        edges = ordered_edges(instance, seed)
        shown = []
        for inner in IMPLEMENTATIONS:
            monkeypatch.setattr(random_order_module, "RandomOrderAlgorithm", inner)
            rng = random.Random(seed)
            tracer = RecordingTracer()
            wrapper = StreamLengthOblivious(scaling=scaling, seed=rng)
            wrapper.set_tracer(tracer)
            result = wrapper.run(EdgeStream(instance, edges))
            shown.append(
                (
                    result.cover,
                    list(result.certificate.items()),
                    result.space,
                    result.diagnostics,
                    tracer.to_jsonl(),
                    rng.getstate(),
                )
            )
        assert shown[0] == shown[1]


class TestPropertyEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=8, max_value=70),
        m=st.integers(min_value=8, max_value=500),
        set_size=st.integers(min_value=1, max_value=10),
        dense=st.booleans(),
        tracking=st.booleans(),
        traced=st.booleans(),
        budget_share=st.one_of(st.none(), st.floats(min_value=0.05, max_value=1.0)),
        instance_seed=st.integers(min_value=0, max_value=2**16),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_random_grid(
        self, n, m, set_size, dense, tracking, traced, budget_share, instance_seed,
        seed,
    ):
        instance = fixed_size_instance(n, m, min(set_size, n), seed=instance_seed)
        edges = ordered_edges(instance, instance_seed + 1)
        scaling = (special_dense if dense else Scaling.practical().with_overrides)(
            enable_tracking=tracking
        )
        budget = None
        if budget_share is not None:
            peak = RandomOrderReferenceAlgorithm(scaling=scaling, seed=seed).run(
                EdgeStream(instance, edges)
            ).space.peak_words
            budget = max(1, int(budget_share * peak))
        assert_same(
            instance, edges, seed, scaling=scaling, budget=budget, traced=traced
        )
