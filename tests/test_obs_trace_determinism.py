"""Determinism and non-perturbation contracts of the tracing layer.

Two promises, both load-bearing for reproducibility claims:

1. **Traces are seed-deterministic** — the same seed and instance emit
   byte-identical JSONL, run to run (the collector merges cells sorted
   by label).
2. **Tracing never perturbs results** — attaching a recording tracer
   leaves covers, certificates, RNG draws and space reports
   bit-identical to the untraced run.
"""

from __future__ import annotations

import pytest

from repro.algorithms import make_algorithm, registered_algorithms
from repro.analysis.runner import ExperimentRunner
from repro.cli import main
from repro.core.random_order import RandomOrderAlgorithm
from repro.errors import SpaceBudgetExceededError
from repro.faults.resilient import ResilientAlgorithm
from repro.generators.planted import planted_partition_instance
from repro.obs import events as obs_events
from repro.obs.summary import summarize
from repro.obs.tracer import RecordingTracer, TraceCollector, parse_jsonl
from repro.streaming.orders import RandomOrder, SetGroupedOrder, make_order
from repro.streaming.space import SpaceBudget
from repro.streaming.stream import stream_of


@pytest.fixture
def planted():
    return planted_partition_instance(40, 30, opt_size=4, seed=11).instance


def _traced_run(instance, algorithm_name, seed, order_seed=5):
    order_name = (
        "set-grouped" if algorithm_name == "set-arrival" else "random"
    )
    order = make_order(order_name, seed=order_seed)
    tracer = RecordingTracer()
    algorithm = make_algorithm(
        algorithm_name, instance, seed=seed, tracer=tracer
    )
    result = algorithm.run(stream_of(instance, order))
    tracer.finish()
    return result, tracer


class TestByteIdenticalTraces:
    def test_same_seed_same_jsonl(self, planted):
        _, first = _traced_run(planted, "random-order", seed=3)
        _, second = _traced_run(planted, "random-order", seed=3)
        assert first.to_jsonl() == second.to_jsonl()

    def test_different_seed_different_jsonl(self):
        # Needs an instance large enough that the epoch-0 sampling rate
        # stays below 1 — otherwise every seed admits every set and the
        # traces legitimately coincide.
        big = planted_partition_instance(60, 400, opt_size=6, seed=11).instance
        _, first = _traced_run(big, "random-order", seed=3)
        _, second = _traced_run(big, "random-order", seed=4)
        assert first.to_jsonl() != second.to_jsonl()

    @pytest.mark.parametrize("name", sorted(registered_algorithms()))
    def test_every_algorithm_traces_deterministically(self, planted, name):
        _, first = _traced_run(planted, name, seed=9)
        _, second = _traced_run(planted, name, seed=9)
        assert first.to_jsonl() == second.to_jsonl()
        assert first.open_spans == 0

    def test_runner_jsonl_identical_run_to_run(self, planted):
        outputs = []
        for _ in range(2):
            collector = TraceCollector()
            runner = ExperimentRunner(
                {
                    "kk": lambda s: make_algorithm("kk", planted, seed=s),
                    "first-fit": lambda s: make_algorithm(
                        "first-fit", planted, seed=s
                    ),
                },
                seed=42,
                collector=collector,
            )
            rows = runner.compare(planted, "random", replications=2)
            outputs.append((collector.to_jsonl(), rows))
        (jsonl_first, rows_first), (jsonl_second, rows_second) = outputs
        assert jsonl_first == jsonl_second
        assert rows_first == rows_second


class TestTracingDoesNotPerturb:
    @pytest.mark.parametrize("name", sorted(registered_algorithms()))
    def test_traced_equals_untraced(self, planted, name):
        order_name = "set-grouped" if name == "set-arrival" else "random"
        untraced = make_algorithm(name, planted, seed=7)
        baseline = untraced.run(
            stream_of(planted, make_order(order_name, seed=5))
        )
        traced, tracer = _traced_run(planted, name, seed=7)
        assert traced.cover == baseline.cover
        assert traced.certificate == baseline.certificate
        assert traced.space.peak_words == baseline.space.peak_words
        assert traced.space.final_words == baseline.space.final_words
        assert (
            traced.space.components_at_peak == baseline.space.components_at_peak
        )
        assert len(tracer.events) > 0


class TestAlgorithmOneSpans:
    def test_epoch_and_subepoch_spans_present(self, planted):
        tracer = RecordingTracer()
        algorithm = RandomOrderAlgorithm(seed=2)
        algorithm.set_tracer(tracer)
        algorithm.run(stream_of(planted, RandomOrder(seed=2)))
        summary = summarize(tracer.finish())
        assert summary.unbalanced_spans == 0
        assert summary.span_counts.get(obs_events.SPAN_RUN) == 1
        assert summary.span_counts.get(obs_events.SPAN_EPOCH0) == 1
        epochs = summary.span_counts.get(obs_events.SPAN_EPOCH, 0)
        subepochs = summary.span_counts.get(obs_events.SPAN_SUBEPOCH, 0)
        assert epochs >= 1
        assert subepochs >= epochs  # >= 1 subepoch span per epoch span
        assert summary.span_counts.get(obs_events.SPAN_REMAINDER) == 1
        # Every epoch row reports at least one subepoch.
        assert summary.epoch_rows
        for _, _, row_subepochs, _ in summary.epoch_rows:
            assert row_subepochs >= 1

    def test_patch_and_space_events_present(self, planted):
        _, tracer = _traced_run(planted, "random-order", seed=2)
        etypes = {e.etype for e in tracer.events}
        assert obs_events.PATCH_APPLIED in etypes
        assert obs_events.SPACE_SAMPLE in etypes


class TestFailureEvents:
    def test_run_failed_event_on_budget_exhaustion(self, planted):
        tracer = RecordingTracer()
        algorithm = make_algorithm("store-all", planted, seed=0, tracer=tracer)
        algorithm._space_budget = SpaceBudget(words=4)
        with pytest.raises(SpaceBudgetExceededError):
            algorithm.run(stream_of(planted, RandomOrder(seed=0)))
        failures = [
            e for e in tracer.events if e.etype == obs_events.RUN_FAILED
        ]
        assert len(failures) == 1
        assert failures[0].attrs["error"] == "SpaceBudgetExceededError"
        assert tracer.open_spans == 0  # the run span closed on the way out

    def test_degradation_event_from_best_effort_salvage(self, planted):
        tracer = RecordingTracer()
        algorithm = make_algorithm("kk", planted, seed=0, tracer=tracer)
        algorithm._space_budget = SpaceBudget(words=4)
        resilient = ResilientAlgorithm(algorithm, policy="best_effort")
        outcome = resilient.run(stream_of(planted, RandomOrder(seed=0)))
        assert outcome.degradation is not None
        events = {e.etype for e in tracer.events}
        assert obs_events.RUN_FAILED in events
        assert obs_events.DEGRADATION in events


class TestCliTrace:
    def test_trace_writes_deterministic_jsonl(self, tmp_path, capsys):
        from repro.streaming.io import dump_instance

        instance = planted_partition_instance(30, 24, opt_size=3, seed=1)
        path = tmp_path / "instance.txt"
        dump_instance(instance.instance, path)
        outputs = []
        for run in range(2):
            out = tmp_path / f"trace_{run}.jsonl"
            code = main(
                [
                    "trace",
                    str(path),
                    "--algorithm",
                    "random-order",
                    "--seed",
                    "5",
                    "-o",
                    str(out),
                ]
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        events = parse_jsonl(outputs[0].decode("utf-8"))
        summary = summarize(events)
        assert summary.unbalanced_spans == 0
        captured = capsys.readouterr().out
        assert "trace events" in captured
        assert "spans:" in captured

    def test_trace_without_output_prints_summary(self, tmp_path, capsys):
        from repro.streaming.io import dump_instance

        instance = planted_partition_instance(30, 24, opt_size=3, seed=1)
        path = tmp_path / "instance.txt"
        dump_instance(instance.instance, path)
        assert main(["trace", str(path), "--algorithm", "kk"]) == 0
        assert "events:" in capsys.readouterr().out


class TestChaosCollector:
    def test_quick_chaos_sweep_traces_cells(self):
        from repro.analysis.chaos import run_chaos

        collector = TraceCollector()
        report = run_chaos(seed=0, quick=True, collector=collector)
        report.assert_invariant()
        assert len(collector) > 0
        # Deterministic merged output for the same master seed.
        second = TraceCollector()
        run_chaos(seed=0, quick=True, collector=second)
        assert collector.to_jsonl() == second.to_jsonl()
