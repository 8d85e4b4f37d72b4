"""Tests for graceful-degradation policies and failure salvage."""

from __future__ import annotations

import pytest

from repro.core.base import StreamingSetCoverAlgorithm
from repro.core.kk import KKAlgorithm
from repro.core.solution import StreamingResult
from repro.errors import (
    ConfigurationError,
    InvalidStreamError,
    ReproError,
    SpaceBudgetExceededError,
)
from repro.faults import FaultSpec, ResilientAlgorithm, inject
from repro.streaming.stream import EdgeStream, stream_of


class BudgetBlownAlgorithm(StreamingSetCoverAlgorithm):
    """Covers greedily, then blows its budget after ``fail_after`` edges."""

    name = "budget-blown"

    def __init__(self, fail_after, seed=None):
        super().__init__(seed=seed)
        self.fail_after = fail_after

    def _run(self, stream):
        cover = set()
        certificate = {}
        self._register_salvage(cover=cover, certificate=certificate)
        for index, edge in enumerate(stream):
            if index >= self.fail_after:
                raise SpaceBudgetExceededError(
                    used=index, budget=self.fail_after
                )
            if edge.element not in certificate:
                certificate[edge.element] = edge.set_id
                cover.add(edge.set_id)
        return StreamingResult(
            cover=frozenset(cover),
            certificate=certificate,
            space=self._meter.report(),
            algorithm=self.name,
        )


class BareKeyErrorAlgorithm(StreamingSetCoverAlgorithm):
    name = "bare-key-error"

    def _run(self, stream):
        self._register_salvage(cover=set(), certificate={})
        next(iter(stream))
        raise KeyError("phantom element")


class RottenCoverAlgorithm(BudgetBlownAlgorithm):
    """Salvage container poisoned with an out-of-range set id."""

    name = "rotten-cover"

    def _run(self, stream):
        result = None
        cover = {stream.instance.m + 7}
        certificate = {}
        self._register_salvage(cover=cover, certificate=certificate)
        for index, edge in enumerate(stream):
            if index >= self.fail_after:
                raise SpaceBudgetExceededError(used=index, budget=self.fail_after)
            if edge.element not in certificate:
                certificate[edge.element] = edge.set_id
                cover.add(edge.set_id)
        return result


class TestPolicyValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown degradation"):
            ResilientAlgorithm(KKAlgorithm(seed=0), policy="pray")

    def test_name_reflects_policy(self):
        wrapper = ResilientAlgorithm(KKAlgorithm(seed=0), policy="best_effort")
        assert "best_effort" in wrapper.name


class TestFailFast:
    def test_clean_run_is_ok(self, chain_instance):
        wrapper = ResilientAlgorithm(KKAlgorithm(seed=0), policy="fail_fast")
        outcome = wrapper.run(stream_of(chain_instance))
        assert outcome.ok
        assert outcome.result.is_valid(chain_instance)
        assert outcome.degradation is None

    def test_errors_propagate_untouched(self, chain_instance):
        wrapper = ResilientAlgorithm(
            BudgetBlownAlgorithm(fail_after=2), policy="fail_fast"
        )
        with pytest.raises(SpaceBudgetExceededError):
            wrapper.run(stream_of(chain_instance))


class TestSkipBadEdges:
    def test_repairs_corrupt_stream(self):
        # Dense instance: every element appears in several sets, so a
        # moderate corruption rate cannot erase one entirely and repair
        # must yield a full, valid cover.
        from repro.generators.planted import planted_partition_instance

        instance = planted_partition_instance(
            n=24, m=16, opt_size=4, seed=11
        ).instance
        faulty = inject(
            stream_of(instance), [FaultSpec("corrupt", 0.3, seed=3)]
        )
        wrapper = ResilientAlgorithm(KKAlgorithm(seed=0), policy="skip_bad_edges")
        outcome = wrapper.run(faulty)
        assert outcome.result is not None
        assert outcome.result.is_valid(instance)
        record = outcome.degradation
        assert record is not None
        assert record.relaxed_invariant == "well-formed-edges"
        assert record.edges_skipped > 0
        assert record.coverage_fraction == 1.0

    def test_corrects_length_lie(self, chain_instance):
        faulty = inject(
            stream_of(chain_instance), [FaultSpec("lie-length", 0.5, seed=3)]
        )
        wrapper = ResilientAlgorithm(KKAlgorithm(seed=0), policy="skip_bad_edges")
        outcome = wrapper.run(faulty)
        assert outcome.result.is_valid(chain_instance)
        assert outcome.degradation.relaxed_invariant == "declared-length"

    def test_clean_stream_yields_no_degradation(self, chain_instance):
        wrapper = ResilientAlgorithm(KKAlgorithm(seed=0), policy="skip_bad_edges")
        outcome = wrapper.run(stream_of(chain_instance))
        assert outcome.ok

    @pytest.mark.parametrize("bad_id", [2**63, -(2**63) - 1, 2**70])
    def test_id_outside_int64_is_typed(self, chain_instance, bad_id):
        edges = tuple(chain_instance.edges()) + ((bad_id, 0),)
        wrapper = ResilientAlgorithm(KKAlgorithm(seed=0), policy="best_effort")
        with pytest.raises(InvalidStreamError, match="int64"):
            wrapper.run(EdgeStream(chain_instance, edges))

    def test_algorithm_errors_still_propagate(self, chain_instance):
        wrapper = ResilientAlgorithm(
            BudgetBlownAlgorithm(fail_after=2), policy="skip_bad_edges"
        )
        with pytest.raises(SpaceBudgetExceededError):
            wrapper.run(stream_of(chain_instance))


class TestBestEffortSalvage:
    def test_repro_error_becomes_partial_result(self, chain_instance):
        wrapper = ResilientAlgorithm(
            BudgetBlownAlgorithm(fail_after=4), policy="best_effort"
        )
        outcome = wrapper.run(stream_of(chain_instance))
        record = outcome.degradation
        assert record is not None
        assert record.error_type == "SpaceBudgetExceededError"
        assert "complete-cover" in record.relaxed_invariant
        assert 0.0 < record.coverage_fraction < 1.0
        assert record.uncovered_count > 0
        assert outcome.result is not None
        assert all(0 <= s < chain_instance.m for s in outcome.result.cover)
        # The certificate it salvaged is genuinely consistent.
        for element, set_id in outcome.result.certificate.items():
            assert chain_instance.contains(set_id, element)

    def test_bare_key_error_salvaged(self, chain_instance):
        wrapper = ResilientAlgorithm(BareKeyErrorAlgorithm(), policy="best_effort")
        outcome = wrapper.run(stream_of(chain_instance))
        assert outcome.degradation is not None
        assert outcome.degradation.error_type == "KeyError"

    def test_out_of_range_sets_filtered_from_salvage(self, chain_instance):
        wrapper = ResilientAlgorithm(
            RottenCoverAlgorithm(fail_after=3), policy="best_effort"
        )
        outcome = wrapper.run(stream_of(chain_instance))
        assert outcome.result is not None
        assert chain_instance.m + 7 not in outcome.result.cover
        assert all(0 <= s < chain_instance.m for s in outcome.result.cover)

    def test_truncated_stream_never_raises_bare(self, chain_instance):
        faulty = inject(
            stream_of(chain_instance), [FaultSpec("truncate", 0.5, seed=5)]
        )
        wrapper = ResilientAlgorithm(KKAlgorithm(seed=0), policy="best_effort")
        try:
            outcome = wrapper.run(faulty)
        except ReproError:
            return  # typed failure is an allowed outcome
        if outcome.degradation is None:
            assert outcome.result.is_valid(chain_instance)

    def test_clean_run_untouched(self, chain_instance):
        wrapper = ResilientAlgorithm(KKAlgorithm(seed=0), policy="best_effort")
        outcome = wrapper.run(stream_of(chain_instance))
        assert outcome.ok
        assert outcome.result.is_valid(chain_instance)


class TestPartialStateAttachment:
    def test_base_run_attaches_partial(self, chain_instance):
        algorithm = BudgetBlownAlgorithm(fail_after=4)
        with pytest.raises(SpaceBudgetExceededError) as excinfo:
            algorithm.run(stream_of(chain_instance))
        partial = excinfo.value.partial
        assert partial is not None
        assert partial.edges_consumed >= 4
        assert len(partial.certificate) > 0
        assert partial.cover  # witnesses collected before the failure
        # The snapshot is a copy: the original error state is frozen.
        assert isinstance(partial.cover, frozenset)

    def test_partial_preserved_if_error_carries_one(self, chain_instance):
        # An error constructed *with* a partial keeps it (run() must not
        # overwrite an explicit snapshot with container state).
        from repro.errors import PartialState

        class ExplicitPartial(StreamingSetCoverAlgorithm):
            name = "explicit-partial"

            def _run(self, stream):
                next(iter(stream))
                raise SpaceBudgetExceededError(
                    used=9,
                    budget=1,
                    partial=PartialState(cover=frozenset({0}), edges_consumed=1),
                )

        with pytest.raises(SpaceBudgetExceededError) as excinfo:
            ExplicitPartial().run(stream_of(chain_instance))
        assert excinfo.value.partial.cover == frozenset({0})
