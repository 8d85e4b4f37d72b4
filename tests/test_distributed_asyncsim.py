"""Asynchronous delivery simulation: scheduler mechanics and parity.

The contracts from ``repro/distributed/asyncsim.py``:

1. **Scheduler mechanics** — the logical clock idles to the earliest
   availability and advances one step per delivery; link delays and
   explicit availability steps are honoured; FIFO delivers in posting
   order; a fixed priority reorders exactly as ranked; a policy
   returning a bad index is a typed :class:`ProtocolError`.
2. **Parity** — for every coordinator, 50 seeded random delivery
   schedules (no faults) produce covers, certificates, and comm
   reports identical to the synchronous path, message logs included;
   and *every* delivery permutation of a small star run agrees
   (exhaustive :class:`FixedDelivery` sweep).
3. **Robust delivery** — duplicated uploads are deduplicated and
   counted, never merged twice; quorum-degraded async merges are
   valid partial covers with explicit degradation records.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest

from repro.distributed import backends, run_distributed
from repro.distributed.asyncsim import (
    AsyncScheduler,
    DeliveryPolicy,
    FifoDelivery,
    FixedDelivery,
    Message,
    RandomDelivery,
    run_distributed_async,
)
from repro.distributed.transport import InprocTransport
from repro.errors import (
    InvalidParameterError,
    ProtocolError,
    ShardCrashError,
)
from repro.faults.shards import PERMANENT, ShardFaultPlan, ShardFaultSpec
from repro.generators.planted import planted_partition_instance
from repro.generators.random_instances import fixed_size_instance
from repro.obs.events import MESSAGE_DELIVERED
from repro.obs.tracer import TraceCollector

COORDINATORS = ("union", "greedy", "chain", "tree")
#: ``adaptive_threshold`` values: fixed and adaptive tau.
TAU_MODES = (False, True)


@pytest.fixture(scope="module")
def instance():
    return planted_partition_instance(40, 80, opt_size=4, seed=11).instance


class TestScheduler:
    def test_clock_idles_to_availability_then_ticks(self):
        sched = AsyncScheduler(default_delay=5)
        sched.post("a", "b", kind="x")
        message = sched.deliver_next()
        assert message is not None
        # Idled 0 -> 5, then one tick for the delivery itself.
        assert sched.clock == 6
        assert sched.idle_ticks == 5
        assert sched.delivered == 1
        assert sched.inbox("b") == [message]

    def test_per_link_delay_overrides_default(self):
        sched = AsyncScheduler(
            link_delays={"a->b": 0, "a->c": 7}, default_delay=3
        )
        assert sched.link_delay("a", "b") == 0
        assert sched.link_delay("a", "c") == 7
        assert sched.link_delay("x", "y") == 3

    def test_explicit_availability_step_wins(self):
        sched = AsyncScheduler(default_delay=1)
        sched.post("a", "b", kind="x", available_step=9)
        sched.deliver_next()
        assert sched.clock == 10
        assert sched.idle_ticks == 9

    def test_fifo_delivers_in_posting_order(self):
        sched = AsyncScheduler(policy=FifoDelivery(), default_delay=0)
        for i in range(4):
            sched.post("a", "b", kind="x", payload=i)
        delivered = [m.payload for m in sched.drain()]
        assert delivered == [0, 1, 2, 3]
        # No idling needed at delay 0: clock counts deliveries only.
        assert sched.clock == 4
        assert sched.idle_ticks == 0

    def test_fixed_priority_reorders_available_messages(self):
        sched = AsyncScheduler(
            policy=FixedDelivery([2, 0, 1]), default_delay=0
        )
        for i in range(3):
            sched.post("a", "b", kind="x", payload=i)
        assert [m.payload for m in sched.drain()] == [2, 0, 1]

    def test_fixed_priority_unranked_falls_back_to_seq(self):
        sched = AsyncScheduler(policy=FixedDelivery([3]), default_delay=0)
        for i in range(4):
            sched.post("a", "b", kind="x", payload=i)
        assert [m.payload for m in sched.drain()] == [3, 0, 1, 2]

    def test_priority_cannot_deliver_the_unavailable(self):
        # Message 1 is ranked first but only available at step 10; the
        # policy chooses among *deliverable* messages, so message 0
        # (available immediately) lands first regardless of rank.
        sched = AsyncScheduler(policy=FixedDelivery([1, 0]), default_delay=0)
        sched.post("a", "b", kind="x", payload=0)
        sched.post("a", "b", kind="x", payload=1, available_step=10)
        assert [m.payload for m in sched.drain()] == [0, 1]

    def test_random_delivery_is_seed_deterministic(self):
        def schedule(seed):
            sched = AsyncScheduler(
                policy=RandomDelivery(seed), default_delay=0
            )
            for i in range(6):
                sched.post("a", "b", kind="x", payload=i)
            return [m.payload for m in sched.drain()]

        assert schedule(5) == schedule(5)
        assert schedule(5) != schedule(6)  # 1/720 collision odds; fixed seeds

    def test_bad_policy_choice_is_protocol_error(self):
        class Broken(DeliveryPolicy):
            name = "broken"

            def choose(self, deliverable):
                return len(deliverable)

        sched = AsyncScheduler(policy=Broken(), default_delay=0)
        sched.post("a", "b", kind="x")
        with pytest.raises(ProtocolError, match="broken"):
            sched.deliver_next()

    def test_negative_delays_rejected(self):
        with pytest.raises(InvalidParameterError):
            AsyncScheduler(default_delay=-1)
        with pytest.raises(InvalidParameterError):
            AsyncScheduler(link_delays={"a->b": -2})

    def test_message_link_label(self):
        message = Message(
            seq=0, src="shard[0]", dst="coordinator", kind="envelope",
            words=3, payload=0, posted_step=0, available_step=1,
        )
        assert message.link == "shard[0]->coordinator"


class TestSchedulePermutationParity:
    """The acceptance criterion: delivery order is never semantic."""

    @pytest.mark.parametrize("coordinator", COORDINATORS)
    def test_fifty_random_schedules_match_sync(self, instance, coordinator):
        sync = run_distributed(
            instance,
            workers=4,
            algorithm="kk",
            strategy="by-set",
            coordinator=coordinator,
            seed=17,
            backend="serial",
            comm_log=True,
        )
        for schedule_seed in range(50):
            result = run_distributed_async(
                instance,
                workers=4,
                algorithm="kk",
                strategy="by-set",
                coordinator=coordinator,
                seed=17,
                backend="serial",
                comm_log=True,
                schedule_seed=schedule_seed,
            )
            assert result.cover == sync.cover, schedule_seed
            assert result.certificate == sync.certificate, schedule_seed
            assert result.comm == sync.comm, schedule_seed
            assert result.diagnostics["schedule_seed"] == schedule_seed

    @pytest.mark.parametrize("coordinator", ("union", "greedy"))
    def test_every_delivery_permutation_agrees(self, instance, coordinator):
        # A 3-shard star run posts exactly 3 uploads: 6 permutations,
        # all of which must merge identically.
        results = []
        for priority in itertools.permutations(range(3)):
            results.append(
                run_distributed_async(
                    instance,
                    workers=3,
                    coordinator=coordinator,
                    seed=3,
                    backend="serial",
                    comm_log=True,
                    delivery=FixedDelivery(priority),
                )
            )
        first = results[0]
        assert first.is_valid(instance)
        for other in results[1:]:
            assert other.cover == first.cover
            assert other.certificate == first.certificate
            assert other.comm == first.comm

    def test_async_trace_replays_byte_identically(self, instance):
        def run_once():
            collector = TraceCollector()
            run_distributed_async(
                instance,
                workers=4,
                coordinator="union",
                seed=5,
                backend="serial",
                collector=collector,
                schedule_seed=99,
            )
            return collector.to_jsonl()

        assert run_once() == run_once()


class TestAsyncDiagnostics:
    def test_transport_diagnostics_present(self, instance):
        result = run_distributed_async(
            instance, workers=4, coordinator="union", seed=1, backend="serial"
        )
        diag = result.diagnostics
        assert diag["delivered_messages"] == 4.0
        assert diag["logical_steps"] >= diag["delivered_messages"]
        assert diag["idle_ticks"] >= 0.0
        assert diag["duplicates_dropped"] == 0.0

    @staticmethod
    def diag(instance, workers, coordinator, adaptive=False):
        """A fault-free async run's diagnostics; its cover must equal sync."""
        kwargs = dict(
            workers=workers,
            coordinator=coordinator,
            adaptive_threshold=adaptive,
            seed=1,
            backend="serial",
        )
        result = run_distributed_async(instance, **kwargs)
        result.verify(instance)
        assert result.cover == run_distributed(instance, **kwargs).cover
        return result.diagnostics

    def test_chain_critical_path_grows_with_workers(self, instance):
        # One wait per hand-off: idle ticks count the chain's
        # sequential dependency, W-1 of them at unit link delay.
        for adaptive, workers in itertools.product(TAU_MODES, (2, 4, 8, 16)):
            diag = self.diag(instance, workers, "chain", adaptive)
            assert diag["idle_ticks"] == workers - 1

    def test_tree_critical_path_grows_logarithmically(self, instance):
        # One idle tick per *round*, not per hand-off: ceil(log2 W)
        # waits, each delivering the whole round as one batch.  Two
        # more steps cover posting the leaves and the root's settle.
        for adaptive, workers in itertools.product(TAU_MODES, (2, 4, 8, 16)):
            rounds = math.ceil(math.log2(workers))
            diag = self.diag(instance, workers, "tree", adaptive)
            assert diag["idle_ticks"] == rounds
            assert diag["merge_rounds"] == rounds
            assert diag["logical_steps"] <= 2 * rounds + 2
        assert self.diag(instance, 8, "tree")["logical_steps"] == 6.0

    def test_tree_beats_chain_at_width(self, instance):
        for adaptive, workers in itertools.product(TAU_MODES, (8, 16)):
            tree = self.diag(instance, workers, "tree", adaptive)
            chain = self.diag(instance, workers, "chain", adaptive)
            assert tree["logical_steps"] < chain["logical_steps"]


class TestReplayedWords:
    @pytest.mark.parametrize("coordinator", COORDINATORS)
    def test_delivered_words_equal_metered_link_words(self, coordinator):
        # Every replayed message carries the words the merge metered on
        # its link: a star upload is a cover (union) or candidate
        # (greedy) message, a hand-off whatever the chain or tree sent.
        instance = fixed_size_instance(60, 120, 6, seed=3)
        collector = TraceCollector()
        result = run_distributed_async(
            instance,
            workers=4,
            coordinator=coordinator,
            seed=1,
            backend="serial",
            collector=collector,
        )
        delivered = [
            event.attrs
            for event in collector.events_for("async")
            if event.etype == MESSAGE_DELIVERED
        ]
        assert len(delivered) == result.diagnostics["delivered_messages"] > 0
        for attrs in delivered:
            assert attrs["words"] == result.comm.per_link_words[attrs["link"]]


class TestDuplicateDelivery:
    @pytest.mark.parametrize("coordinator", COORDINATORS)
    def test_duplicates_dropped_not_merged_twice(self, instance, coordinator):
        plan = ShardFaultPlan(
            specs={1: ShardFaultSpec(duplicate=True)}
        )
        clean = run_distributed_async(
            instance,
            workers=4,
            coordinator=coordinator,
            seed=23,
            backend="serial",
            schedule_seed=7,
        )
        noisy = run_distributed_async(
            instance,
            workers=4,
            coordinator=coordinator,
            seed=23,
            backend="serial",
            schedule_seed=7,
            shard_faults=plan,
        )
        assert noisy.cover == clean.cover
        assert noisy.certificate == clean.certificate
        assert noisy.diagnostics["duplicates_dropped"] == 1.0
        assert noisy.diagnostics["shards_lost"] == 0.0


class TestAsyncDegradedQuorum:
    @pytest.mark.parametrize("coordinator", COORDINATORS)
    def test_crash_with_quorum_met_degrades_explicitly(
        self, instance, coordinator
    ):
        plan = ShardFaultPlan(
            specs={2: ShardFaultSpec(crash_attempts=PERMANENT)}
        )
        result = run_distributed_async(
            instance,
            workers=4,
            coordinator=coordinator,
            seed=9,
            backend="serial",
            shard_faults=plan,
            min_shards=2,
        )
        assert result.diagnostics["shards_lost"] == 1.0
        assert len(result.degradations) == 1
        record = result.degradations[0]
        assert record.policy == "quorum-degraded"
        assert record.details["shard"] == 2.0
        result.verify(instance, allow_partial=True)
        assert set(result.uncovered) == instance.uncovered_by(result.cover)

    def test_quorum_not_met_raises_typed_error(self, instance):
        plan = ShardFaultPlan(
            specs={
                0: ShardFaultSpec(crash_attempts=PERMANENT),
                1: ShardFaultSpec(crash_attempts=PERMANENT),
                2: ShardFaultSpec(crash_attempts=PERMANENT),
            }
        )
        with pytest.raises(ShardCrashError, match="quorum not met"):
            run_distributed_async(
                instance,
                workers=4,
                coordinator="union",
                seed=9,
                backend="serial",
                shard_faults=plan,
                min_shards=2,
            )


class TestAsyncParameterValidation:
    def test_min_shards_out_of_range(self, instance):
        with pytest.raises(InvalidParameterError, match="min_shards"):
            run_distributed_async(
                instance, workers=4, min_shards=5, backend="serial"
            )

    def test_max_workers_must_be_positive(self, instance):
        with pytest.raises(InvalidParameterError, match="max_workers"):
            run_distributed_async(instance, workers=4, max_workers=0)

    def test_unknown_coordinator_fails_fast(self, instance):
        with pytest.raises(InvalidParameterError, match="coordinator"):
            run_distributed_async(
                instance, workers=4, coordinator="bogus", backend="serial"
            )

    @pytest.mark.parametrize("parameter", ["seed", "schedule_seed"])
    @pytest.mark.parametrize(
        "make_seed",
        [lambda: random.Random(3), lambda: np.random.default_rng(3)],
        ids=["random.Random", "numpy.Generator"],
    )
    def test_non_int_seed_rejected_before_shard_work(
        self, instance, monkeypatch, parameter, make_seed
    ):
        # Regression: both seeds used to reach int() only after every
        # shard and the merge had run, failing with a bare TypeError.
        def no_shard_work(task):
            raise AssertionError("shard work ran before seed validation")

        monkeypatch.setattr(backends, "execute_shard_task", no_shard_work)
        with pytest.raises(InvalidParameterError) as excinfo:
            run_distributed_async(
                instance, workers=4, backend="serial", **{parameter: make_seed()}
            )
        assert excinfo.value.parameter == parameter

    @pytest.mark.parametrize(
        "kwargs,parameter",
        [
            ({"default_delay": 1.5}, "default_delay"),
            ({"default_delay": True}, "default_delay"),
            ({"default_delay": "1"}, "default_delay"),
            ({"default_delay": -1}, "default_delay"),
            ({"link_delays": {"shard[0]->shard[1]": 1.5}}, "link_delays"),
            ({"link_delays": {"shard[0]->shard[1]": "2"}}, "link_delays"),
            ({"link_delays": {"shard[0]->shard[1]": False}}, "link_delays"),
            ({"delivery": "fifo"}, "delivery"),
        ],
    )
    def test_bad_delay_or_delivery_rejected_before_shard_work(
        self, instance, monkeypatch, kwargs, parameter
    ):
        # Regression: fractional delays used to run to a fractional
        # logical clock, a str delay escaped as a bare TypeError, and a
        # policy name ran every shard and the merge before failing with
        # AttributeError in the replay.
        def no_shard_work(task):
            raise AssertionError("shard work ran before delay validation")

        monkeypatch.setattr(backends, "execute_shard_task", no_shard_work)
        with pytest.raises(InvalidParameterError) as excinfo:
            run_distributed_async(
                instance, workers=4, backend="serial", **kwargs
            )
        assert excinfo.value.parameter.startswith(parameter)

    def test_none_schedule_seed_means_zero(self, instance):
        implicit = run_distributed_async(
            instance, workers=4, backend="serial", schedule_seed=None
        )
        explicit = run_distributed_async(
            instance, workers=4, backend="serial", schedule_seed=0
        )
        assert implicit == explicit
        assert implicit.diagnostics["schedule_seed"] == 0.0


class _ClosingRecorder(InprocTransport):
    """An inproc transport that counts its ``close()`` calls."""

    def __init__(self) -> None:
        super().__init__()
        self.closes = 0

    def close(self) -> None:
        self.closes += 1
        super().close()


class TestAsyncTransportLifecycle:
    @pytest.mark.parametrize("coordinator", COORDINATORS)
    def test_replay_failure_still_closes_transport(self, instance, coordinator):
        class Broken(DeliveryPolicy):
            name = "broken"

            def choose(self, deliverable):
                return len(deliverable)

        transport = _ClosingRecorder()
        with pytest.raises(ProtocolError, match="broken"):
            run_distributed_async(
                instance,
                workers=4,
                coordinator=coordinator,
                backend="serial",
                delivery=Broken(),
                transport=transport,
            )
        assert transport.closes == 1

    @pytest.mark.parametrize("coordinator", COORDINATORS)
    def test_clean_run_closes_transport_once(self, instance, coordinator):
        transport = _ClosingRecorder()
        run_distributed_async(
            instance,
            workers=4,
            coordinator=coordinator,
            backend="serial",
            transport=transport,
        )
        assert transport.closes == 1
