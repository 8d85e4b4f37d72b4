"""Sharded multi-worker execution with communication metering.

This package makes the paper's communication view of streaming set
cover operational: an edge stream is partitioned across ``W`` simulated
workers (:mod:`~repro.distributed.router`), each worker runs any
registry algorithm shard-locally with its own space meter
(:mod:`~repro.distributed.worker`), and a pluggable coordinator
(:mod:`~repro.distributed.coordinator`) merges the shard outputs while
a :class:`~repro.distributed.comm.CommMeter` charges every message —
so every run reports ``max_message_words``, the quantity Theorem 2's
lower bound governs.  :func:`~repro.distributed.executor.run_distributed`
ties it together, deterministically in the real thread count.
"""

from repro.distributed.asyncsim import (
    AsyncScheduler,
    DeliveryPolicy,
    FifoDelivery,
    FixedDelivery,
    Message,
    RandomDelivery,
    run_distributed_async,
)
from repro.distributed.backends import (
    BACKEND_REGISTRY,
    Backend,
    ProcessBackend,
    SerialBackend,
    ShardEnvelope,
    ShardOutcome,
    ShardTask,
    ThreadBackend,
    execute_shard_task,
    make_backend,
    registered_backends,
    run_tasks_with_recovery,
)
from repro.distributed.chain import (
    ProtocolOutcome,
    adaptive_threshold_for,
    chain_merge,
    state_words,
    tournament_merge,
    tournament_rounds,
)
from repro.distributed.comm import (
    CommBudget,
    CommMeter,
    CommReport,
    words_for_candidate_message,
    words_for_cover_message,
)
from repro.distributed.coordinator import (
    COORDINATOR_REGISTRY,
    ChainCoordinator,
    Coordinator,
    CoordinatorOptions,
    GreedyCoordinator,
    MergeOutcome,
    TournamentCoordinator,
    UnionCoordinator,
    make_coordinator,
    registered_coordinators,
)
from repro.distributed.executor import (
    DistributedConfig,
    DistributedResult,
    build_shard_plan_and_tasks,
    build_shard_tasks,
    resolve_transport,
    run_distributed,
    shard_space_reports,
)
from repro.distributed.transport import (
    TRANSPORT_REGISTRY,
    Codec,
    InprocTransport,
    LoopbackTransport,
    PickleCodec,
    SocketTransport,
    Transport,
    TransportReport,
    decode_frame,
    encode_frame,
    make_codec,
    make_transport,
    pack_words,
    registered_transports,
    unpack_words,
)
from repro.distributed.router import (
    STRATEGIES,
    ShardPlan,
    ShardRouter,
    deal_round_robin,
    edge_hash_worker,
)
from repro.distributed.worker import (
    InstanceShape,
    ShardAccumulator,
    ShardOutput,
    ShardReport,
    Worker,
)

__all__ = [
    "AsyncScheduler",
    "BACKEND_REGISTRY",
    "COORDINATOR_REGISTRY",
    "STRATEGIES",
    "TRANSPORT_REGISTRY",
    "Backend",
    "Codec",
    "InprocTransport",
    "LoopbackTransport",
    "PickleCodec",
    "SocketTransport",
    "Transport",
    "TransportReport",
    "DeliveryPolicy",
    "InstanceShape",
    "FifoDelivery",
    "FixedDelivery",
    "Message",
    "ProcessBackend",
    "RandomDelivery",
    "SerialBackend",
    "ShardAccumulator",
    "ShardEnvelope",
    "ShardOutcome",
    "ShardTask",
    "ThreadBackend",
    "build_shard_plan_and_tasks",
    "build_shard_tasks",
    "execute_shard_task",
    "make_backend",
    "registered_backends",
    "ChainCoordinator",
    "CommBudget",
    "CommMeter",
    "CommReport",
    "Coordinator",
    "CoordinatorOptions",
    "DistributedConfig",
    "DistributedResult",
    "GreedyCoordinator",
    "MergeOutcome",
    "ProtocolOutcome",
    "ShardOutput",
    "ShardPlan",
    "ShardReport",
    "ShardRouter",
    "TournamentCoordinator",
    "UnionCoordinator",
    "Worker",
    "adaptive_threshold_for",
    "chain_merge",
    "tournament_merge",
    "tournament_rounds",
    "deal_round_robin",
    "decode_frame",
    "edge_hash_worker",
    "encode_frame",
    "make_codec",
    "make_coordinator",
    "make_transport",
    "pack_words",
    "registered_coordinators",
    "registered_transports",
    "unpack_words",
    "resolve_transport",
    "run_distributed",
    "run_distributed_async",
    "run_tasks_with_recovery",
    "shard_space_reports",
    "state_words",
    "words_for_candidate_message",
    "words_for_cover_message",
]
