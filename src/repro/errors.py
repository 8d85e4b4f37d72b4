"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries.  Sub-classes are
kept deliberately fine-grained: each maps to a distinct failure mode a
user can act on (bad instance, bad stream, exhausted space budget, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Mapping, Optional, Tuple


@dataclass(frozen=True)
class PartialState:
    """Snapshot of salvageable algorithm state at the moment of failure.

    Attached (as the ``partial`` attribute) to :class:`ReproError`
    instances that escape :meth:`StreamingSetCoverAlgorithm.run`, so a
    ``best_effort`` degradation policy can emit a *partial* cover
    instead of discarding the whole pass.  All fields are copies taken
    at failure time; mutating them cannot affect the failed run.  The
    certificate is a dict, or a read-only
    :class:`~repro.core.solution.Certificate` for an algorithm that
    writes its witnesses into columns (KK).
    """

    cover: FrozenSet[int] = frozenset()
    certificate: Mapping[int, int] = field(default_factory=dict)
    edges_consumed: int = 0
    meter_peak: int = 0


def _rebuild_error(cls: type, args: Tuple[object, ...]) -> "ReproError":
    """An error of type ``cls`` with ``args``, built without ``__init__``."""
    return cls.__new__(cls, *args)


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library.

    Instances may carry a :class:`PartialState` snapshot in their
    ``partial`` attribute when raised from inside an algorithm pass;
    it defaults to ``None`` for errors raised outside one.

    Every error pickles as its type, its ``args`` (the formatted
    message) and its attribute fields.  Unpickling restores them
    without calling ``__init__``, whose parameters differ per class
    and would re-format the message, so an error raised in a child
    process reaches the parent with the same type, message and fields.
    """

    partial: Optional[PartialState] = None

    def __reduce__(self):
        return _rebuild_error, (type(self), self.args), self.__dict__


class InvalidInstanceError(ReproError):
    """A set-cover instance violates a structural requirement.

    Raised, for example, when an element belongs to no set (the paper
    assumes every element is contained in at least one set, Section 2),
    when ids are out of range, or when a set is empty where that is not
    permitted.
    """


class InvalidStreamError(ReproError):
    """An edge stream is malformed or inconsistent with its instance.

    Examples: duplicate edges where duplicates are forbidden, edges that
    reference unknown sets or elements, or a declared length that does
    not match the number of produced edges.
    """


class InvalidCoverError(ReproError):
    """A produced cover or certificate fails verification."""


class SpaceBudgetExceededError(ReproError):
    """An algorithm exceeded the space budget it was configured with.

    Only raised when a hard :class:`repro.streaming.space.SpaceBudget`
    is attached; by default space is merely *metered*, never enforced.
    """

    def __init__(
        self,
        used: int,
        budget: int,
        context: str = "",
        partial: Optional[PartialState] = None,
    ) -> None:
        self.used = used
        self.budget = budget
        self.context = context
        self.partial = partial
        suffix = f" while {context}" if context else ""
        super().__init__(
            f"space budget exceeded: {used} words used, budget {budget}{suffix}"
        )


class CommBudgetError(ReproError):
    """A distributed run exceeded its communication budget.

    Only raised when a hard :class:`repro.distributed.comm.CommBudget`
    is attached to the coordinator's :class:`~repro.distributed.comm.CommMeter`;
    by default communication is merely *metered*, never enforced.  The
    offending message has already been recorded when the error is
    raised, so the meter's report shows the total that tripped the cap.
    """

    def __init__(
        self,
        used: int,
        budget: int,
        context: str = "",
        link: str = "",
        message_words: int = 0,
    ) -> None:
        self.used = used
        self.budget = budget
        self.context = context
        self.link = link
        self.message_words = message_words
        suffix = f" while {context}" if context else ""
        detail = (
            f" (message of {message_words} words on link {link})" if link else ""
        )
        super().__init__(
            f"communication budget exceeded: {used} words sent, budget "
            f"{budget}{suffix}{detail}"
        )


class TransportError(ReproError):
    """A transport could not move a message between two players.

    Raised by :mod:`repro.distributed.transport` for wire-level
    failures the comm meter never sees: a socket that cannot bind in a
    sandboxed environment, a malformed frame, or a codec that is not
    installed.  Logical (word-level) accounting failures stay
    :class:`CommBudgetError`; this error is strictly about bytes.
    """


class TransportPartitionError(TransportError):
    """A link stayed partitioned past the transport's retransmit budget.

    Carries the link label and how many transmissions were attempted so
    chaos harnesses can assert *which* link failed and that the
    retransmit policy was actually exercised.
    """

    def __init__(self, link: str, attempts: int, context: str = "") -> None:
        self.link = link
        self.attempts = attempts
        self.context = context
        suffix = f" while {context}" if context else ""
        super().__init__(
            f"link {link} dropped all {attempts} transmission(s); "
            f"partition outlasted the retransmit budget{suffix}"
        )


class AdmissionError(ReproError):
    """A serve request was refused or evicted by admission control.

    Raised by :class:`repro.serve.admission.ResourcePool` when a request
    cannot be granted its space/communication lease: it asks for more
    than the pool will ever hold (``reason="exceeds-capacity"``), the
    wait queue is full (``"queue-full"``), the request waited past the
    queue timeout (``"timed-out"``), or the server is draining for
    shutdown (``"shutting-down"``).  The error carries the full
    admission context — requested and available words, current queue
    depth, and an advisory ``retry_after`` hint in seconds (``None``
    when retrying can never succeed) — and round-trips through the
    serve wire protocol, so a *client* catches the same typed error the
    pool raised server-side.
    """

    def __init__(
        self,
        reason: str,
        requested_space_words: int = 0,
        requested_comm_words: int = 0,
        available_space_words: int = 0,
        available_comm_words: int = 0,
        queue_depth: int = 0,
        retry_after: Optional[float] = None,
        context: str = "",
    ) -> None:
        self.reason = reason
        self.requested_space_words = requested_space_words
        self.requested_comm_words = requested_comm_words
        self.available_space_words = available_space_words
        self.available_comm_words = available_comm_words
        self.queue_depth = queue_depth
        self.retry_after = retry_after
        self.context = context
        suffix = f" while {context}" if context else ""
        hint = (
            f"; retry after ~{retry_after:.3f}s"
            if retry_after is not None
            else "; retrying cannot succeed"
        )
        super().__init__(
            f"admission refused ({reason}): requested "
            f"{requested_space_words} space + {requested_comm_words} comm "
            f"words, {available_space_words}/{available_comm_words} "
            f"available, queue depth {queue_depth}{suffix}{hint}"
        )


class RemoteServeError(ReproError):
    """A server-side error relayed to a serve client over the wire.

    The serve protocol transports any :class:`ReproError` a request
    handler raises as a ``(type name, message)`` pair; the client
    re-raises it as this class so callers keep a typed error without
    the protocol having to know every subclass constructor.
    :class:`AdmissionError` is the exception: its fields travel
    explicitly and it is reconstructed as itself.
    """

    def __init__(self, error_type: str, message: str) -> None:
        self.error_type = error_type
        self.remote_message = message
        super().__init__(f"{error_type} (remote): {message}")


class StreamExhaustedError(ReproError):
    """An algorithm asked for more stream than exists.

    One-pass algorithms must never re-read the stream; this error guards
    against accidental second passes in tests and experiments.
    """

    def __init__(
        self, message: str = "edge stream exhausted",
        partial: Optional[PartialState] = None,
    ) -> None:
        self.partial = partial
        super().__init__(message)


class ProtocolError(ReproError):
    """A multi-party communication protocol was driven incorrectly.

    Raised for out-of-order message passing, a party speaking twice, or
    a message sent after the protocol produced its output.
    """


class InfeasibleInstanceError(InvalidInstanceError):
    """The instance admits no feasible cover (some element is in no set)."""


class ConfigurationError(ReproError):
    """Mutually inconsistent or out-of-range algorithm parameters."""


class InvalidParameterError(ConfigurationError):
    """A single parameter is out of its documented range or vocabulary.

    The narrow sibling of :class:`ConfigurationError`: raised when one
    argument is wrong in isolation (``max_workers < 1``, an unknown
    backend name, a non-positive queue depth), as opposed to a *set* of
    parameters that are individually fine but mutually inconsistent.
    Subclassing keeps every existing ``except ConfigurationError``
    handler working.
    """

    def __init__(self, parameter: str, value: object, requirement: str) -> None:
        self.parameter = parameter
        self.value = value
        self.requirement = requirement
        super().__init__(
            f"invalid {parameter}={value!r}: {requirement}"
        )


class ShardCrashError(ReproError):
    """A distributed shard crashed and its output was abandoned.

    Raised by the fault-tolerant execution layer
    (:func:`repro.distributed.backends.run_tasks_with_recovery`) when a
    shard's every attempt crashed and the coordinator's quorum policy
    does not permit proceeding without it.  The per-shard
    :class:`~repro.distributed.backends.ShardOutcome` records carry the
    full attempt history.
    """

    def __init__(self, index: int, attempts: int, context: str = "") -> None:
        self.index = index
        self.attempts = attempts
        self.context = context
        suffix = f" ({context})" if context else ""
        super().__init__(
            f"shard[{index}] crashed on all {attempts} attempt(s) and was "
            f"abandoned{suffix}"
        )


class ShardTimeoutError(ReproError):
    """A distributed shard missed its logical-step deadline.

    Raised when a shard's (simulated) completion step exceeds the
    configured ``deadline_steps`` on every attempt — a straggler that
    retry-with-backoff cannot rescue — and the quorum policy does not
    permit proceeding without it.
    """

    def __init__(
        self,
        index: int,
        attempts: int,
        completion_step: int,
        deadline_steps: int,
        context: str = "",
    ) -> None:
        self.index = index
        self.attempts = attempts
        self.completion_step = completion_step
        self.deadline_steps = deadline_steps
        self.context = context
        suffix = f" ({context})" if context else ""
        super().__init__(
            f"shard[{index}] timed out on all {attempts} attempt(s): "
            f"finished at logical step {completion_step} > deadline "
            f"{deadline_steps}{suffix}"
        )


class ExperimentExecutionError(ReproError):
    """A run inside an experiment sweep failed.

    Wraps the underlying exception (available as ``__cause__``) with
    the failing cell's full context — algorithm, arrival order,
    instance, seed and spec index — so a failure deep inside a sweep
    names the cell that raised it.
    """

    def __init__(
        self,
        algorithm: str,
        order: str,
        instance: str,
        seed: int,
        spec_index: int,
        cause: BaseException,
    ) -> None:
        self.algorithm = algorithm
        self.order = order
        self.instance = instance
        self.seed = seed
        self.spec_index = spec_index
        super().__init__(
            f"experiment run failed: algorithm={algorithm!r} "
            f"order={order!r} seed={seed} "
            f"spec_index={spec_index} instance={instance}: "
            f"{type(cause).__name__}: {cause}"
        )
