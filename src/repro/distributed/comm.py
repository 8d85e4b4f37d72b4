"""Word-level communication accounting for distributed execution.

The paper's Theorem 2 derives its space lower bound from *communication*:
a one-pass streaming algorithm induces a one-way multi-party protocol
whose longest message bounds the algorithm's memory.  The distributed
layer makes that view operational — every message a coordinator moves
between shards (or from a shard to itself) is charged to a
:class:`CommMeter`, the communication twin of
:class:`~repro.streaming.space.SpaceMeter`:

* **per-link word counts** — a link is a directed ``src->dst`` pair
  (e.g. ``shard[0]->shard[1]`` for the chain merge,
  ``shard[2]->coordinator`` for star-shaped merges);
* **peak message size** (``max_message_words``) — the quantity the
  lower bound governs;
* **total words** across every link — the end-to-end communication cost;
* optional **budget enforcement** — attaching a :class:`CommBudget`
  turns the meter into an enforcer raising a typed
  :class:`~repro.errors.CommBudgetError` the moment the total crosses
  the cap (the offending message is recorded first, mirroring the
  space meter's apply-then-raise contract; the shared discipline is
  pinned by the hypothesis property in ``tests/test_meter_contract.py``,
  and the transport layer relies on the converse ordering — the budget
  error fires *before* the message crosses the wire).

All updates are O(1); the report is a pure snapshot, so two runs that
exchange the same messages in the same order produce byte-identical
reports whatever the real thread count was.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import CommBudgetError, InvalidParameterError


def make_comm_budget(
    words: Optional[int], context: str = ""
) -> Optional["CommBudget"]:
    """Validated :class:`CommBudget` construction shared by every entry
    point that accepts a user-supplied word cap (``distribute`` CLI,
    the serve server's distribute handler, the serve client CLI).

    ``None`` means "unmetered" and passes through; anything else must
    be a positive integer, and violations raise the typed
    :class:`~repro.errors.InvalidParameterError` at the API boundary
    instead of the bare ``ValueError`` the dataclass guard would throw
    from deep inside meter construction.
    """
    if words is None:
        return None
    if isinstance(words, bool) or not isinstance(words, int):
        raise InvalidParameterError(
            "comm_budget", words, "must be an integer number of words"
        )
    if words <= 0:
        raise InvalidParameterError(
            "comm_budget", words, "must be a positive number of words"
        )
    return CommBudget(words, context=context)


def link_label(src: str, dst: str) -> str:
    """The canonical ``src->dst`` label of a directed link.

    Single source of truth for link naming: the meter, the coordinators,
    and the async delivery simulator all agree on this format, so a
    message delivered through the scheduler is charged to exactly the
    link a synchronous merge would have used.
    """
    return f"{src}->{dst}"


def check_count(parameter: str, value: object, minimum: int = 1) -> None:
    """Reject anything but a non-bool int ``>= minimum`` with a typed error.

    The entry points run it before routing, so a float, a bool or an
    out-of-range count never reaches ``range()``, an executor pool or a
    logical clock.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or value < minimum
    ):
        raise InvalidParameterError(parameter, value, f"must be an int >= {minimum}")


def check_link_delays(
    link_delays: Optional[Mapping[str, int]], default_delay: int
) -> Dict[str, int]:
    """Validate per-link delays (keyed by ``src->dst`` label) and their
    default, in logical steps; returns the delays as a plain dict."""
    check_count("default_delay", default_delay, minimum=0)
    delays = dict(link_delays or {})
    for label, delay in delays.items():
        check_count(f"link_delays[{label}]", delay, minimum=0)
    return delays


@dataclass
class CommBudget:
    """A hard cap, in words, on the *total* communication of a merge."""

    words: int
    context: str = ""

    def __post_init__(self) -> None:
        if self.words <= 0:
            raise ValueError(f"comm budget must be positive, got {self.words}")


@dataclass
class CommReport:
    """Immutable snapshot of a :class:`CommMeter`.

    ``per_link_words`` / ``per_link_messages`` map ``"src->dst"`` link
    labels to the words and message counts carried; ``messages`` holds
    the full ``(src, dst, words)`` log when the meter was built with
    ``log_messages=True`` (used by the equivalence tests to recount the
    meter's totals naively), and is empty otherwise.
    """

    total_words: int
    max_message_words: int
    num_messages: int
    per_link_words: Dict[str, int] = field(default_factory=dict)
    per_link_messages: Dict[str, int] = field(default_factory=dict)
    messages: Tuple[Tuple[str, str, int], ...] = ()

    def busiest_link(self) -> Optional[str]:
        """Label of the link carrying the most words, or ``None`` if idle.

        Ties break to the lexicographically *smallest* label, not dict
        insertion order, mirroring
        :meth:`~repro.streaming.space.SpaceReport.dominant_component` —
        two runs that charge equal-weight links in different orders must
        report the same busiest link.
        """
        if not self.per_link_words:
            return None
        return min(
            self.per_link_words.items(), key=lambda kv: (-kv[1], kv[0])
        )[0]

    def link_words(self, src: str, dst: str) -> int:
        """Words carried on the ``src->dst`` link (0 if unused)."""
        return self.per_link_words.get(link_label(src, dst), 0)


class CommMeter:
    """Tracks per-link and aggregate communication of a distributed run.

    Like the space meter, the comm meter counts idealised machine
    *words* (one per id, two per key/value pair), not Python bytes —
    that is what Theorem 2's bounds are stated in.  One meter observes
    one merge; the coordinator records every message via :meth:`record`
    and the executor snapshots :meth:`report` into the
    :class:`~repro.distributed.executor.DistributedResult`.
    """

    __slots__ = (
        "_per_link_words",
        "_per_link_messages",
        "_total",
        "_max_message",
        "_count",
        "_messages",
        "budget",
    )

    def __init__(
        self,
        budget: Optional[CommBudget] = None,
        log_messages: bool = False,
    ) -> None:
        self._per_link_words: Dict[str, int] = {}
        self._per_link_messages: Dict[str, int] = {}
        self._total = 0
        self._max_message = 0
        self._count = 0
        # The log costs O(messages) memory; it exists for audits and the
        # naive-recount equivalence tests, never for production merges.
        self._messages: Optional[List[Tuple[str, str, int]]] = (
            [] if log_messages else None
        )
        self.budget = budget

    def record(self, src: str, dst: str, words: int) -> str:
        """Charge one ``words``-word message on the ``src -> dst`` link.

        Returns the link label.  The message is recorded *before* any
        budget violation is raised, so the report of a tripped meter
        shows the totals including the offending message.
        """
        if words < 0:
            raise ValueError(f"message size must be >= 0, got {words}")
        link = link_label(src, dst)
        self._per_link_words[link] = self._per_link_words.get(link, 0) + words
        self._per_link_messages[link] = self._per_link_messages.get(link, 0) + 1
        self._total += words
        self._count += 1
        if words > self._max_message:
            self._max_message = words
        if self._messages is not None:
            self._messages.append((src, dst, words))
        budget = self.budget
        if budget is not None and self._total > budget.words:
            raise CommBudgetError(
                used=self._total,
                budget=budget.words,
                context=budget.context,
                link=link,
                message_words=words,
            )
        return link

    # -- queries ---------------------------------------------------------

    @property
    def total_words(self) -> int:
        """Total words sent across all links so far."""
        return self._total

    @property
    def max_message_words(self) -> int:
        """Largest single message recorded so far."""
        return self._max_message

    @property
    def num_messages(self) -> int:
        """Number of messages recorded so far."""
        return self._count

    def link_words(self, src: str, dst: str) -> int:
        """Words carried on the ``src->dst`` link so far (0 if unused)."""
        return self._per_link_words.get(link_label(src, dst), 0)

    def report(self) -> CommReport:
        """Snapshot of the totals and the per-link breakdown."""
        return CommReport(
            total_words=self._total,
            max_message_words=self._max_message,
            num_messages=self._count,
            per_link_words=dict(self._per_link_words),
            per_link_messages=dict(self._per_link_messages),
            messages=tuple(self._messages) if self._messages is not None else (),
        )

    def reset(self) -> None:
        """Clear every recorded message and total."""
        self._per_link_words.clear()
        self._per_link_messages.clear()
        self._total = 0
        self._max_message = 0
        self._count = 0
        if self._messages is not None:
            self._messages = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CommMeter(total={self._total}, max_message={self._max_message}, "
            f"messages={self._count}, links={len(self._per_link_words)})"
        )


def words_for_cover_message(cover_size: int, certificate_size: int) -> int:
    """Words for a shard's (cover, certificate) upload: 1 + 2 per entry."""
    if cover_size < 0 or certificate_size < 0:
        raise ValueError("sizes must be >= 0")
    return cover_size + 2 * certificate_size


def words_for_candidate_message(member_counts: "list[int]") -> int:
    """Words for a candidate-set upload: one id plus one word per member."""
    return sum(1 + count for count in member_counts)
