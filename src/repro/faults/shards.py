"""Shard-level infrastructure faults: crashes, stragglers, duplicates.

:mod:`repro.faults.injectors` perturbs the *data* a shard sees; this
module perturbs the *machines*.  A :class:`ShardFaultSpec` describes
what goes wrong with one shard's execution and delivery —

``crash``
    The shard's first ``crash_attempts`` execution attempts raise
    :class:`~repro.errors.ShardCrashError`.  A transient crash
    (``crash_attempts=1``) is healed by one retry; a permanent crash
    (``crash_attempts >= max_attempts``) abandons the shard.
``straggle``
    Every attempt takes ``straggle_steps`` extra logical steps.  With a
    ``deadline_steps`` policy attached a persistent straggler times out
    on every attempt and is abandoned.
``duplicate``
    The shard's envelope is delivered twice through the asynchronous
    scheduler.  Consumers must be idempotent — duplicate deliveries are
    deduplicated by shard index and must not change the merge.

A :class:`ShardFaultPlan` maps shard indices to specs.  Plans are built
either explicitly (tests pinning a scenario) or via :meth:`seeded`,
which draws each shard's afflictions independently from one seeded RNG
— the same discipline as :class:`~repro.faults.injectors.FaultSpec`, so
a failing chaos cell reproduces from its seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Tuple

from repro.errors import ConfigurationError
from repro.types import SeedLike, make_rng

#: Shard-fault vocabulary, mirroring the stream-fault ``FAULT_KINDS``.
SHARD_FAULT_KINDS: Tuple[str, ...] = ("crash", "straggle", "duplicate")

#: ``crash_attempts`` value meaning "crashes on every attempt".
PERMANENT = 1 << 30


@dataclass(frozen=True)
class ShardFaultSpec:
    """What goes wrong with one shard's execution and delivery."""

    crash_attempts: int = 0
    straggle_steps: int = 0
    duplicate: bool = False

    def __post_init__(self) -> None:
        if self.crash_attempts < 0:
            raise ConfigurationError(
                f"crash_attempts must be >= 0, got {self.crash_attempts}"
            )
        if self.straggle_steps < 0:
            raise ConfigurationError(
                f"straggle_steps must be >= 0, got {self.straggle_steps}"
            )

    @property
    def is_clean(self) -> bool:
        """True iff this spec injects nothing."""
        return (
            self.crash_attempts == 0
            and self.straggle_steps == 0
            and not self.duplicate
        )


_CLEAN = ShardFaultSpec()


class ShardFaultPlan:
    """Per-shard fault assignment for one distributed run."""

    def __init__(self, specs: Mapping[int, ShardFaultSpec] = ()) -> None:
        self._specs: Dict[int, ShardFaultSpec] = {
            int(index): spec
            for index, spec in dict(specs).items()
            if not spec.is_clean
        }

    def spec_for(self, index: int) -> ShardFaultSpec:
        """The spec afflicting shard ``index`` (clean by default)."""
        return self._specs.get(index, _CLEAN)

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self._specs))

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{index}:{self._specs[index]!r}" for index in sorted(self._specs)
        )
        return f"ShardFaultPlan({{{parts}}})"

    @classmethod
    def seeded(
        cls,
        workers: int,
        seed: SeedLike = 0,
        crash_rate: float = 0.0,
        flaky_rate: float = 0.0,
        straggle_rate: float = 0.0,
        straggle_steps: int = 3,
        duplicate_rate: float = 0.0,
    ) -> "ShardFaultPlan":
        """Draw each shard's afflictions from one seeded RNG.

        ``crash_rate`` afflicts a shard with a *permanent* crash (every
        attempt fails); ``flaky_rate`` with a *transient* one (only the
        first attempt fails, so one retry heals it).  Draws happen in
        shard-index order with one draw per rate whether or not it
        fires, so changing one rate never reshuffles another's picks.
        """
        if workers < 1:
            raise ConfigurationError(f"need at least 1 worker, got {workers}")
        for name, rate in (
            ("crash_rate", crash_rate),
            ("flaky_rate", flaky_rate),
            ("straggle_rate", straggle_rate),
            ("duplicate_rate", duplicate_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0, 1], got {rate}"
                )
        rng = make_rng(seed)
        specs: Dict[int, ShardFaultSpec] = {}
        for index in range(workers):
            crash_draw = rng.random()
            flaky_draw = rng.random()
            straggle_draw = rng.random()
            duplicate_draw = rng.random()
            crash_attempts = 0
            if crash_draw < crash_rate:
                crash_attempts = PERMANENT
            elif flaky_draw < flaky_rate:
                crash_attempts = 1
            spec = ShardFaultSpec(
                crash_attempts=crash_attempts,
                straggle_steps=(
                    straggle_steps if straggle_draw < straggle_rate else 0
                ),
                duplicate=duplicate_draw < duplicate_rate,
            )
            if not spec.is_clean:
                specs[index] = spec
        return cls(specs)
