"""Throughput benchmark harness for the streaming hot path.

Measures end-to-end edges/sec (and peak RSS) of the three core one-pass
algorithms — KK, random-order (Algorithm 1) and the low-space
adversarial algorithm (Algorithm 2) — on a ladder of instance sizes,
plus the sharded executor, the wire transports and the merge critical
path.  Results are written to ``BENCH_perf.json`` at the repository
root so every future PR has a trajectory to regress against; CI runs
the ``smoke`` tier and fails on a >2x edges/sec regression.

Two tiers:

* ``smoke``  — one small instance (~3e4 edges), seconds; used by CI.
* ``full``   — three sizes up to ~1e6 edges; the committed numbers.

Every measurement is a *section*: a generator ``(tier, seed, ...) ->
Iterator[dict]`` yielding one flat row per cell, keys in the order
``BENCH_perf.json`` records them.  :data:`SECTIONS` maps each section
name to its generator and says whether the file records it;
:func:`run_section` runs one section, and :func:`write_bench_file`
replaces exactly the sections it is given.  Sections that check a
correctness contract (backend parity, transport parity, merge
verification, tracing transparency) raise
``AssertionError`` rather than yield a row that would contradict it.

Use :func:`run_section` programmatically or ``scripts/run_perf_bench.py``
from the command line.
"""

from __future__ import annotations

import json
import math
import platform
import resource
import time
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.adversarial import LowSpaceAdversarialAlgorithm
from repro.core.base import StreamingSetCoverAlgorithm
from repro.core.kk import KKAlgorithm
from repro.core.random_order import RandomOrderAlgorithm
from repro.generators.random_instances import fixed_size_instance
from repro.obs.tracer import RecordingTracer
from repro.streaming.instance import SetCoverInstance
from repro.streaming.orders import RandomOrder
from repro.streaming.stream import ReplayableStream

#: Benchmark tiers: label -> list of (config_name, n, m, set_size).
#: Stream length is m * set_size edges (fixed-size sets, all distinct).
TIERS: Dict[str, List[Tuple[str, int, int, int]]] = {
    "smoke": [
        ("small", 200, 1500, 20),  # 3.0e4 edges
    ],
    "full": [
        ("small", 300, 3000, 30),  # 9.0e4 edges
        ("medium", 600, 8000, 40),  # 3.2e5 edges
        ("large", 1000, 20000, 50),  # 1.0e6 edges
    ],
}


def timed(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Tuple[Any, float]:
    """``(fn(*args, **kwargs), wall seconds)``, timed on ``perf_counter``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def _rate(edges: int, seconds: float) -> float:
    return round(edges / max(seconds, 1e-9), 1)


def _instances(
    tier: str, seed: int, configs: Optional[Sequence[str]] = None
) -> Iterator[Tuple[str, int, int, SetCoverInstance]]:
    """``(config, n, m, instance)`` for every config of ``tier``.

    ``configs`` optionally restricts the tier to the named configs.
    """
    if tier not in TIERS:
        raise ValueError(f"unknown tier {tier!r}; known: {sorted(TIERS)}")
    for config, n, m, set_size in TIERS[tier]:
        if configs is None or config in configs:
            yield config, n, m, fixed_size_instance(n, m, set_size, seed=seed)


def _algorithms(n: int, seed: int) -> Dict[str, Callable[[], StreamingSetCoverAlgorithm]]:
    """Fresh algorithm factories for one benchmark cell."""
    alpha = 2.0 * math.sqrt(n)
    return {
        "kk": lambda: KKAlgorithm(seed=seed),
        "random-order": lambda: RandomOrderAlgorithm(seed=seed),
        "adversarial": lambda: LowSpaceAdversarialAlgorithm(alpha=alpha, seed=seed),
    }


def _same_run(a, b) -> bool:
    """Two single-stream results agree on cover, certificate and space."""
    return (
        a.cover == b.cover
        and a.certificate == b.certificate
        and a.space.peak_words == b.space.peak_words
    )


# -- sections -----------------------------------------------------------------


def bench_throughput(
    tier: str,
    seed: int = 0,
    algorithms: Optional[Sequence[str]] = None,
    configs: Optional[Sequence[str]] = None,
) -> Iterator[dict]:
    """The throughput ladder: edges/sec of each core algorithm per config.

    ``algorithms`` optionally restricts the cell to a subset of
    ``{"kk", "random-order", "adversarial"}``, and ``configs`` the
    ladder to the named configs of ``tier``.
    """
    for config, n, m, instance in _instances(tier, seed, configs):
        replayable = ReplayableStream(instance, RandomOrder(seed=seed))
        for name, factory in _algorithms(n, seed).items():
            if algorithms is not None and name not in algorithms:
                continue
            result, seconds = timed(factory().run, replayable.fresh())
            yield {
                "config": config,
                "algorithm": name,
                "n": n,
                "m": m,
                "stream_length": replayable.length,
                "seconds": round(seconds, 4),
                "edges_per_sec": _rate(replayable.length, seconds),
                "peak_words": result.space.peak_words,
                "cover_size": result.cover_size,
                # Process high-water RSS in KiB (Linux ``ru_maxrss`` unit).
                "max_rss_kb": int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
            }


def bench_trace_overhead(tier: str, seed: int = 0) -> Iterator[dict]:
    """Structured-tracing cost, off vs on (asserts tracing perturbs no cover).

    Each algorithm runs twice on the same frozen stream with the same
    seed: untraced (the hot path pays only ``tracer.enabled`` checks)
    and with a :class:`RecordingTracer`.  Tracing that changes the
    cover, certificate or space is a bug, not an overhead.
    """
    for config, n, _, instance in _instances(tier, seed):
        replayable = ReplayableStream(instance, RandomOrder(seed=seed))
        for name, factory in _algorithms(n, seed).items():
            result_off, seconds_off = timed(factory().run, replayable.fresh())
            tracer = RecordingTracer()
            traced = factory()
            traced.set_tracer(tracer)
            result_on, seconds_on = timed(traced.run, replayable.fresh())
            tracer.finish()
            assert _same_run(result_off, result_on), (
                f"tracing perturbed {name} on {config}: covers/certificates/"
                "space must be bit-identical with and without a tracer"
            )
            yield {
                "config": config,
                "algorithm": name,
                "stream_length": replayable.length,
                "seconds_off": round(seconds_off, 4),
                "seconds_on": round(seconds_on, 4),
                "overhead_fraction": round(
                    seconds_on / max(seconds_off, 1e-9) - 1.0, 4
                ),
                "events": len(tracer.events),
                "covers_identical": True,
            }


#: Timed runs per distributed cell; the row records the fastest.
DISTRIBUTED_REPEATS = 3


def bench_distributed(
    tier: str, seed: int = 0, workers_grid: Sequence[int] = (1, 2, 4, 8)
) -> Iterator[dict]:
    """The sharded executor's backend x W scaling surface (kk, chain).

    Backends serial/thread/process over W in {1,2,4,8} by default;
    ``max_workers`` equals ``workers``, so each point measures the
    speedup available at that shard width.  Each cell runs
    :data:`DISTRIBUTED_REPEATS` times, asserts the repeats return the
    identical cover and comm report, and records the fastest run.  The
    serial backend runs first so every later cell gets
    ``speedup_vs_serial`` against the same-shaped serial run, and its
    cover is asserted equal.
    """
    from repro.distributed import run_distributed

    for config, _, _, instance in _instances(tier, seed):
        serial: Dict[int, Tuple[float, int]] = {}
        for backend in ("serial", "thread", "process"):
            for workers in workers_grid:
                runs = [
                    timed(
                        run_distributed,
                        instance,
                        workers=workers,
                        algorithm="kk",
                        coordinator="chain",
                        seed=seed,
                        max_workers=workers,
                        backend=backend,
                    )
                    for _ in range(DISTRIBUTED_REPEATS)
                ]
                result = runs[0][0]
                for repeat, _ in runs[1:]:
                    assert (repeat.cover, repeat.comm) == (result.cover, result.comm), (
                        f"repeated {backend!r} runs diverged at {config} "
                        f"W={workers}: determinism contract broken"
                    )
                seconds = min(seconds for _, seconds in runs)
                speedup = None
                if backend == "serial":
                    serial[workers] = (seconds, result.cover_size)
                else:
                    serial_seconds, serial_cover = serial[workers]
                    assert result.cover_size == serial_cover, (
                        f"backend {backend!r} diverged from serial at "
                        f"{config} W={workers}: determinism contract broken"
                    )
                    speedup = round(serial_seconds / max(seconds, 1e-9), 3)
                yield {
                    "config": config,
                    "backend": backend,
                    "workers": workers,
                    "max_workers": workers,
                    "algorithm": "kk",
                    "coordinator": "chain",
                    "stream_length": instance.num_edges,
                    "repeats": DISTRIBUTED_REPEATS,
                    "seconds": round(seconds, 4),
                    "edges_per_sec": _rate(instance.num_edges, seconds),
                    "speedup_vs_serial": speedup,
                    "cover_size": result.cover_size,
                    "total_comm_words": result.total_comm_words,
                    "max_message_words": result.max_message_words,
                    "peak_shard_words": int(
                        result.diagnostics.get("peak_shard_space_words", 0)
                    ),
                }


def bench_transport(tier: str, seed: int = 0) -> Iterator[dict]:
    """Wire bytes/frames per (transport, coordinator) (asserts inproc parity).

    The inproc cell of each coordinator is the parity baseline: the
    other transports must deliver the identical cover, certificate and
    comm report.  ``overhead_ratio`` is wire bytes over 8 × metered
    words, ≥ 1 by construction.  Where binding is forbidden the socket
    cells are skipped (absent from the rows).
    """
    from repro.distributed import run_distributed
    from repro.distributed.transport import make_transport
    from repro.errors import TransportError

    workers = 4

    for config, _, _, instance in _instances(tier, seed):
        for coordinator in ("union", "greedy", "chain", "tree"):
            baseline = None
            for name in ("inproc", "loopback", "socket"):
                try:
                    wire_transport = make_transport(name)
                except TransportError:
                    continue
                result, seconds = timed(
                    run_distributed,
                    instance,
                    workers=workers,
                    coordinator=coordinator,
                    seed=seed,
                    transport=wire_transport,
                )
                merged = (result.cover, result.certificate, result.comm)
                baseline = baseline or merged
                assert merged == baseline, (
                    f"transport {name!r} diverged from inproc at "
                    f"{config}/{coordinator}: parity contract broken"
                )
                wire = result.transport
                yield {
                    "config": config,
                    "transport": name,
                    "coordinator": coordinator,
                    "codec": wire.codec,
                    "workers": workers,
                    "seconds": round(seconds, 4),
                    "metered_words": wire.metered_words,
                    "wire_bytes": wire.total_bytes,
                    "frames": wire.total_frames,
                    "retransmits": wire.retransmits,
                    "overhead_ratio": round(wire.overhead_ratio, 4),
                    "parity_with_inproc": True,
                }


def bench_merge(
    tier: str, seed: int = 0, workers_grid: Optional[Sequence[int]] = None
) -> Iterator[dict]:
    """Merge critical path, chain vs tree (asserts tree < chain steps at W>=8).

    Each cell runs the async simulator (serial backend, fault-free
    schedule) so the logical clock measures pure dependency depth; the
    result is verified against its instance and its cover asserted equal
    to the synchronous run's.  At every ``W >= 8`` the tree's critical
    path must be strictly below the chain's.  ``workers_grid`` defaults
    to ``(2, 4, 8)`` on the smoke tier and ``(2, 4, 8, 16)`` otherwise.
    """
    from repro.distributed import run_distributed
    from repro.distributed.asyncsim import run_distributed_async

    if workers_grid is None:
        workers_grid = (2, 4, 8) if tier == "smoke" else (2, 4, 8, 16)
    for config, _, _, instance in _instances(tier, seed):
        for workers in workers_grid:
            steps: Dict[Tuple[str, str], int] = {}
            for coordinator in ("chain", "tree"):
                for mode in ("fixed", "adaptive"):
                    options = dict(
                        workers=workers,
                        coordinator=coordinator,
                        adaptive_threshold=mode == "adaptive",
                        seed=seed,
                        backend="serial",
                    )
                    result, seconds = timed(
                        run_distributed_async, instance, schedule_seed=seed, **options
                    )
                    result.verify(instance)
                    assert result.cover == run_distributed(instance, **options).cover, (
                        f"async/sync cover parity broken at {config}/"
                        f"{coordinator}/{mode} W={workers}"
                    )
                    diagnostics = result.diagnostics
                    steps[coordinator, mode] = int(diagnostics["logical_steps"])
                    yield {
                        "config": config,
                        "coordinator": coordinator,
                        "threshold_mode": mode,
                        "workers": workers,
                        "seconds": round(seconds, 4),
                        "logical_steps": steps[coordinator, mode],
                        "idle_ticks": int(diagnostics["idle_ticks"]),
                        "merge_rounds": int(
                            diagnostics.get("merge_rounds", workers - 1)
                        ),
                        "cover_size": result.cover_size,
                        "total_comm_words": result.total_comm_words,
                        "max_message_words": result.max_message_words,
                    }
            if workers >= 8:
                for mode in ("fixed", "adaptive"):
                    tree, chain = steps["tree", mode], steps["chain", mode]
                    assert tree < chain, (
                        f"tournament merge lost its latency edge at {config}/"
                        f"{mode} W={workers}: tree {tree} steps vs chain "
                        f"{chain} — critical path must be Theta(log W)"
                    )


class Section(NamedTuple):
    """One benchmark section: its row generator and where its rows go."""

    run: Callable[..., Iterator[dict]]
    #: Whether ``BENCH_perf.json`` keeps a section of this name.
    recorded: bool = True
    #: A fixed tier, overriding the caller's (the throughput ladder's
    #: ``smoke``/``full`` sections are named after their tier).
    tier: Optional[str] = None


#: Section name -> section, in run order (and ``BENCH_perf.json`` order).
SECTIONS: Dict[str, Section] = {
    "smoke": Section(bench_throughput, tier="smoke"),
    "full": Section(bench_throughput, tier="full"),
    "trace_overhead": Section(bench_trace_overhead, recorded=False),
    "distributed": Section(bench_distributed),
    "transport": Section(bench_transport),
    "merge": Section(bench_merge),
}


def format_row(name: str, row: Mapping[str, object]) -> str:
    """One progress line for one row of section ``name``."""
    return f"{name:>14} " + " ".join(f"{key}={value}" for key, value in row.items())


def run_section(
    name: str,
    tier: str = "smoke",
    seed: int = 0,
    progress: Optional[Callable[[str], None]] = None,
    **options: Any,
) -> List[dict]:
    """Run section ``name`` to its list of rows.

    ``options`` go to the section's generator (e.g. ``workers_grid``);
    ``progress`` receives one :func:`format_row` line per row as it
    lands.
    """
    section = SECTIONS[name]
    rows: List[dict] = []
    for row in section.run(section.tier or tier, seed, **options):
        rows.append(row)
        if progress is not None:
            progress(format_row(name, row))
    return rows


# -- the committed file and its gates -----------------------------------------


def load_bench_file(path: Path) -> dict:
    """Read a ``BENCH_perf.json`` file (empty dict if absent)."""
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def write_bench_file(
    path: Path,
    sections: Mapping[str, Sequence[dict]],
    seed_baseline: Optional[List[dict]] = None,
) -> dict:
    """Write ``BENCH_perf.json``, replacing only the given sections.

    ``sections`` maps recorded section names to their rows; every other
    section keeps its committed rows, so a distributed-only run does not
    clobber the throughput ladder, and vice versa.  ``seed_baseline``
    holds the pre-optimization ("before") numbers; it is kept verbatim
    across re-runs unless given, so the speedup trajectory stays
    visible in the committed file.
    """
    recorded = [name for name, section in SECTIONS.items() if section.recorded]
    unknown = sorted(set(sections) - set(recorded))
    if unknown:
        raise ValueError(f"not recorded in BENCH_perf.json: {unknown}")
    existing = load_bench_file(path)
    payload = {
        "schema": 5,
        "description": (
            "Hot-path throughput benchmark; see scripts/run_perf_bench.py. "
            "'seed_baseline' is the pre-optimization measurement, "
            "'full'/'smoke' are the current code, 'distributed' the "
            "backend x W scaling surface of the sharded executor "
            "(the fastest of 'repeats' identical runs per cell; "
            "speedup_vs_serial compares each backend against the serial "
            "backend at the same shard width), "
            "'transport' the wire layer's measured bytes/frames per "
            "(transport, coordinator) cell with the bytes-per-word "
            "overhead ratio (>= 1 by construction; parity_with_inproc "
            "certifies identical covers/comm reports across transports), "
            "and 'merge' the async-clock critical path of chain vs "
            "tournament merge under fixed vs adaptive tau (tree "
            "logical_steps grow as Theta(log W) vs the chain's Theta(W); "
            "every cell is verified and sync/async cover parity is "
            "asserted before the numbers are recorded). "
            "Caveat: numbers committed from a single-core container "
            "cannot show process-backend speedup; the CI artifact carries "
            "the multi-core measurement."
        ),
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "seed_baseline": (
            seed_baseline
            if seed_baseline is not None
            else existing.get("seed_baseline", [])
        ),
    }
    for name in recorded:
        payload[name] = (
            list(sections[name]) if name in sections else existing.get(name, [])
        )
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return payload


def _by_cell(rows: Sequence[dict]) -> Dict[Tuple[str, str], float]:
    """Throughput rows keyed by (config, algorithm) -> edges/sec."""
    return {(row["config"], row["algorithm"]): row["edges_per_sec"] for row in rows}


def check_regression(
    current: Sequence[dict], committed: Sequence[dict], factor: float = 2.0
) -> List[str]:
    """Compare throughput rows against committed ones.

    Returns one human-readable failure string per (config, algorithm)
    cell whose edges/sec dropped by more than ``factor`` versus the
    committed row; an empty list means no regression.
    """
    baseline = _by_cell(committed)
    failures: List[str] = []
    for row in current:
        reference = baseline.get((row["config"], row["algorithm"]))
        if reference and row["edges_per_sec"] * factor < reference:
            failures.append(
                f"{row['config']}/{row['algorithm']}: "
                f"{row['edges_per_sec']:,.0f} edges/s is more than {factor}x "
                f"below the committed {reference:,.0f} edges/s"
            )
    return failures


#: Algorithms whose batched kernels must beat their scalar seed baseline.
FLOOR_ALGORITHMS = ("kk", "adversarial")

#: The ``full``-tier config the floor gate measures: the seed baseline's
#: fastest kk and adversarial cells are both this 9e4-edge config, so
#: the gate compares like with like.
FLOOR_CONFIG = "small"


def floor_rows(seed_baseline: Sequence[dict]) -> Dict[str, dict]:
    """The *fastest* seed-baseline row of each :data:`FLOOR_ALGORITHMS` entry.

    An algorithm absent from the baseline has no row.
    """
    floors: Dict[str, dict] = {}
    for name in FLOOR_ALGORITHMS:
        rows = [row for row in seed_baseline if row.get("algorithm") == name]
        if rows:
            floors[name] = max(rows, key=lambda row: row["edges_per_sec"])
    return floors


def check_floor(current: Sequence[dict], seed_baseline: Sequence[dict]) -> List[str]:
    """Fail if a batched kernel falls back to its scalar seed baseline.

    Each algorithm of :data:`FLOOR_ALGORITHMS` has its own floor: its
    :func:`floor_rows` cell, the fastest the scalar implementation ever
    achieved.  Returns failure strings (empty = pass); an algorithm
    absent from the baseline passes vacuously.
    """
    floors = {
        name: row["edges_per_sec"] for name, row in floor_rows(seed_baseline).items()
    }
    return [
        f"{row['config']}/{row['algorithm']}: {row['edges_per_sec']:,.0f} edges/s "
        f"is below the scalar seed-baseline floor of "
        f"{floors[row['algorithm']]:,.0f} edges/s — the batched kernel has regressed"
        for row in current
        if row["algorithm"] in floors and row["edges_per_sec"] < floors[row["algorithm"]]
    ]


def speedup_table(
    before: Sequence[dict], after: Sequence[dict]
) -> List[Tuple[str, str, float, float, float]]:
    """Rows of (config, algorithm, before, after, speedup) for reporting."""
    by_key = _by_cell(before)
    rows = []
    for row in after:
        ref = by_key.get((row["config"], row["algorithm"]))
        if ref:
            rate = row["edges_per_sec"]
            rows.append((row["config"], row["algorithm"], ref, rate, rate / ref))
    return rows
