"""Shared machinery of the layer benchmark: timing loop, statistics, hooks.

Everything here measures the program from outside.  Layer timings come
from wrappers installed around the program's public functions and
methods for the duration of one traced op, then removed again, so an
untraced op runs the unmodified program.  The end-to-end run (``--trace
0``) installs no wrapper at all.
"""

from __future__ import annotations

import gc
import importlib
import json
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Timed ops every run must complete, so that at least ten samples lie
#: beyond the nearest-rank p90 (``N - ceil(0.9 N) >= 10`` needs N >= 100).
MIN_OPS = 100

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: Distinct seeded op variants of a closed-loop workload.  Odd, so that
#: under the traced run's even/odd alternation every variant is run both
#: traced and untraced and the two results can be compared.
VARIANTS = 7

#: Iterations of the host-drift probe loop (about 1.3-2.2 ms of Python).
PROBE_ITERATIONS = 20_000

#: The probe's time in the host's fast state, in ms.  End-to-end timings
#: are reported as if every probe had read this (see NOTES.md,
#: "Host calibration"); the raw timings are in the diagnostics.
REFERENCE_PROBE_MS = 1.5

#: Probes taken after each set-up, for the set-up calibration.
SETUP_PROBES = 5

# name -> unit for every per-layer metric a traced run prints.  A layer a
# workload does not exercise reads 0 (see NOTES.md, "Per-layer metrics").
PER_LAYER_UNITS: Dict[str, str] = {
    "host.probe_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.op_ms": "ms",
    "other_ms": "ms",
    "other_share": "ratio",
    "gc.pause_ms": "ms",
    "gc.pause_share": "ratio",
    "gc.gen2_collections": "count",
    "streaming.freeze_s": "s",
    "core.kk_ms": "ms",
    "core.kk_share": "ratio",
    "core.random_order_ms": "ms",
    "core.random_order_share": "ratio",
    "core.adversarial_ms": "ms",
    "core.adversarial_share": "ratio",
    "core.edges_per_s": "edges/s",
    "verify.ms": "ms",
    "verify.share": "ratio",
    "orders.apply_ms": "ms",
    "orders.apply_share": "ratio",
    "router.route_ms": "ms",
    "router.route_share": "ratio",
    "backends.run_tasks_ms": "ms",
    "backends.run_tasks_share": "ratio",
    "worker.feed_ms": "ms",
    "worker.feed_share": "ratio",
    "worker.run_ms": "ms",
    "worker.run_share": "ratio",
    "coordinator.merge_ms": "ms",
    "coordinator.merge_share": "ratio",
    "transport.send_ms": "ms",
    "transport.send_share": "ratio",
    "executor.w1_ms": "ms",
    "executor.kernel_ms": "ms",
    "executor.w1_over_kernel": "ratio",
    "transport.bytes": "bytes",
    "transport.frames": "count",
    "transport.overhead_ratio": "ratio",
    "comm.max_message_words": "words",
    "asyncsim.logical_steps": "count",
    "asyncsim.idle_ticks": "count",
    "serve.compute_ms": "ms",
    "serve.compute_share": "ratio",
    "serve.spine_ms": "ms",
    "serve.spine_share": "ratio",
    "loadgen.late_ms": "ms",
    "protocol.encode_ms": "ms",
    "protocol.decode_ms": "ms",
    "protocol.frame_bytes": "bytes",
    "admission.queued": "count",
    "admission.rejected": "count",
    "admission.peak_space_words": "words",
}

END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "ok_frac": "ratio",
    "cover_sets": "sets",
    "peak_space_words": "words",
    "comm_words": "words",
    "peak_rss_mb": "MB",
}

#: The per-op counts every workload reports for its fixed op sequence.
COUNT_METRICS = ("cover_sets", "peak_space_words", "comm_words")


class CorrectnessError(Exception):
    """A result the benchmark refuses: invalid, non-deterministic, or
    different between a traced and an untraced run of the same op."""


# -- statistics --------------------------------------------------------------


def tail_percentile(samples: Sequence[float], q: int = 90) -> float:
    """Nearest-rank ``q``-th percentile with at least ten samples beyond it.

    Raises :class:`ValueError` when the sample is too small for the rule,
    so a run can never report a tail it did not observe.
    """
    ordered = sorted(samples)
    rank = -(-q * len(ordered) // 100)  # ceil(q% of n) in integers
    if len(ordered) - rank < 10:
        raise ValueError(
            f"p{q} needs >= 10 samples beyond it; {len(ordered)} samples "
            f"leave {len(ordered) - rank}"
        )
    return ordered[rank - 1]


def tail_or_max(samples: Sequence[float]) -> float:
    """The p90 where the sample allows it, else the maximum.

    A run with fewer than :data:`MIN_OPS` samples is already marked
    incorrect; this only keeps it printable.
    """
    if len(samples) >= MIN_OPS:
        return tail_percentile(samples)
    return max(samples, default=0.0)


def median(samples: Sequence[float]) -> float:
    return float(statistics.median(samples)) if samples else 0.0


def mean(samples: Sequence[float]) -> float:
    return float(sum(samples)) / len(samples) if samples else 0.0


# -- host drift probe and process resources ----------------------------------


def host_probe_ms() -> float:
    """Time one fixed pure-Python loop owned by the benchmark.

    It allocates nothing the collector tracks and touches no program
    state, so only the host's speed moves it.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += (i * i) % 7
    elapsed = time.perf_counter() - start
    if acc < 0:  # keeps the loop's result live
        raise AssertionError
    return elapsed * 1000.0


def self_peak_rss_mb() -> float:
    """High-water RSS of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """High-water RSS (``VmHWM``) of another process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM line for pid {pid}")


# -- layer clock and hooks ---------------------------------------------------


class LayerClock:
    """Per-op accumulated time by layer name, with nesting awareness.

    ``top`` sums only outermost spans, so ``op - top`` is the time no
    named layer accounts for (``other_ms``).  A layer re-entered while
    already open (a wrapped method calling itself through ``super``) is
    counted once.
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.top = 0.0
        self._open: List[str] = []

    def reset(self) -> None:
        self.seconds = {}
        self.top = 0.0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if name in self._open:
            yield
            return
        self._open.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._open.pop()
            self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
            if not self._open:
                self.top += elapsed

    def ms(self, name: str) -> float:
        return self.seconds.get(name, 0.0) * 1000.0


#: A hook target: (module, class name, method name, layer name).
HookSpec = Tuple[str, str, str, str]


class Hooks:
    """Wrap public methods with :class:`LayerClock` spans, reversibly.

    Targets are resolved by name once; a target the program no longer
    has is reported in :attr:`missing` (its layer then reads 0) rather
    than failing the run.
    """

    def __init__(self, clock: LayerClock, specs: Sequence[HookSpec]) -> None:
        self.clock = clock
        self.missing: List[str] = []
        self._targets: List[Tuple[type, str, object, str]] = []
        for module_name, class_name, attr, layer in specs:
            try:
                owner = getattr(importlib.import_module(module_name), class_name)
                original = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{class_name}.{attr}")
                continue
            self._targets.append((owner, attr, original, layer))

    def _wrap(self, original: Callable, layer: str) -> Callable:
        span = self.clock.span

        def timed(*args, **kwargs):
            with span(layer):
                return original(*args, **kwargs)

        timed.__wrapped__ = original  # type: ignore[attr-defined]
        return timed

    @contextmanager
    def installed(self) -> Iterator[None]:
        for owner, attr, original, layer in self._targets:
            setattr(owner, attr, self._wrap(original, layer))
        try:
            yield
        finally:
            for owner, attr, original, _ in self._targets:
                setattr(owner, attr, original)


class GcMeter:
    """Collector pauses and gen-2 collections, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.gen2 = 0
        self._started: Optional[float] = None

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.pause_s += time.perf_counter() - self._started
            self._started = None
            if info.get("generation") == 2:
                self.gen2 += 1

    @contextmanager
    def installed(self) -> Iterator[None]:
        self.pause_s = 0.0
        self.gen2 = 0
        gc.callbacks.append(self)
        try:
            yield
        finally:
            gc.callbacks.remove(self)


# -- the closed loop ---------------------------------------------------------


class ClosedLoopWorkload:
    """Base of the one-caller closed-loop workloads (solve/distribute/merge).

    Subclasses implement :meth:`setup` (repeated :data:`SETUP_REPEATS`
    times) and :meth:`op`, which runs op variant ``i % VARIANTS``,
    verifies its result and returns ``(signature, counts)``: a value
    compared exactly across every run of the same variant, and the
    per-op :data:`COUNT_METRICS`.  During a traced op ``clock`` is a
    live :class:`LayerClock` and the workload's :attr:`hooks` are
    installed.
    """

    name = "abstract"
    hooks: Sequence[HookSpec] = ()
    #: Layer names reported as ``<layer>_ms`` plus ``<layer>_share``.
    timed_layers: Sequence[str] = ()

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def op(self, i: int, clock: Optional[LayerClock]):
        raise NotImplementedError

    def traced_extras(self, i: int) -> Dict[str, float]:
        """Per-layer numbers measured after a traced op, outside its time."""
        return {}

    def layer_summary(self, extras: Dict[str, List[float]]) -> Dict[str, float]:
        """Workload-specific per-layer metrics from collected extras."""
        return {}


def calibrated(ms: float, probe_ms: float) -> float:
    """``ms`` rescaled to a host on which the probe reads the reference."""
    return ms * REFERENCE_PROBE_MS / probe_ms


def run_setups(workload, seed: int, process_start: float) -> Tuple[float, float]:
    """Run the set-up :data:`SETUP_REPEATS` times.

    Returns the raw set-up time (the one-time cost paid before the first
    set-up began -- interpreter, imports, argument parsing -- plus the
    median set-up) and the median probe taken after the set-ups.
    """
    one_time = time.perf_counter() - process_start
    durations = []
    probes = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup(seed)
        durations.append(time.perf_counter() - start)
        probes += [host_probe_ms() for _ in range(SETUP_PROBES)]
    return one_time + median(durations), median(probes)


def _share_name(layer: str) -> str:
    return layer[: -len(".ms")] + ".share" if layer.endswith(".ms") else layer + "_share"


def _ms_name(layer: str) -> str:
    return layer if layer.endswith(".ms") else layer + "_ms"


def run_closed_loop(
    workload: ClosedLoopWorkload,
    seed: int,
    seconds: float,
    trace: bool,
    process_start: float,
) -> Tuple[dict, Dict[str, object]]:
    """Set up, then run ops for ``seconds`` (and at least :data:`MIN_OPS`).

    Returns the result object (``correct``/``attempted``/``failed``/
    ``metrics``) and a diagnostics dict printed before it.
    """
    raw_setup_s, setup_probe = run_setups(workload, seed, process_start)
    clock = LayerClock()
    hooks = Hooks(clock, workload.hooks) if trace else None
    gc_meter = GcMeter()

    latencies: List[float] = []
    # Index into ``probes`` of the probe taken just before each timed op.
    op_probe: List[int] = []
    untraced_ms: List[float] = []
    traced_ms: List[float] = []
    probes: List[float] = []
    layer_ms: Dict[str, List[float]] = {name: [] for name in workload.timed_layers}
    other_ms: List[float] = []
    gc_pause_ms: List[float] = []
    gc_gen2: List[float] = []
    extras: Dict[str, List[float]] = {}
    first: Dict[int, Tuple[object, Dict[str, float]]] = {}
    attempted = failed = 0
    errors: List[str] = []
    correct = True

    start = time.perf_counter()
    busy = 0.0
    i = 0
    while (
        len(latencies) < MIN_OPS and attempted < 2 * MIN_OPS
    ) or time.perf_counter() - start < seconds:
        probes.append(host_probe_ms())
        traced = trace and i % 2 == 0
        variant = i % VARIANTS
        attempted += 1
        clock.reset()
        began = time.perf_counter()
        try:
            if traced:
                with hooks.installed(), gc_meter.installed():
                    signature, counts = workload.op(i, clock)
            else:
                signature, counts = workload.op(i, None)
        except CorrectnessError as exc:
            failed += 1
            correct = False
            errors.append(f"op {i}: {exc}")
            i += 1
            continue
        except Exception as exc:  # noqa: BLE001 - a failed op is counted
            failed += 1
            errors.append(f"op {i}: {type(exc).__name__}: {exc}")
            i += 1
            continue
        elapsed = time.perf_counter() - began
        busy += elapsed
        latencies.append(elapsed * 1000.0)
        op_probe.append(i)
        if variant in first:
            if first[variant] != (signature, counts):
                correct = False
                failed += 1
                errors.append(
                    f"op {i}: variant {variant} differs from its first run "
                    f"({'traced' if traced else 'untraced'})"
                )
        else:
            first[variant] = (signature, counts)
        if trace:
            (traced_ms if traced else untraced_ms).append(elapsed * 1000.0)
        if traced:
            for name in workload.timed_layers:
                layer_ms[name].append(clock.ms(name))
            other_ms.append((elapsed - clock.top) * 1000.0)
            gc_pause_ms.append(gc_meter.pause_s * 1000.0)
            gc_gen2.append(float(gc_meter.gen2))
            for key, value in workload.traced_extras(i).items():
                extras.setdefault(key, []).append(value)
        i += 1
    wall = time.perf_counter() - start
    probes.append(host_probe_ms())
    if len(first) < VARIANTS or len(latencies) < MIN_OPS:
        correct = False
        errors.append(f"only {len(latencies)} ops over {len(first)} variants completed")

    diagnostics: Dict[str, object] = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "ops": len(latencies),
        "wall_s": wall,
        "host.probe_ms": median(probes),
        "host.probe_samples": len(probes),
    }
    if hooks is not None and hooks.missing:
        diagnostics["missing_hooks"] = hooks.missing
    if errors:
        diagnostics["errors"] = errors[:10]

    metrics: Dict[str, float] = {}
    if not trace:
        counts_by_variant = [first[v][1] for v in sorted(first)]
        # Each op is calibrated by the probes just before and after it.
        latencies_cal = [
            calibrated(ms, (probes[k] + probes[k + 1]) / 2.0)
            for ms, k in zip(latencies, op_probe)
        ]
        metrics = {
            "setup_s": calibrated(raw_setup_s, setup_probe),
            "ops_per_s": 1000.0 * len(latencies_cal) / sum(latencies_cal),
            "p50_ms": median(latencies_cal),
            "p90_ms": tail_or_max(latencies_cal),
            "ok_frac": (attempted - failed) / attempted,
        }
        for key in COUNT_METRICS:
            metrics[key] = mean([c[key] for c in counts_by_variant])
        metrics["peak_rss_mb"] = self_peak_rss_mb()
        diagnostics.update(
            {
                "p90_samples": len(latencies),
                "raw.setup_s": raw_setup_s,
                "raw.ops_per_s": len(latencies) / busy,
                "raw.p50_ms": median(latencies),
                "raw.p90_ms": tail_or_max(latencies),
                "setup.probe_ms": setup_probe,
            }
        )
    else:
        op_ms = median(traced_ms)
        metrics = {name: 0.0 for name in PER_LAYER_UNITS}
        metrics["host.probe_ms"] = median(probes)
        metrics["trace.op_ms"] = op_ms
        metrics["trace.overhead_frac"] = (
            op_ms / median(untraced_ms) - 1.0 if untraced_ms else 0.0
        )
        metrics["other_ms"] = median(other_ms)
        metrics["other_share"] = median(other_ms) / op_ms if op_ms else 0.0
        metrics["gc.pause_ms"] = median(gc_pause_ms)
        metrics["gc.pause_share"] = median(gc_pause_ms) / op_ms if op_ms else 0.0
        metrics["gc.gen2_collections"] = mean(gc_gen2)
        for name in workload.timed_layers:
            value = median(layer_ms[name])
            metrics[_ms_name(name)] = value
            metrics[_share_name(name)] = value / op_ms if op_ms else 0.0
        metrics.update(workload.layer_summary(extras))
        diagnostics["traced_ops"] = len(traced_ms)
        diagnostics["untraced_ops"] = len(untraced_ms)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, diagnostics


def emit(result: dict, diagnostics: Dict[str, object]) -> None:
    """Print the diagnostics line, then the result as the last line."""
    units = dict(END_TO_END_UNITS)
    units.update(PER_LAYER_UNITS)
    result = dict(result)
    result["metrics"] = {
        name: {"value": float(value), "unit": units[name]}
        for name, value in result["metrics"].items()
    }
    print(json.dumps({"diagnostics": diagnostics}, sort_keys=True))
    sys.stdout.flush()
    print(json.dumps(result, sort_keys=True))
    sys.stdout.flush()
