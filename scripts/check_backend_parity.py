#!/usr/bin/env python
"""Backend-parity smoke: serial, thread, and process must agree byte-for-byte.

The distributed determinism contract says the execution backend is
operational: for a fixed (instance, workers, order, seed, algorithm,
strategy, coordinator) every backend must produce a dataclass-equal
``DistributedResult`` and a byte-identical merged trace JSONL.  This
script checks exactly that on a small planted instance at W=4 across
all registered backends, for each data path: the three routing
strategies (``by-set``, ``by-element``, ``hash``) and one by-set cell
with per-shard stream faults (``corrupt`` plus ``duplicate``), which
takes the worker's faulted-shard path.  For every data path it then
pins the process backend's two *shipping* modes — shared-memory column
spans and classic pickled edges (``REPRO_SHM=0``) — to the same
reference, asserting the shared-memory dispatch really shipped
O(descriptor) task pickles.  Reports every divergence and exits 1 if
there was any.  CI runs it on every push::

    PYTHONPATH=src python scripts/check_backend_parity.py
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.distributed import (  # noqa: E402
    registered_backends,
    run_distributed,
    shared_memory_available,
)
from repro.faults.injectors import FaultSpec  # noqa: E402
from repro.generators.planted import planted_partition_instance  # noqa: E402
from repro.obs.tracer import TraceCollector  # noqa: E402

WORKERS = 4
SEED = 20260807

#: Data path label -> (routing strategy, per-shard stream faults).
DATA_PATHS = {
    "by-set": ("by-set", None),
    "by-element": ("by-element", None),
    "hash": ("hash", None),
    "by-set+stream-faults": (
        "by-set",
        (
            FaultSpec(kind="corrupt", rate=0.05, seed=1),
            FaultSpec(kind="duplicate", rate=0.1, seed=2),
        ),
    ),
}


def run_cell(instance, path: str, backend: str, max_workers: int):
    strategy, faults = DATA_PATHS[path]
    collector = TraceCollector()
    result = run_distributed(
        instance,
        workers=WORKERS,
        algorithm="kk",
        strategy=strategy,
        seed=SEED,
        max_workers=max_workers,
        backend=backend,
        collector=collector,
        faults=faults,
    )
    if faults is None:
        result.verify(instance)
    return result, collector.to_jsonl()


def check_path(instance, path: str) -> int:
    """Every backend and shipping mode against serial; returns failures."""
    reference_result, reference_trace = run_cell(
        instance, path, "serial", max_workers=1
    )
    print(
        f"[{path}] reference: serial cover={reference_result.cover_size} "
        f"dropped={reference_result.diagnostics['dropped_invalid_edges']:.0f} "
        f"trace={len(reference_trace)} bytes"
    )
    failures = 0
    for backend in registered_backends():
        for max_workers in (1, WORKERS):
            result, trace = run_cell(instance, path, backend, max_workers)
            cell = f"[{path}] {backend}/max_workers={max_workers}"
            if result != reference_result:
                print(f"FAIL {cell}: DistributedResult diverged")
                failures += 1
            elif trace != reference_trace:
                print(f"FAIL {cell}: merged trace JSONL not byte-identical")
                failures += 1
            else:
                print(f"ok   {cell}")

    # Shipping modes: how the process backend moves shard edges must be
    # operational too.  Shared-memory spans and pickled edges get the
    # same answer, and the span dispatch pickles O(descriptor) tasks.
    max_descriptor_bytes = 8192
    for label, flag in (("shared-memory", "1"), ("pickle", "0")):
        os.environ["REPRO_SHM"] = flag
        try:
            result, trace = run_cell(
                instance, path, "process", max_workers=WORKERS
            )
        finally:
            del os.environ["REPRO_SHM"]
        cell = f"[{path}] process/shipping={label}/max_workers={WORKERS}"
        expected = label
        if label == "shared-memory" and not shared_memory_available():
            expected = "pickle"  # platform fallback is part of the contract
        shipping = result.shipping
        if result != reference_result:
            print(f"FAIL {cell}: DistributedResult diverged")
            failures += 1
        elif trace != reference_trace:
            print(f"FAIL {cell}: merged trace JSONL not byte-identical")
            failures += 1
        elif shipping is None or shipping.mode != expected:
            got = None if shipping is None else shipping.mode
            print(f"FAIL {cell}: expected shipping mode {expected}, got {got}")
            failures += 1
        elif (
            expected == "shared-memory"
            and shipping.max_task_bytes > max_descriptor_bytes
        ):
            print(
                f"FAIL {cell}: shipped task pickled to "
                f"{shipping.max_task_bytes} bytes — not O(descriptor)"
            )
            failures += 1
        else:
            print(
                f"ok   {cell} (max task pickle "
                f"{shipping.max_task_bytes:,} bytes)"
            )
    return failures


def main() -> int:
    instance = planted_partition_instance(
        n=400, m=80, opt_size=12, seed=SEED
    ).instance
    failures = sum(check_path(instance, path) for path in DATA_PATHS)
    if failures:
        print(f"{failures} parity failure(s)")
        return 1
    print("backend parity holds: results dataclass-equal, traces byte-identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
