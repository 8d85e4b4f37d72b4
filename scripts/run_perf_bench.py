#!/usr/bin/env python
"""Run the hot-path throughput benchmark and maintain BENCH_perf.json.

Usage
-----
Full benchmark (three sizes up to ~1e6 edges), updating BENCH_perf.json
in place while preserving the recorded seed baseline::

    PYTHONPATH=src python scripts/run_perf_bench.py

CI smoke tier — quick run, fail (exit 1) on a >2x edges/sec regression
against the committed smoke numbers::

    PYTHONPATH=src python scripts/run_perf_bench.py --smoke --check

Section flags combine: each appends its section, the selected sections
run in table order, and each recorded one replaces its section of
BENCH_perf.json (unless --no-write or a gate flag is given)::

    PYTHONPATH=src python scripts/run_perf_bench.py --smoke --distributed --transport --merge

Record the current code as the "seed baseline" (done once, before the
hot-path optimization, so the speedup trajectory stays in the file)::

    PYTHONPATH=src python scripts/run_perf_bench.py --record-seed-baseline
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.perfbench import (  # noqa: E402
    FLOOR_ALGORITHMS,
    FLOOR_CONFIG,
    SECTIONS,
    check_floor,
    check_regression,
    load_bench_file,
    run_section,
    speedup_table,
    timed,
    write_bench_file,
)

BENCH_FILE = REPO_ROOT / "BENCH_perf.json"

#: The switches that are not sections -> their help.
OPTIONS = {
    "--smoke": "run only the small smoke tier",
    "--check": "compare against committed BENCH_perf.json; exit 1 on >FACTOR "
    "regression (implies --no-write)",
    "--check-floor": "run the full tier's small kk and adversarial cells and exit 1 "
    "if either's throughput falls below its fastest committed scalar seed-baseline "
    "cell, measured on that same config (CI gate for the batched kernels; implies "
    "--no-write)",
    "--record-seed-baseline": "store this run's full-tier numbers as the "
    "immutable pre-optimization baseline",
    "--no-write": "do not touch BENCH_perf.json",
}

#: One flag per section the tier does not pin (``--trace-overhead``
#: selects ``trace_overhead``); the throughput ladder runs when no flag
#: is given.
SECTION_FLAGS = [name for name, section in SECTIONS.items() if section.tier is None]


def _flag_help(name: str) -> str:
    """A section flag's help: its generator's summary line, then its fate."""
    section = SECTIONS[name]
    summary = section.run.__doc__.splitlines()[0].rstrip(".")
    if not section.recorded:
        return f"{summary}; printed only, never recorded"
    return (
        f"{summary}; updates the '{name}' section of BENCH_perf.json "
        "unless --no-write"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for flag, help_text in OPTIONS.items():
        parser.add_argument(flag, action="store_true", help=help_text)
    for name in SECTION_FLAGS:
        parser.add_argument(
            "--" + name.replace("_", "-"), action="store_true", help=_flag_help(name)
        )
    parser.add_argument(
        "--factor",
        type=float,
        default=2.0,
        help="allowed edges/sec regression factor for --check (default 2.0)",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    def progress(line: str) -> None:
        print(line, flush=True)

    committed = load_bench_file(BENCH_FILE)
    selected = {name for name in SECTION_FLAGS if getattr(args, name)}
    write = not (args.no_write or args.check or args.check_floor)
    if args.check:
        selected.add("smoke")
    if not selected and not args.check_floor:
        # The bare throughput ladder; at the smoke tier it is a dry run.
        selected = {"smoke"} if args.smoke else {"smoke", "full"}
        write = write and not args.smoke
    if args.record_seed_baseline:
        selected |= {"smoke", "full"}
        write = True

    results = {}
    for name in (name for name in SECTIONS if name in selected):
        rows, seconds = timed(
            run_section,
            name,
            "smoke" if args.smoke else "full",
            args.seed,
            progress=progress,
        )
        results[name] = rows
        print(f"ok: {name}: {len(rows)} rows in {seconds:.1f}s", flush=True)

    recorded = {name: rows for name, rows in results.items() if SECTIONS[name].recorded}
    if write and recorded:
        payload = write_bench_file(
            BENCH_FILE,
            recorded,
            seed_baseline=results["full"] if args.record_seed_baseline else None,
        )
        rows = speedup_table(payload["seed_baseline"], results.get("full", []))
        if rows:
            print("\nspeedup vs seed baseline:")
        for config, algorithm, before, after, speedup in rows:
            print(
                f"  {config:>7} {algorithm:<13} "
                f"{before:>12,.0f} -> {after:>12,.0f} edges/s  ({speedup:.1f}x)"
            )
        print(f"updated {', '.join(recorded)} in {BENCH_FILE}")

    failures = []
    if args.check:
        failures += check_regression(
            results["smoke"], committed.get("smoke", []), factor=args.factor
        )
    if args.check_floor:
        # Two measured runs, best-of per cell: the first pass pays
        # import/cache warmup that a regression gate should not count.
        cells = dict(algorithms=FLOOR_ALGORITHMS, configs=(FLOOR_CONFIG,))
        warm = run_section("full", seed=args.seed, **cells)
        second = run_section("full", seed=args.seed, progress=progress, **cells)
        best = [
            max(pair, key=lambda row: row["edges_per_sec"])
            for pair in zip(warm, second)
        ]
        failures += check_floor(best, committed.get("seed_baseline", []))
    for failure in failures:
        print(f"REGRESSION: {failure}")
    if failures:
        return 1
    if args.check:
        print(f"ok: no >{args.factor}x regression against committed smoke numbers")
    if args.check_floor:
        print("ok: kk and adversarial throughput clear their scalar seed-baseline floors")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
