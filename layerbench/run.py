"""Run one workload of the layer benchmark and print its metrics.

Usage, from the repository root::

    python3 layerbench/run.py --workload solve --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with nothing
wrapped; ``--trace 1`` runs the same workload with layer wrappers on
every other op and prints the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries
diagnostics (sample counts, the host-drift probe, any errors).  The
exit code is 0 only when every correctness check passed.  See NOTES.md.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(os.path.dirname(HERE), "src")

WORKLOADS = ("solve", "distribute", "merge", "serve")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_workload(name: str):
    if name == "solve":
        from wl_solve import SolveWorkload

        return SolveWorkload()
    if name == "distribute":
        from wl_distribute import DistributeWorkload

        return DistributeWorkload()
    if name == "merge":
        from wl_merge import MergeWorkload

        return MergeWorkload()
    from wl_serve import ServeWorkload

    return ServeWorkload(source=SOURCE)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        print(f"no program source under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCE)

    from harness import emit, run_closed_loop

    workload = load_workload(args.workload)
    trace = bool(args.trace)
    if args.workload == "serve":
        result, diagnostics = workload.run(
            args.seed, args.seconds, trace, PROCESS_START
        )
    else:
        result, diagnostics = run_closed_loop(
            workload, args.seed, args.seconds, trace, PROCESS_START
        )
    emit(result, diagnostics)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
