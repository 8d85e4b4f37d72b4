"""Command-line interface: regenerate any experiment from the terminal.

Usage::

    repro-setcover list
    repro-setcover run table1-row4 [--full] [--seed 7] [--markdown]
    repro-setcover run all
    repro-setcover solve INSTANCE.txt --algorithm kk --order random
    repro-setcover trace INSTANCE.txt --algorithm random-order -o out.jsonl

The ``solve`` subcommand runs one streaming algorithm over an instance
file in the :mod:`repro.streaming.io` text format and prints the cover.
``trace`` does the same run with a recording tracer attached, writes
the structured JSONL event log (see DESIGN.md §8), round-trips it
through the parser, and prints the trace summary.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro._version import __version__
from repro.algorithms import make_algorithm, registered_algorithms
from repro.analysis.tables import render_kv
from repro.distributed.backends import registered_backends
from repro.distributed.coordinator import registered_coordinators
from repro.distributed.router import STRATEGIES
from repro.distributed.transport import registered_transports
from repro.errors import ReproError
from repro.streaming.io import load_instance
from repro.streaming.orders import ORDER_REGISTRY, make_order
from repro.streaming.stream import stream_of


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-setcover",
        description="Edge-arrival streaming Set Cover (PODS 2023 reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiment ids")

    run_parser = sub.add_parser("run", help="run an experiment (or 'all')")
    run_parser.add_argument("experiment", help="experiment id, or 'all'")
    run_parser.add_argument(
        "--full",
        action="store_true",
        help="full-size grids (default: quick grids)",
    )
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument(
        "--markdown", action="store_true", help="render tables as Markdown"
    )

    solve_parser = sub.add_parser("solve", help="cover one instance file")
    solve_parser.add_argument("instance", help="instance file (io text format)")
    solve_parser.add_argument(
        "--algorithm",
        choices=registered_algorithms(),
        default="kk",
    )
    solve_parser.add_argument(
        "--order", choices=sorted(ORDER_REGISTRY), default="random"
    )
    solve_parser.add_argument("--alpha", type=float, default=None)
    solve_parser.add_argument("--seed", type=int, default=0)

    trace_parser = sub.add_parser(
        "trace",
        help="solve one instance with structured tracing and summarise",
    )
    trace_parser.add_argument("instance", help="instance file (io text format)")
    trace_parser.add_argument(
        "--algorithm",
        choices=registered_algorithms(),
        default="random-order",
    )
    trace_parser.add_argument(
        "--order", choices=sorted(ORDER_REGISTRY), default="random"
    )
    trace_parser.add_argument("--alpha", type=float, default=None)
    trace_parser.add_argument("--seed", type=int, default=0)
    trace_parser.add_argument(
        "--output",
        "-o",
        default=None,
        help="write the JSONL event log here (default: summary only)",
    )

    chaos_parser = sub.add_parser(
        "chaos",
        help="fault-injection sweep asserting the degradation invariant",
    )
    chaos_parser.add_argument("--seed", type=int, default=0)
    chaos_parser.add_argument(
        "--quick",
        action="store_true",
        help="small grid (one rate, two algorithms) for smoke testing",
    )
    chaos_parser.add_argument(
        "--policy",
        choices=["fail_fast", "skip_bad_edges", "best_effort"],
        default="best_effort",
    )
    chaos_parser.add_argument(
        "--markdown", action="store_true", help="render the table as Markdown"
    )
    chaos_parser.add_argument(
        "--shards",
        action="store_true",
        help="sweep the shard-fault grid (crash/straggle/duplicate × "
        "coordinator × backend × sync/async) instead of the stream grid",
    )

    describe_parser = sub.add_parser(
        "describe", help="print statistics of an instance file"
    )
    describe_parser.add_argument("instance")
    describe_parser.add_argument(
        "--no-opt",
        action="store_true",
        help="skip the (possibly slow) OPT handle computation",
    )

    distribute_parser = sub.add_parser(
        "distribute",
        help="shard one instance across W workers and merge with comm metering",
    )
    distribute_parser.add_argument(
        "instance", help="instance file (io text format)"
    )
    distribute_parser.add_argument(
        "--workers", "-W", type=int, default=4,
        help="number of simulated shards (semantic; changes the partition)",
    )
    distribute_parser.add_argument(
        "--algorithm",
        choices=registered_algorithms(),
        default="kk",
    )
    distribute_parser.add_argument(
        "--strategy", choices=sorted(STRATEGIES), default="by-set"
    )
    # No argparse choices= here: unknown names route through the typed
    # InvalidParameterError, matching unknown backends' error contract.
    distribute_parser.add_argument(
        "--coordinator", default="chain",
        help="merge strategy: " + ", ".join(registered_coordinators()),
    )
    distribute_parser.add_argument(
        "--order", choices=sorted(ORDER_REGISTRY), default="canonical"
    )
    distribute_parser.add_argument("--alpha", type=float, default=None)
    distribute_parser.add_argument("--seed", type=int, default=0)
    distribute_parser.add_argument(
        "--threshold", type=float, default=None,
        help="fixed greedy take-threshold override for the protocol "
        "merges (chain, tree)",
    )
    distribute_parser.add_argument(
        "--adaptive-threshold", action="store_true",
        help="re-estimate the protocol merges' τ from the forwarded "
        "state at every merge step (chain, tree); mutually exclusive "
        "with --threshold",
    )
    distribute_parser.add_argument(
        "--max-workers", type=int, default=1,
        help="real executor parallelism (operational; must not change "
        "the result)",
    )
    distribute_parser.add_argument(
        "--backend", choices=registered_backends(), default="serial",
        help="execution backend for shard work (operational; every "
        "backend prints the identical report)",
    )
    distribute_parser.add_argument(
        "--transport", choices=registered_transports(), default="inproc",
        help="wire transport for merge messages (operational; every "
        "transport prints identical cover/comm rows, only the measured "
        "wire bytes differ)",
    )
    distribute_parser.add_argument(
        "--comm-budget", type=int, default=None,
        help="hard cap on total merge communication, in words",
    )
    distribute_parser.add_argument(
        "--async-sim", action="store_true",
        help="drive the merge through the asynchronous delivery "
        "simulator (seeded adversarial schedule; parity-guaranteed "
        "result, logical-step diagnostics)",
    )
    distribute_parser.add_argument(
        "--schedule-seed", type=int, default=0,
        help="delivery-schedule seed under --async-sim",
    )
    distribute_parser.add_argument(
        "--default-delay", type=int, default=1,
        help="per-link delivery delay in logical steps under --async-sim",
    )
    distribute_parser.add_argument(
        "--crash", type=float, default=0.0, metavar="RATE",
        help="per-shard permanent-crash probability (seeded from --seed)",
    )
    distribute_parser.add_argument(
        "--flaky", type=float, default=0.0, metavar="RATE",
        help="per-shard transient-crash probability (healed by one retry)",
    )
    distribute_parser.add_argument(
        "--straggle", type=float, default=0.0, metavar="RATE",
        help="per-shard straggler probability",
    )
    distribute_parser.add_argument(
        "--straggle-steps", type=int, default=3,
        help="extra logical steps a straggling shard takes per attempt",
    )
    distribute_parser.add_argument(
        "--duplicate", type=float, default=0.0, metavar="RATE",
        help="per-shard duplicate-delivery probability (--async-sim only)",
    )
    distribute_parser.add_argument(
        "--min-shards", type=int, default=None,
        help="quorum: merge degraded if at least this many shards "
        "survive (default: all must survive)",
    )
    distribute_parser.add_argument(
        "--deadline-steps", type=int, default=None,
        help="per-attempt logical-step deadline; late shards time out",
    )
    distribute_parser.add_argument(
        "--max-attempts", type=int, default=3,
        help="attempts per shard before abandoning it",
    )
    distribute_parser.add_argument(
        "--backoff-steps", type=int, default=1,
        help="logical steps between a failed attempt and its retry",
    )

    serve_parser = sub.add_parser(
        "serve",
        help="run the long-running set-cover service (see DESIGN.md §14)",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (localhost only)"
    )
    serve_parser.add_argument(
        "--port", type=int, default=0,
        help="TCP port (0 = pick a free one and print it)",
    )
    serve_parser.add_argument(
        "--port-file", default=None,
        help="write the bound port here once listening (for scripts/CI)",
    )
    serve_parser.add_argument(
        "--load", action="append", default=[], metavar="NAME=PATH",
        help="pre-load an instance file under NAME (repeatable)",
    )
    serve_parser.add_argument(
        "--space-pool", type=int, default=200_000, metavar="WORDS",
        help="global admission pool for solver space, in words",
    )
    serve_parser.add_argument(
        "--comm-pool", type=int, default=100_000, metavar="WORDS",
        help="global admission pool for merge communication, in words",
    )
    serve_parser.add_argument(
        "--max-queue", type=int, default=16,
        help="admissions allowed to wait; beyond this requests are "
        "rejected with retry-after context",
    )
    serve_parser.add_argument(
        "--queue-timeout", type=float, default=30.0,
        help="seconds a queued admission may wait before a typed timeout",
    )
    serve_parser.add_argument(
        "--backend", choices=registered_backends(), default="serial",
        help="execution backend for distribute requests (operational)",
    )
    serve_parser.add_argument(
        "--max-workers", type=int, default=1,
        help="executor parallelism for distribute requests (operational)",
    )

    client_parser = sub.add_parser(
        "client", help="talk to a running serve endpoint"
    )
    client_parser.add_argument(
        "action",
        choices=[
            "ping", "load", "unload", "list", "solve", "distribute",
            "summary", "stats", "shutdown",
        ],
    )
    client_parser.add_argument("--host", default="127.0.0.1")
    client_parser.add_argument("--port", type=int, required=True)
    client_parser.add_argument("--timeout", type=float, default=60.0)
    client_parser.add_argument(
        "--name", default=None, help="instance name (load/unload/compute)"
    )
    client_parser.add_argument(
        "--file", default=None, help="instance file to upload (load)"
    )
    client_parser.add_argument(
        "--algorithm", choices=registered_algorithms(), default="kk"
    )
    client_parser.add_argument(
        "--order", choices=sorted(ORDER_REGISTRY), default="canonical"
    )
    client_parser.add_argument("--alpha", type=float, default=None)
    client_parser.add_argument("--seed", type=int, default=0)
    client_parser.add_argument(
        "--workers", "-W", type=int, default=4, help="shards (distribute)"
    )
    client_parser.add_argument(
        "--strategy", choices=sorted(STRATEGIES), default="by-set"
    )
    client_parser.add_argument("--coordinator", default="chain")
    client_parser.add_argument(
        "--comm-budget", type=int, default=None,
        help="hard cap on total merge communication, in words (distribute)",
    )
    client_parser.add_argument(
        "--fault-kind", default=None,
        help="turn a solve into a chaos cell with this injected fault",
    )
    client_parser.add_argument("--fault-rate", type=float, default=0.1)
    client_parser.add_argument(
        "--policy",
        choices=["fail_fast", "skip_bad_edges", "best_effort"],
        default="best_effort",
    )
    client_parser.add_argument(
        "--delay-ms", type=int, default=0,
        help="server-side delay knob (tests/ops; capped at 5s)",
    )
    client_parser.add_argument(
        "--max-retries", type=int, default=0,
        help="on an admission rejection carrying a retry_after hint, "
        "sleep and retry up to this many times (default: fail fast)",
    )

    generate_parser = sub.add_parser(
        "generate", help="write a synthetic instance to a file"
    )
    generate_parser.add_argument("output", help="destination file")
    generate_parser.add_argument(
        "--workload",
        choices=["uniform", "planted", "zipf", "quadratic", "two-tier", "domset"],
        default="planted",
    )
    generate_parser.add_argument("--n", type=int, default=100)
    generate_parser.add_argument("--m", type=int, default=500)
    generate_parser.add_argument("--opt-size", type=int, default=10)
    generate_parser.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_list() -> int:
    from repro.experiments.registry import all_experiment_ids, get_experiment

    for eid in all_experiment_ids():
        module = get_experiment(eid)
        print(f"{eid:16s} {module.TITLE}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.registry import all_experiment_ids, get_experiment

    ids = (
        all_experiment_ids()
        if args.experiment == "all"
        else [args.experiment]
    )
    for eid in ids:
        module = get_experiment(eid)
        report = module.run(quick=not args.full, seed=args.seed)
        print(report.render(markdown=args.markdown))
        print()
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    instance.validate()
    order = make_order(args.order, seed=args.seed)
    stream = stream_of(instance, order)
    algorithm = make_algorithm(
        args.algorithm, instance, seed=args.seed, alpha=args.alpha
    )
    result = algorithm.run(stream)
    result.verify(instance)
    print(
        render_kv(
            [
                ("instance", repr(instance)),
                ("algorithm", result.algorithm),
                ("order", args.order),
                ("cover size", result.cover_size),
                ("peak words", result.space.peak_words),
                ("valid", True),
            ]
        )
    )
    print("cover:", " ".join(str(s) for s in sorted(result.cover)))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import (
        RecordingTracer,
        events_to_jsonl,
        parse_jsonl,
        summarize,
        write_trace,
    )

    instance = load_instance(args.instance)
    instance.validate()
    order = make_order(args.order, seed=args.seed)
    stream = stream_of(instance, order)
    tracer = RecordingTracer()
    algorithm = make_algorithm(
        args.algorithm, instance, seed=args.seed, alpha=args.alpha,
        tracer=tracer,
    )
    result = algorithm.run(stream)
    result.verify(instance)
    tracer.finish()
    # Round-trip through the serializer before summarising: the summary
    # always describes what a consumer of the JSONL file would see.
    events = parse_jsonl(events_to_jsonl(tracer.events))
    if args.output is not None:
        write_trace(args.output, tracer.events)
    summary = summarize(events)
    print(
        render_kv(
            [
                ("instance", repr(instance)),
                ("algorithm", result.algorithm),
                ("order", args.order),
                ("cover size", result.cover_size),
                ("peak words", result.space.peak_words),
                ("trace events", len(events)),
            ]
        )
    )
    print(summary.render())
    if args.output is not None:
        print(f"wrote {len(events)} events to {args.output}")
    return 0


def _cmd_distribute(args: argparse.Namespace) -> int:
    from repro.analysis.tables import render_table
    from repro.distributed import run_distributed
    from repro.distributed.asyncsim import run_distributed_async
    from repro.distributed.comm import make_comm_budget
    from repro.faults.shards import ShardFaultPlan

    instance = load_instance(args.instance)
    instance.validate()
    order = make_order(args.order, seed=args.seed)
    budget = make_comm_budget(args.comm_budget, context="cli distribute")
    fault_rates = (args.crash, args.flaky, args.straggle, args.duplicate)
    shard_faults = None
    if any(rate > 0 for rate in fault_rates):
        shard_faults = ShardFaultPlan.seeded(
            args.workers,
            seed=args.seed,
            crash_rate=args.crash,
            flaky_rate=args.flaky,
            straggle_rate=args.straggle,
            straggle_steps=args.straggle_steps,
            duplicate_rate=args.duplicate,
        )
    options = dict(
        workers=args.workers,
        algorithm=args.algorithm,
        strategy=args.strategy,
        coordinator=args.coordinator,
        order=order,
        seed=args.seed,
        alpha=args.alpha,
        max_workers=args.max_workers,
        comm_budget=budget,
        backend=args.backend,
        transport=args.transport,
        threshold=args.threshold,
        adaptive_threshold=args.adaptive_threshold,
        shard_faults=shard_faults,
        min_shards=args.min_shards,
        deadline_steps=args.deadline_steps,
        max_attempts=args.max_attempts,
        backoff_steps=args.backoff_steps,
    )
    if args.async_sim:
        result = run_distributed_async(
            instance,
            schedule_seed=args.schedule_seed,
            default_delay=args.default_delay,
            **options,
        )
    else:
        result = run_distributed(instance, **options)
    degraded = bool(result.degradations)
    result.verify(instance, allow_partial=degraded)
    rows = [
        ("instance", repr(instance)),
        ("algorithm", result.algorithm),
        ("strategy", result.strategy),
        ("coordinator", result.coordinator),
        ("order", result.order_name),
        ("workers", result.workers),
        ("cover size", result.cover_size),
        ("total comm words", result.total_comm_words),
        ("max message words", result.max_message_words),
        ("messages", result.comm.num_messages),
        ("busiest link", result.comm.busiest_link() or "-"),
    ]
    if "merge_rounds" in result.diagnostics:
        rows.append(
            ("merge rounds", int(result.diagnostics["merge_rounds"]))
        )
    if result.diagnostics.get("adaptive_threshold"):
        rows.append(("adaptive threshold", True))
    if result.transport is not None:
        rows.extend(
            [
                ("transport", result.transport.transport),
                ("codec", result.transport.codec),
                ("wire bytes", result.transport.total_bytes),
                ("wire frames", result.transport.total_frames),
                ("retransmits", result.transport.retransmits),
                (
                    "bytes/word overhead",
                    f"{result.transport.overhead_ratio:.3f}",
                ),
            ]
        )
    if args.async_sim:
        rows.extend(
            [
                ("logical steps", int(result.diagnostics["logical_steps"])),
                (
                    "delivered messages",
                    int(result.diagnostics["delivered_messages"]),
                ),
                ("idle ticks", int(result.diagnostics["idle_ticks"])),
                (
                    "duplicates dropped",
                    int(result.diagnostics["duplicates_dropped"]),
                ),
            ]
        )
    if result.outcomes:
        rows.append(
            (
                "shard retries",
                sum(max(0, o.attempts - 1) for o in result.outcomes),
            )
        )
        rows.append(
            ("shards lost", sum(1 for o in result.outcomes if o.abandoned))
        )
    if degraded:
        rows.append(("degradation records", len(result.degradations)))
        rows.append(("uncovered elements", len(result.uncovered)))
    rows.append(("valid", "partial" if degraded else True))
    print(render_kv(rows))
    print(
        render_table(
            ["shard", "edges", "local n", "local m", "cover", "peak words"],
            [
                (
                    r.index,
                    r.edges,
                    r.local_n,
                    r.local_m,
                    r.cover_size,
                    r.space.peak_words,
                )
                for r in result.shards
            ],
            title="per-shard:",
        )
    )
    print("cover:", " ".join(str(s) for s in sorted(result.cover)))
    for record in result.degradations:
        print(
            f"degraded: shard[{int(record.details.get('shard', -1))}] "
            f"{record.error_type or 'lost'} — coverage "
            f"{record.coverage_fraction:.3f}, "
            f"{record.uncovered_count} uncovered"
        )
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.analysis.chaos import run_chaos, run_shard_chaos

    if args.shards:
        label = "shard chaos"
        report = run_shard_chaos(seed=args.seed, quick=args.quick)
    else:
        label = "chaos"
        report = run_chaos(
            seed=args.seed, quick=args.quick, policy=args.policy
        )
    print(report.render(markdown=args.markdown))
    try:
        report.assert_invariant()
    except AssertionError as violated:
        # One line per violating cell: its coordinates and the seed that
        # reproduces it standalone.
        print(violated, file=sys.stderr)
        return 1
    print(
        f"{label} invariant holds over {len(report.rows)} cells "
        f"(seed={args.seed})"
    )
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    from repro.analysis.stats import describe_instance

    instance = load_instance(args.instance)
    stats = describe_instance(instance, compute_opt=not args.no_opt)
    print(render_kv(stats.as_pairs(), title=f"{args.instance}:"))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    from pathlib import Path

    from repro.errors import InvalidParameterError
    from repro.serve.registry import InstanceRegistry
    from repro.serve.server import ServeConfig, SetCoverServer

    registry = InstanceRegistry()
    for spec in args.load:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            raise InvalidParameterError(
                "load", spec, "expected NAME=PATH"
            )
        entry = registry.load_instance(name, load_instance(path))
        print(
            f"loaded {entry.name}: n={entry.n} m={entry.m} "
            f"edges={entry.edges}"
        )
    config = ServeConfig(
        host=args.host,
        port=args.port,
        space_pool_words=args.space_pool,
        comm_pool_words=args.comm_pool,
        max_queue=args.max_queue,
        queue_timeout=args.queue_timeout,
        backend=args.backend,
        max_workers=args.max_workers,
    )
    server = SetCoverServer(config=config, registry=registry)

    async def _serve() -> None:
        await server.start()
        print(f"serving on {config.host}:{server.port}", flush=True)
        if args.port_file is not None:
            Path(args.port_file).write_text(
                f"{server.port}\n", encoding="utf-8"
            )
        try:
            await server.wait_shutdown()
        finally:
            await server.shutdown()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass  # ^C is the expected foreground stop; drain already ran
    print("serve stopped")
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    from repro.distributed.comm import make_comm_budget
    from repro.errors import InvalidParameterError
    from repro.serve.client import ServeClient

    with ServeClient(
        host=args.host,
        port=args.port,
        timeout=args.timeout,
        max_retries=args.max_retries,
    ) as client:
        if args.action == "ping":
            result = client.ping()
        elif args.action == "load":
            if args.name is None or args.file is None:
                raise InvalidParameterError(
                    "load", args.action, "requires --name and --file"
                )
            with open(args.file, "r", encoding="utf-8") as handle:
                result = client.load(args.name, handle.read())
        elif args.action == "unload":
            if args.name is None:
                raise InvalidParameterError(
                    "unload", args.action, "requires --name"
                )
            result = client.unload(args.name)
        elif args.action == "list":
            for entry in client.instances():
                print(render_kv(sorted(entry.items())))
            return 0
        elif args.action == "solve":
            if args.name is None:
                raise InvalidParameterError(
                    "solve", args.action, "requires --name"
                )
            result = client.solve(
                args.name,
                algorithm=args.algorithm,
                order=args.order,
                seed=args.seed,
                alpha=args.alpha,
                fault_kind=args.fault_kind,
                fault_rate=args.fault_rate,
                policy=args.policy,
                delay_ms=args.delay_ms,
            )
            cover = result.pop("cover", ())
            result.pop("certificate", None)
            print(render_kv(sorted(result.items())))
            print("cover:", " ".join(str(s) for s in cover))
            return 0
        elif args.action == "distribute":
            if args.name is None:
                raise InvalidParameterError(
                    "distribute", args.action, "requires --name"
                )
            # Validate locally so a bad budget fails before any bytes
            # travel — same typed error the batch CLI raises.
            make_comm_budget(args.comm_budget, context="cli client")
            result = client.distribute(
                args.name,
                workers=args.workers,
                algorithm=args.algorithm,
                strategy=args.strategy,
                coordinator=args.coordinator,
                order=args.order,
                seed=args.seed,
                alpha=args.alpha,
                comm_budget=args.comm_budget,
            )
            cover = result.pop("cover", ())
            result.pop("certificate", None)
            result.pop("per_link_words", None)
            print(render_kv(sorted(result.items())))
            print("cover:", " ".join(str(s) for s in cover))
            return 0
        elif args.action == "summary":
            if args.name is None:
                raise InvalidParameterError(
                    "summary", args.action, "requires --name"
                )
            result = client.summary(
                args.name,
                algorithm=args.algorithm,
                order=args.order,
                seed=args.seed,
                alpha=args.alpha,
            )
            text = result.pop("summary_text", "")
            print(render_kv(sorted(result.items())))
            print(text)
            return 0
        elif args.action == "stats":
            result = client.stats()
            pool = result.pop("pool", {})
            counters = result.pop("counters", {})
            print(render_kv(sorted(result.items())))
            print(render_kv(sorted(pool.items()), title="pool:"))
            print(render_kv(sorted(counters.items()), title="counters:"))
            return 0
        else:  # shutdown
            result = client.shutdown()
        print(render_kv(sorted(result.items())))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.generators.dominating_set import gnp_dominating_set
    from repro.generators.planted import planted_partition_instance
    from repro.generators.random_instances import (
        quadratic_family,
        two_tier_instance,
        uniform_instance,
    )
    from repro.generators.zipf import zipf_instance
    from repro.streaming.io import dump_instance

    if args.workload == "uniform":
        instance = uniform_instance(args.n, args.m, p=0.05, seed=args.seed)
    elif args.workload == "planted":
        instance = planted_partition_instance(
            args.n, args.m, opt_size=args.opt_size, seed=args.seed
        ).instance
    elif args.workload == "zipf":
        instance = zipf_instance(args.n, args.m, seed=args.seed)
    elif args.workload == "quadratic":
        instance = quadratic_family(args.n, seed=args.seed)
    elif args.workload == "two-tier":
        instance = two_tier_instance(
            args.n, num_small=args.m, num_big=max(1, args.m // 100),
            seed=args.seed,
        )
    else:  # domset
        instance = gnp_dominating_set(args.n, p=0.05, seed=args.seed)
    dump_instance(instance, args.output)
    print(f"wrote {instance!r} to {args.output}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "distribute":
            return _cmd_distribute(args)
        if args.command == "chaos":
            return _cmd_chaos(args)
        if args.command == "describe":
            return _cmd_describe(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "client":
            return _cmd_client(args)
        if args.command == "generate":
            return _cmd_generate(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 2  # unreachable with required=True subparsers


if __name__ == "__main__":
    sys.exit(main())
