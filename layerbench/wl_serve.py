"""``serve``: an open-loop request mix against a real server process.

The server runs in its own process (``repro.cli serve --port-file``,
default configuration).  A seeded mix of solve, distribute and chaos
requests drawn with ``build_schedule`` over two small instances and one
larger one is sent at one fixed offered rate, about half of the capacity
measured on a 2-vCPU host, over two connections.  Each request is timed
from the moment it was due, not from when it was sent, so a stall shows
as lateness of the requests behind it.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from typing import Dict, List, Optional

from harness import (
    COUNT_METRICS,
    MIN_OPS,
    PER_LAYER_UNITS,
    SETUP_PROBES,
    SETUP_REPEATS,
    GcMeter,
    calibrated,
    host_probe_ms,
    mean,
    median,
    proc_peak_rss_mb,
    tail_or_max,
)

from repro.distributed.transport import decode_frame, encode_frame, make_codec
from repro.errors import AdmissionError, ReproError, TransportError
from repro.generators.random_instances import fixed_size_instance
from repro.serve.client import ServeClient
from repro.serve.loadgen import WorkloadOp, build_schedule
from repro.serve.protocol import ok_response

#: name -> (n, m, set size): two small instances and one of ~4e4 edges.
INSTANCES = {
    "small-a": (100, 300, 10),
    "small-b": (150, 400, 12),
    "large": (300, 800, 20),
}
#: One block of the schedule: ``build_schedule``'s default 3:1:1 mix.
BLOCK_KINDS = ("solve", "solve", "solve", "distribute", "chaos")
COORDINATORS = ("union", "greedy", "chain")
CHAOS_FAULTS = ("drop", "duplicate", "corrupt")
#: Requests per second offered; about half the measured capacity.
OFFERED_RATE = 12.0
CONNECTIONS = 2
#: Seconds to wait for the server to bind, answer, or exit.
SERVER_TIMEOUT = 60.0
PROBES = 20
#: A load thread probes the host while waiting for a request's due time
#: only when at least this much slack is left.
PROBE_SLACK_S = 0.02
WORK_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".work")


class ServerProcess:
    """One ``repro.cli serve`` child with its logs under :data:`WORK_DIR`."""

    def __init__(self, source: str, tag: str) -> None:
        os.makedirs(WORK_DIR, exist_ok=True)
        stem = os.path.join(WORK_DIR, f"serve-{os.getpid()}-{tag}")
        self.port_file = stem + ".port"
        self.log_path = stem + ".log"
        self.err_path = stem + ".err"
        env = dict(os.environ, PYTHONPATH=source)
        with open(self.log_path, "w") as out, open(self.err_path, "w") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port-file", self.port_file],
                stdout=out,
                stderr=err,
                env=env,
            )
        self.port = self._wait_for_port()

    def _wait_for_port(self) -> int:
        deadline = time.monotonic() + SERVER_TIMEOUT
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited early: {self.stderr()}")
            try:
                with open(self.port_file) as handle:
                    text = handle.read().strip()
                if text:
                    return int(text)
            except FileNotFoundError:
                pass
            time.sleep(0.02)
        raise RuntimeError("server did not write its port file in time")

    def stderr(self) -> str:
        with open(self.err_path) as handle:
            return handle.read()

    def stop(self, control: Optional[ServeClient]) -> str:
        """Ask for shutdown, wait for exit, return and remove the logs.

        Without a ``control`` connection (an error path) the server is
        terminated instead.
        """
        try:
            if control is None:
                self.proc.terminate()
            else:
                with control:
                    control.shutdown()
            self.proc.wait(timeout=SERVER_TIMEOUT)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait(timeout=SERVER_TIMEOUT)
        err = self.stderr()
        for path in (self.port_file, self.log_path, self.err_path):
            if os.path.exists(path):
                os.remove(path)
        if not os.listdir(WORK_DIR):
            os.rmdir(WORK_DIR)
        return err


def stratified_schedule(requests: int, seed: int) -> List[WorkloadOp]:
    """``build_schedule``'s request mix with a fixed composition per block.

    Each block holds every instance crossed with :data:`BLOCK_KINDS`,
    shuffled; the block index picks the distribute coordinator and the
    chaos fault.  Every op's fields and seed come from ``build_schedule``,
    but the share of each kind no longer varies with the seed, so the
    seed moves latency and the count metrics only through the inputs
    themselves.
    """
    rng = random.Random(seed)
    ops = []
    block = 0
    while len(ops) < requests:
        cells = []
        for instance in INSTANCES:
            for kind in BLOCK_KINDS:
                (op,) = build_schedule(
                    [instance], 1, seed=rng.getrandbits(31), mix=((kind, 1),)
                )
                fields = dict(op.fields)
                if kind == "distribute":
                    fields["coordinator"] = COORDINATORS[block % len(COORDINATORS)]
                elif kind == "chaos":
                    fields["fault_kind"] = CHAOS_FAULTS[block % len(CHAOS_FAULTS)]
                cells.append((kind, fields))
        rng.shuffle(cells)
        ops.extend(cells)
        block += 1
    return [
        WorkloadOp(index=index, kind=kind, fields=fields)
        for index, (kind, fields) in enumerate(ops[:requests])
    ]


def check_cover(response: Dict[str, object], instance) -> bool:
    """Client-side check of a served cover and its certificate."""
    cover = set(response["cover"])
    certificate = dict(response["certificate"])
    if len(certificate) != instance.n or len(cover) != response["cover_size"]:
        return False
    return all(
        witness in cover and instance.contains(witness, element)
        for element, witness in certificate.items()
    )


class ServeWorkload:
    name = "serve"

    def __init__(self, source: str) -> None:
        self.source = source

    def _setup_once(self, seed: int, tag: str) -> ServerProcess:
        rng = random.Random(seed)
        self.instances = {
            name: fixed_size_instance(n, m, k, seed=rng.getrandbits(31))
            for name, (n, m, k) in INSTANCES.items()
        }
        server = ServerProcess(self.source, tag)
        try:
            with ServeClient(port=server.port, timeout=SERVER_TIMEOUT) as client:
                for name, instance in self.instances.items():
                    client.load(name, instance)
                warm = client.solve("large", order="random", seed=seed)
                client.distribute("large", workers=4, seed=seed)
            if not check_cover(warm, self.instances["large"]):
                raise RuntimeError("warm-up solve returned an invalid cover")
        except BaseException:
            server.stop(None)
            raise
        return server

    def run(self, seed: int, seconds: float, trace: bool, process_start: float):
        one_time = time.perf_counter() - process_start
        durations = []
        setup_probes = []
        server = None
        errors: List[str] = []
        for k in range(SETUP_REPEATS):
            if server is not None:
                errors += _traceback_lines(
                    server.stop(ServeClient(port=server.port, timeout=SERVER_TIMEOUT))
                )
            began = time.perf_counter()
            server = self._setup_once(seed, str(k))
            durations.append(time.perf_counter() - began)
            setup_probes += [host_probe_ms() for _ in range(SETUP_PROBES)]
        setup = (one_time + median(durations), median(setup_probes))
        try:
            return self._measure(server, seed, seconds, trace, setup, errors)
        finally:
            if server.proc.poll() is None:
                server.stop(None)

    def _measure(self, server, seed, seconds, trace, setup, errors):
        requests = max(MIN_OPS, int(round(OFFERED_RATE * seconds)))
        schedule = stratified_schedule(requests, seed)
        probes = [host_probe_ms() for _ in range(PROBES)]
        records: List[Optional[dict]] = [None] * requests
        gc_meter = GcMeter()
        start = time.perf_counter() + 0.05

        def load(offset: int) -> None:
            try:
                client = ServeClient(port=server.port, timeout=SERVER_TIMEOUT)
            except TransportError as exc:
                for op in schedule[offset::CONNECTIONS]:
                    records[op.index] = {"bucket": "transport", "error": str(exc)}
                return
            try:
                for op in schedule[offset::CONNECTIONS]:
                    records[op.index] = self._send(client, op, start, trace, probes)
            finally:
                client.close()

        threads = [
            threading.Thread(target=load, args=(c,), name=f"layerbench-load-{c}")
            for c in range(CONNECTIONS)
        ]
        with gc_meter.installed() if trace else nullcontext():
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finished = time.perf_counter()
        probes += [host_probe_ms() for _ in range(PROBES)]
        probe = median(probes)

        control = ServeClient(port=server.port, timeout=SERVER_TIMEOUT)
        pool = control.stats().get("pool", {})
        rss_mb = proc_peak_rss_mb(server.proc.pid)
        errors += _traceback_lines(server.stop(control))

        buckets: Dict[str, int] = {}
        for record in records:
            buckets[record["bucket"]] = buckets.get(record["bucket"], 0) + 1
        failed = sum(buckets.get(b, 0) for b in ("admission", "error", "transport", "invalid"))
        correct = buckets.get("invalid", 0) == 0
        errors += [r["error"] for r in records if "error" in r][:10]
        done = [r for r in records if r["bucket"] in ("ok", "degraded")]
        latencies = [r["latency_ms"] for r in done]
        diagnostics: Dict[str, object] = {
            "workload": self.name,
            "seed": seed,
            "trace": int(trace),
            "requests": requests,
            "offered_rate": OFFERED_RATE,
            "buckets": buckets,
            "host.probe_ms": probe,
            "host.probe_samples": len(probes),
            "p90_samples": len(latencies),
        }
        if len(latencies) < MIN_OPS:
            correct = False
        if errors:
            diagnostics["errors"] = errors[:10]
        if trace:
            metrics = self._layers(done, pool, probes, gc_meter)
        else:
            # One factor per run: a request spends most of its latency in
            # the server process, which a probe here only samples.
            latencies_cal = [calibrated(ms, probe) for ms in latencies]
            metrics = {
                "setup_s": calibrated(*setup),
                "ops_per_s": len(done) / (finished - start),
                "p50_ms": median(latencies_cal),
                "p90_ms": tail_or_max(latencies_cal),
                "ok_frac": (requests - failed) / requests,
                **_counts(records),
                "peak_rss_mb": rss_mb,
            }
            diagnostics.update(
                {
                    "raw.setup_s": setup[0],
                    "raw.p50_ms": median(latencies),
                    "raw.p90_ms": tail_or_max(latencies),
                    "setup.probe_ms": setup[1],
                }
            )
        result = {
            "correct": correct,
            "attempted": requests,
            "failed": failed,
            "metrics": metrics,
        }
        return result, diagnostics

    def _send(self, client, op, start: float, trace: bool, probes: List[float]) -> dict:
        due = start + op.index / OFFERED_RATE
        if due - time.perf_counter() > PROBE_SLACK_S:
            probes.append(host_probe_ms())
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent = time.perf_counter()
        kind = "solve" if op.kind == "chaos" else op.kind
        try:
            response = client.request(kind, **op.fields)
        except AdmissionError as exc:
            return {"bucket": "admission", "error": f"op {op.index}: {exc}"}
        except TransportError as exc:
            return {"bucket": "transport", "error": f"op {op.index}: {exc}"}
        except ReproError as exc:
            return {"bucket": "error", "error": f"op {op.index}: {exc}"}
        received = time.perf_counter()
        instance = self.instances[op.fields["instance"]]
        if response.get("degraded"):
            bucket = "degraded"
        elif response.get("valid") and check_cover(response, instance):
            bucket = "ok"
        else:
            return {"bucket": "invalid", "error": f"op {op.index}: invalid cover"}
        record = {
            "bucket": bucket,
            "index": op.index,
            "latency_ms": (received - due) * 1000.0,
            "late_ms": (sent - due) * 1000.0,
            "wire_ms": (received - sent) * 1000.0,
            "compute_ms": float(response.get("elapsed_ms", 0.0)),
            "cover_sets": response["cover_size"],
            "peak_space_words": response.get("peak_words"),
            "comm_words": response.get("total_comm_words"),
        }
        if traced_block(op.index, trace):
            record["response"] = response
        return record

    def _layers(self, done, pool, probes, gc_meter) -> Dict[str, float]:
        """Per-layer metrics from the recorded responses and ``stats``.

        A request's latency from its due time splits into lateness of
        the generator, the request path (client latency minus the
        server's own ``elapsed_ms``) and compute; ``other_ms`` is what
        the medians of the three leave of the median latency.
        """
        codec = make_codec()
        encode_ms, decode_ms, frame_bytes = [], [], []
        for record in done:
            if "response" not in record:
                continue
            payload = ok_response(record["index"], record["response"])
            began = time.perf_counter()
            frame = encode_frame(codec, payload)
            encoded = time.perf_counter()
            decode_frame(frame)
            decoded = time.perf_counter()
            encode_ms.append((encoded - began) * 1000.0)
            decode_ms.append((decoded - encoded) * 1000.0)
            frame_bytes.append(len(frame))
        traced = [r["latency_ms"] for r in done if "response" in r]
        untraced = [r["latency_ms"] for r in done if "response" not in r]
        op_ms = median(traced)
        parts = {
            "loadgen.late_ms": median([r["late_ms"] for r in done]),
            "serve.spine_ms": median([r["wire_ms"] - r["compute_ms"] for r in done]),
            "serve.compute_ms": median([r["compute_ms"] for r in done]),
        }
        other = median([r["latency_ms"] for r in done]) - sum(parts.values())
        gc_ms = gc_meter.pause_s * 1000.0 / len(done)
        metrics = {name: 0.0 for name in PER_LAYER_UNITS}
        metrics.update(parts)
        metrics.update(
            {
                "host.probe_ms": median(probes),
                "trace.op_ms": op_ms,
                "trace.overhead_frac": op_ms / median(untraced) - 1.0,
                "serve.compute_share": parts["serve.compute_ms"] / op_ms,
                "serve.spine_share": parts["serve.spine_ms"] / op_ms,
                "other_ms": other,
                "other_share": other / op_ms,
                "protocol.encode_ms": median(encode_ms),
                "protocol.decode_ms": median(decode_ms),
                "protocol.frame_bytes": median(frame_bytes),
                "admission.queued": float(pool.get("queued_total", 0)),
                "admission.rejected": float(pool.get("rejected", 0)),
                "admission.peak_space_words": float(pool.get("peak_space_words", 0)),
                "gc.pause_ms": gc_ms,
                "gc.pause_share": gc_ms / op_ms,
                "gc.gen2_collections": gc_meter.gen2 / len(done),
            }
        )
        return metrics


def traced_block(index: int, trace: bool) -> bool:
    """In a traced run, every other schedule block keeps its responses.

    Blocks share one composition, so traced and untraced requests carry
    the same mix and their latencies can be compared.
    """
    return trace and (index // (len(INSTANCES) * len(BLOCK_KINDS))) % 2 == 0


def _counts(records) -> Dict[str, float]:
    """Means over the fixed schedule of the paper's resources."""
    return {
        key: mean([r[key] for r in records if r.get(key) is not None])
        for key in COUNT_METRICS
    }


def _traceback_lines(stderr: str) -> List[str]:
    """Server stderr lines worth reporting (tracebacks and errors)."""
    return [
        f"server stderr: {line}"
        for line in stderr.splitlines()
        if "Error" in line or "Traceback" in line
    ]
