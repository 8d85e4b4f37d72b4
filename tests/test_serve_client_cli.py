"""The shared comm-budget helper, the client library, and the CLI.

Satellite regression (PR 9): ``--comm-budget 0`` and negative values
must raise the typed :class:`InvalidParameterError` at the entry point
— in the batch ``distribute`` command, the serve path, and the client
CLI — instead of surfacing a deep meter error mid-merge.  All three
paths now construct budgets through one helper
(:func:`repro.distributed.comm.make_comm_budget`), tested here.

The CLI end-to-end tests drive ``main([...])`` against a live in-process
server (skipped where the sandbox forbids binding).
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.distributed.comm import CommBudget, make_comm_budget
from repro.errors import InvalidParameterError, TransportError
from repro.generators.planted import planted_partition_instance
from repro.serve import (
    InstanceRegistry,
    ServeClient,
    ServeConfig,
    start_server_thread,
)
from repro.streaming.io import dump_instance


def make_instance(seed: int = 4):
    return planted_partition_instance(60, 24, opt_size=5, seed=seed).instance


@pytest.fixture()
def instance_file(tmp_path):
    path = tmp_path / "instance.txt"
    dump_instance(make_instance(), str(path))
    return str(path)


@pytest.fixture(scope="module")
def handle():
    registry = InstanceRegistry()
    registry.load_instance("demo", make_instance())
    try:
        server = start_server_thread(ServeConfig(port=0), registry)
    except TransportError as exc:
        pytest.skip(f"sandbox forbids binding localhost TCP: {exc}")
    with server:
        yield server


class TestMakeCommBudget:
    def test_none_means_unmetered(self):
        assert make_comm_budget(None) is None

    def test_positive_builds_budget(self):
        budget = make_comm_budget(500, context="test")
        assert isinstance(budget, CommBudget)
        assert budget.words == 500

    def test_zero_is_typed(self):
        with pytest.raises(InvalidParameterError) as excinfo:
            make_comm_budget(0)
        assert excinfo.value.parameter == "comm_budget"
        assert "positive" in str(excinfo.value)

    def test_negative_is_typed(self):
        with pytest.raises(InvalidParameterError):
            make_comm_budget(-100)

    def test_bool_and_non_int_are_typed(self):
        for bad in (True, 1.5, "100"):
            with pytest.raises(InvalidParameterError):
                make_comm_budget(bad)


class TestDistributeBudgetRegression:
    """``--comm-budget`` misuse is a typed CLI error, not a meter blowup."""

    @pytest.mark.parametrize("words", ["0", "-5"])
    def test_batch_distribute_rejects_non_positive(
        self, instance_file, words, capsys
    ):
        code = main(
            ["distribute", instance_file, "--comm-budget", words, "-W", "2"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "comm_budget" in captured.err
        assert "positive" in captured.err

    def test_batch_distribute_accepts_positive(self, instance_file, capsys):
        code = main(
            ["distribute", instance_file, "--comm-budget", "100000", "-W", "2"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "total comm words" in captured.out

    @pytest.mark.parametrize("words", ["0", "-5"])
    def test_client_distribute_rejects_non_positive(
        self, handle, words, capsys
    ):
        code = main(
            [
                "client", "distribute",
                "--port", str(handle.port),
                "--name", "demo",
                "--comm-budget", words,
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "comm_budget" in captured.err


class TestParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 0
        assert args.space_pool == 200_000
        assert args.load == []

    def test_serve_flags(self):
        args = build_parser().parse_args(
            [
                "serve", "--port", "9000", "--load", "a=x.txt",
                "--load", "b=y.txt", "--max-queue", "4",
                "--queue-timeout", "5", "--backend", "serial",
            ]
        )
        assert args.port == 9000
        assert args.load == ["a=x.txt", "b=y.txt"]
        assert args.max_queue == 4
        assert args.backend == "serial"

    def test_client_requires_port(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["client", "ping"])

    def test_client_action_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["client", "explode", "--port", "1"]
            )


class TestClientCLI:
    def test_ping(self, handle, capsys):
        assert main(["client", "ping", "--port", str(handle.port)]) == 0
        assert "repro-serve" in capsys.readouterr().out

    def test_solve_prints_cover(self, handle, capsys):
        code = main(
            [
                "client", "solve", "--port", str(handle.port),
                "--name", "demo", "--seed", "3",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "cover_size" in captured.out
        assert "cover:" in captured.out
        assert "valid" in captured.out

    def test_load_list_unload(self, handle, instance_file, capsys):
        assert (
            main(
                [
                    "client", "load", "--port", str(handle.port),
                    "--name", "uploaded", "--file", instance_file,
                ]
            )
            == 0
        )
        assert (
            main(["client", "list", "--port", str(handle.port)]) == 0
        )
        assert "uploaded" in capsys.readouterr().out
        assert (
            main(
                [
                    "client", "unload", "--port", str(handle.port),
                    "--name", "uploaded",
                ]
            )
            == 0
        )

    def test_distribute_prints_comm(self, handle, capsys):
        code = main(
            [
                "client", "distribute", "--port", str(handle.port),
                "--name", "demo", "-W", "3", "--coordinator", "union",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "total_comm_words" in captured.out

    def test_stats_prints_pool(self, handle, capsys):
        assert main(["client", "stats", "--port", str(handle.port)]) == 0
        out = capsys.readouterr().out
        assert "pool:" in out
        assert "space_capacity_words" in out

    def test_missing_name_is_typed(self, handle, capsys):
        code = main(
            ["client", "solve", "--port", str(handle.port)]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "requires --name" in captured.err

    def test_unknown_instance_is_remote_typed(self, handle, capsys):
        code = main(
            [
                "client", "solve", "--port", str(handle.port),
                "--name", "nope",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "InvalidParameterError (remote)" in captured.err

    def test_connection_refused_is_typed(self, capsys):
        code = main(["client", "ping", "--port", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "cannot connect" in captured.err


class TestServeProcessShutdown:
    """``repro.cli serve`` exits cleanly with client connections open."""

    def test_idle_connection_leaves_no_traceback(self, tmp_path):
        try:
            probe = socket.socket()
            probe.bind(("127.0.0.1", 0))
            probe.close()
        except OSError as exc:
            pytest.skip(f"sandbox forbids binding localhost TCP: {exc}")
        port_file = tmp_path / "port"
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--port-file", str(port_file),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            deadline = time.monotonic() + 30
            while not port_file.exists() or not port_file.read_text().strip():
                assert proc.poll() is None, proc.communicate()[1]
                assert time.monotonic() < deadline, "server never started"
                time.sleep(0.05)
            port = int(port_file.read_text())
            with socket.create_connection(("127.0.0.1", port)):
                client = ServeClient("127.0.0.1", port)
                client.ping()
                client.shutdown()
                _, stderr = proc.communicate(timeout=30)
            client.close()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert "Traceback" not in stderr, stderr
