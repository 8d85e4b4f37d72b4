"""Blocking client library for the set-cover service.

:class:`ServeClient` holds one TCP connection and issues framed
requests synchronously — request out, response in, in order.  Server
failures come back as the typed errors the protocol defines
(:class:`~repro.errors.AdmissionError` reconstructed with its full
retry-after context, everything else a
:class:`~repro.errors.RemoteServeError` tagged with the original type
name); connection-level failures are
:class:`~repro.errors.TransportError`.  One client per thread — the
load generator gives each worker its own connection, which is also the
server's concurrency model.

``max_retries`` opts a client into honouring the pool's ``retry_after``
pacing hint: an :class:`~repro.errors.AdmissionError` that carries one
is slept out and the request re-issued, up to the cap.  Off by default
— rejections stay a caller-visible typed error unless asked for.
"""

from __future__ import annotations

import socket as socket_module
import threading
import time
from typing import Any, Dict, List, Optional, Union

from repro.distributed.transport import make_codec
from repro.errors import AdmissionError, InvalidParameterError, TransportError
from repro.serve.protocol import recv_frame, request_payload, send_frame
from repro.streaming.instance import SetCoverInstance
from repro.streaming.io import dumps_instance


class ServeClient:
    """One connection to a :class:`~repro.serve.server.SetCoverServer`."""

    #: Ceiling on one retry sleep, seconds — a hint is advisory and a
    #: confused server must not park a client for minutes.
    MAX_RETRY_SLEEP = 5.0

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float = 60.0,
        max_retries: int = 0,
    ) -> None:
        if max_retries < 0:
            raise InvalidParameterError(
                "max_retries", max_retries, "must be >= 0"
            )
        self.host = host
        self.port = port
        self.max_retries = max_retries
        self._codec = make_codec()
        self._lock = threading.Lock()
        self._next_id = 0
        self._closed = False
        try:
            self._sock = socket_module.create_connection(
                (host, port), timeout=timeout
            )
        except OSError as exc:
            raise TransportError(
                f"cannot connect to serve endpoint {host}:{port}: {exc}"
            ) from exc

    # -- plumbing --------------------------------------------------------

    def request(self, kind: str, **fields: Any) -> Dict[str, Any]:
        """Issue one request; returns the result dict or raises typed.

        With ``max_retries > 0``, an :class:`AdmissionError` whose
        ``retry_after`` hint is present is paced out — sleep the hinted
        interval (capped at :attr:`MAX_RETRY_SLEEP`), re-issue, up to
        the cap.  Rejections the pool marks unretryable
        (``retry_after=None``: exceeds-capacity, shutting-down) are
        re-raised immediately whatever the budget.
        """
        attempt = 0
        while True:
            try:
                return self._request_once(kind, **fields)
            except AdmissionError as exc:
                if attempt >= self.max_retries or exc.retry_after is None:
                    raise
                attempt += 1
                time.sleep(min(exc.retry_after, self.MAX_RETRY_SLEEP))

    def _request_once(self, kind: str, **fields: Any) -> Dict[str, Any]:
        if self._closed:
            raise TransportError("serve client is closed")
        with self._lock:
            self._next_id += 1
            request_id = self._next_id
            payload = request_payload(kind, request_id, **fields)
            try:
                send_frame(self._sock, self._codec, payload)
                response = recv_frame(self._sock)
            except OSError as exc:
                raise TransportError(
                    f"serve connection to {self.host}:{self.port} failed: "
                    f"{exc}"
                ) from exc
        if response is None:
            raise TransportError(
                "server closed the connection before responding"
            )
        if not isinstance(response, dict):
            raise TransportError(
                f"malformed response of type {type(response).__name__}"
            )
        if int(response.get("id", -1)) != request_id:
            raise TransportError(
                f"response id {response.get('id')} does not match request "
                f"id {request_id}"
            )
        if response.get("ok"):
            result = response.get("result")
            return result if isinstance(result, dict) else {}
        from repro.serve.protocol import payload_to_error

        raise payload_to_error(response.get("error") or {})

    def close(self) -> None:
        """Close the connection; idempotent."""
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - best-effort teardown
            pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- the service API -------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        """Server identity/version round trip."""
        return self.request("ping")

    def load(
        self, name: str, instance: Union[SetCoverInstance, str]
    ) -> Dict[str, Any]:
        """Load an instance (object or io-format text) under ``name``."""
        text = (
            dumps_instance(instance)
            if isinstance(instance, SetCoverInstance)
            else instance
        )
        return self.request("load", name=name, text=text)

    def unload(self, name: str) -> Dict[str, Any]:
        """Drop a loaded instance."""
        return self.request("unload", name=name)

    def instances(self) -> List[Dict[str, Any]]:
        """Describe every loaded instance, sorted by name."""
        result = self.request("list")
        return list(result.get("instances", []))

    def solve(
        self,
        instance: str,
        algorithm: str = "kk",
        order: str = "canonical",
        seed: int = 0,
        alpha: Optional[float] = None,
        include_trace: bool = False,
        fault_kind: Optional[str] = None,
        fault_rate: float = 0.1,
        policy: str = "best_effort",
        delay_ms: int = 0,
    ) -> Dict[str, Any]:
        """One streaming solve on the server; cover + certificate back.

        ``fault_kind`` turns the request into a chaos cell: the stream
        is fault-injected server-side and run under the given
        degradation ``policy`` (the response's ``outcome`` is then
        ``"ok"`` or ``"degraded"``).  ``delay_ms`` is the test/ops knob
        that stretches the request inside its lease window.
        """
        fields: Dict[str, Any] = dict(
            instance=instance,
            algorithm=algorithm,
            order=order,
            seed=seed,
            include_trace=include_trace,
            delay_ms=delay_ms,
        )
        if alpha is not None:
            fields["alpha"] = alpha
        if fault_kind is not None:
            fields.update(
                fault_kind=fault_kind, fault_rate=fault_rate, policy=policy
            )
        return self.request("solve", **fields)

    def distribute(
        self,
        instance: str,
        workers: int = 4,
        algorithm: str = "kk",
        strategy: str = "by-set",
        coordinator: str = "chain",
        order: str = "canonical",
        seed: int = 0,
        alpha: Optional[float] = None,
        comm_budget: Optional[int] = None,
        include_trace: bool = False,
    ) -> Dict[str, Any]:
        """One sharded solve-and-merge on the server, comm-metered."""
        fields: Dict[str, Any] = dict(
            instance=instance,
            workers=workers,
            algorithm=algorithm,
            strategy=strategy,
            coordinator=coordinator,
            order=order,
            seed=seed,
            include_trace=include_trace,
        )
        if alpha is not None:
            fields["alpha"] = alpha
        if comm_budget is not None:
            fields["comm_budget"] = comm_budget
        return self.request("distribute", **fields)

    def summary(
        self,
        instance: str,
        algorithm: str = "kk",
        order: str = "canonical",
        seed: int = 0,
        alpha: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Traced solve returning the rendered trace summary."""
        fields: Dict[str, Any] = dict(
            instance=instance, algorithm=algorithm, order=order, seed=seed
        )
        if alpha is not None:
            fields["alpha"] = alpha
        return self.request("summary", **fields)

    def stats(self) -> Dict[str, Any]:
        """Server counters, pool stats, in-flight/draining state."""
        return self.request("stats")

    def shutdown(self) -> Dict[str, Any]:
        """Ask the server to drain and stop."""
        return self.request("shutdown")
