"""The server's registry of loaded instances, shared across requests.

Loading an instance is the expensive, once-per-dataset step (parse,
validate, freeze); every subsequent request against it re-derives its
stream from the shared immutable :class:`SetCoverInstance` — exactly
the object a batch run would build from the same file, which is what
keeps served solves byte-identical to their batch twins.  Entries also
carry the *admission estimates*: a generous envelope on the words a
solve of this instance can hold live (covering even ``store-all``'s
O(edges) footprint), used by the server to size pool leases.  The
estimate is operational only — it sizes the reservation, never the
meters, so a wrong estimate can change admission behaviour but not a
single solved byte.

Thread safety: the registry is mutated from the event loop (load /
unload handlers) and read from solver worker threads, so all access
goes through one lock; entries themselves are immutable.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List

from repro.errors import InvalidParameterError
from repro.streaming.instance import SetCoverInstance
from repro.streaming.io import loads_instance


@dataclass(frozen=True)
class LoadedInstance:
    """One registry entry: the shared instance plus admission estimates."""

    name: str
    instance: SetCoverInstance
    n: int
    m: int
    edges: int
    #: Envelope on one solve's live words (any registry algorithm).
    estimated_solve_words: int
    #: Monotonic load sequence number (diagnostic ordering).
    loaded_seq: int

    def describe(self) -> Dict[str, object]:
        """Primitive-dict form for ``list`` responses."""
        return {
            "name": self.name,
            "n": self.n,
            "m": self.m,
            "edges": self.edges,
            "estimated_solve_words": self.estimated_solve_words,
            "loaded_seq": self.loaded_seq,
        }

    def estimated_distribute_comm_words(self, workers: int) -> int:
        """Envelope on a W-worker merge's total comm words.

        The chain forwards O(n) state per hop (W hops) and the star
        merges upload O(n) once each; doubled for witness pairs plus a
        per-worker constant.
        """
        return 2 * self.n * (workers + 1) + 16 * workers + 64


def _estimate_solve_words(n: int, m: int, edges: int) -> int:
    """A generous envelope on any registry algorithm's peak words.

    ``store-all`` keeps every edge; the streaming algorithms keep
    covers/certificates/working sets in O(n + m).  The constant slack
    absorbs per-algorithm bookkeeping.
    """
    return edges + 4 * (n + m) + 64


class InstanceRegistry:
    """Name -> :class:`LoadedInstance`, with typed errors on misuse."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: Dict[str, LoadedInstance] = {}
        self._next_seq = 0

    def load_instance(
        self, name: str, instance: SetCoverInstance
    ) -> LoadedInstance:
        """Validate and register ``instance`` under ``name``."""
        if not name or not isinstance(name, str):
            raise InvalidParameterError(
                "name", name, "instance name must be a non-empty string"
            )
        instance.validate()
        with self._lock:
            if name in self._entries:
                raise InvalidParameterError(
                    "name", name, "an instance with this name is already "
                    "loaded; unload it first"
                )
            entry = LoadedInstance(
                name=name,
                instance=instance,
                n=instance.n,
                m=instance.m,
                edges=instance.num_edges,
                estimated_solve_words=_estimate_solve_words(
                    instance.n, instance.m, instance.num_edges
                ),
                loaded_seq=self._next_seq,
            )
            self._next_seq += 1
            self._entries[name] = entry
        return entry

    def load_text(self, name: str, text: str) -> LoadedInstance:
        """Parse the io text format and register it (the wire path)."""
        return self.load_instance(name, loads_instance(text))

    def unload(self, name: str) -> LoadedInstance:
        """Remove and return the entry; unknown names are typed errors."""
        with self._lock:
            entry = self._entries.pop(name, None)
        if entry is None:
            raise self._unknown(name)
        return entry

    def get(self, name: str) -> LoadedInstance:
        """Look up an entry; unknown names are typed errors."""
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            raise self._unknown(name)
        return entry

    def entries(self) -> List[LoadedInstance]:
        """All entries, sorted by name (deterministic listing)."""
        with self._lock:
            return sorted(self._entries.values(), key=lambda e: e.name)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _unknown(self, name: str) -> InvalidParameterError:
        with self._lock:
            known = ", ".join(sorted(self._entries)) or "none"
        return InvalidParameterError(
            "instance", name, f"not loaded; loaded instances: {known}"
        )
