"""The backend-independent storage API.

Paper section 5.1: *"All accesses to Storage Backends are performed
via a well-defined API that is independent from the underlying
database implementation ... this abstraction allows for easily
swapping it against a different database solution without any changes
in the upstream components."*

:class:`StorageBackend` is that API, and the *only* storage surface:
everything the writer, the agent, libDCDB and the cluster coordinator
call on a store is declared here.  Implementations:

* :class:`~repro.storage.node.StorageNode` — one log-structured
  storage server (memtable + sorted segments), in memory;
* :class:`~repro.storage.durable.DurableNode` — the same server with a
  write-ahead log and compressed segment files (``durable:`` URIs);
* :class:`~repro.storage.cluster.StorageCluster` — the distributed
  wide-column store modelling Cassandra (the paper's choice); its
  members are themselves ``StorageBackend`` s, normally nodes;
* :class:`~repro.storage.memory.MemoryBackend` — a minimal in-process
  store, the oracle of the equivalence tests;
* :class:`~repro.storage.sqlite.SqliteBackend` — a file-backed store
  demonstrating that the swap really requires no upstream changes.

:class:`~repro.faults.FaultyBackend` wraps any of them with
deterministic fault injection (kill/restart, armed and probabilistic
failures) and honours the same contract when no faults fire — the
contract suite runs against the wrapper to prove it.

Error contract: data/metadata operations raise
:class:`~repro.common.errors.StorageError` (or a subclass) on failure;
callers like the batching writer treat any such failure as retryable,
relying on the backend's last-write-wins timestamp dedup to make
re-application safe.

All timestamps are integer nanoseconds; values are integers (see
:mod:`repro.core.sensor` for the scaling convention).  Query results
are returned as two parallel ``numpy`` arrays — the natural shape for
the analysis layer, and the cheap shape for bulk retrieval ("data is
typically acquired and consumed in bulk", paper section 3.1).
"""

from __future__ import annotations

import abc
from typing import Iterable, Iterator

import numpy as np

from repro.core.sid import SensorId

#: A bulk-insert item: (sid, timestamp_ns, value, ttl_s).
InsertItem = tuple[SensorId, int, int, int]


class StorageBackend(abc.ABC):
    """Abstract persistent store for sensor time series and metadata."""

    #: Label of this store in logs, spans and per-node metric labels.
    name: str = "backend"
    #: Heartbeat channel the cluster's failure detector reads; only
    #: the fault-injection proxy ever reports False.
    is_up: bool = True
    #: The store's own :class:`~repro.observability.MetricsRegistry`,
    #: or None when it keeps no instruments.
    metrics = None

    # -- data plane -----------------------------------------------------

    @abc.abstractmethod
    def insert(self, sid: SensorId, timestamp: int, value: int, ttl_s: int = 0) -> None:
        """Store one reading.  Last write wins on duplicate timestamps."""

    def insert_batch(self, items: Iterable[InsertItem]) -> int:
        """Store many readings; returns the number inserted.

        Backends override this when they have a faster bulk path; the
        default loops over :meth:`insert`.
        """
        count = 0
        for sid, timestamp, value, ttl in items:
            self.insert(sid, timestamp, value, ttl)
            count += 1
        return count

    @abc.abstractmethod
    def query(
        self, sid: SensorId, start: int, end: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Readings of ``sid`` with start <= t <= end, time-ordered.

        Returns ``(timestamps, values)`` as int64 arrays (possibly
        empty).  Expired (TTL) entries are excluded.
        """

    def query_many(
        self, sids: Iterable[SensorId], start: int, end: int
    ) -> dict[SensorId, tuple[np.ndarray, np.ndarray]]:
        """Bulk read: the series of every SID in ``sids`` over one range.

        Semantically identical to calling :meth:`query` once per SID —
        same ordering, TTL filtering and last-write-wins dedup — but
        backends override it with a batched path (one lock/transaction,
        parallel replica fan-out).  Returns an entry for *every*
        requested SID; sensors without data in range map to empty
        arrays.  This default loops over :meth:`query` so third-party
        backends keep working unchanged.
        """
        return {sid: self.query(sid, start, end) for sid in sids}

    def query_prefix(
        self, prefix: int, levels: int, start: int, end: int
    ) -> Iterator[tuple[SensorId, np.ndarray, np.ndarray]]:
        """Scan every sensor under a SID prefix (hierarchy subtree).

        Yields ``(sid, timestamps, values)`` per sensor with data in
        range, in SID order.  This is the operation behind Grafana's
        hierarchy drill-down and virtual sensors aggregating a subtree.
        The default filters :meth:`sids` and reads the subtree with one
        :meth:`query_many`; only the cluster overrides it (to route a
        subtree to its owning node).
        """
        matching = [sid for sid in self.sids() if sid.prefix(levels) == prefix]
        series = self.query_many(matching, start, end)
        for sid in matching:
            timestamps, values = series[sid]
            if timestamps.size:
                yield sid, timestamps, values

    @abc.abstractmethod
    def sids(self) -> list[SensorId]:
        """All sensor IDs with stored data."""

    @abc.abstractmethod
    def delete_before(self, sid: SensorId, cutoff: int) -> int:
        """Drop readings older than ``cutoff``; returns count removed.

        This backs the config tool's "deleting old data" admin task.
        """

    # -- metadata plane ---------------------------------------------------

    @abc.abstractmethod
    def put_metadata(self, key: str, value: str) -> None:
        """Store one metadata entry (sensor properties, virtual-sensor
        definitions, publication lists)."""

    def put_metadata_many(self, pairs: Iterable[tuple[str, str]]) -> None:
        """Store ``(key, value)`` entries, applied in order (``""``
        deletes).  Same outcome as one :meth:`put_metadata` per pair —
        the keys are independent, so a failure may leave a prefix
        applied — but stores with a per-call cost (a lock, a WAL
        commit, a replica round-trip) override it to pay that once.
        """
        for key, value in pairs:
            self.put_metadata(key, value)

    @abc.abstractmethod
    def get_metadata(self, key: str) -> str | None:
        """Fetch one metadata entry, or None."""

    @abc.abstractmethod
    def metadata_keys(self, prefix: str = "") -> list[str]:
        """All metadata keys starting with ``prefix``."""

    def delete_metadata(self, key: str) -> None:
        """Remove one metadata entry (default: overwrite with empty)."""
        self.put_metadata(key, "")

    # -- maintenance ------------------------------------------------------

    def compact(self) -> None:
        """Merge internal structures; a no-op where meaningless."""

    def flush(self) -> None:
        """Make all accepted writes durable/visible; default no-op."""

    def commit_durable(self) -> bool:
        """Group-commit barrier: make every accepted write crash-safe.

        The batching writer calls this once per flushed batch before
        acknowledging it.  Returns True when something was synced;
        stores without a write-ahead log have nothing to sync.
        """
        return False

    def close(self) -> None:
        """Release resources; default no-op."""

    def metrics_registries(self) -> list:
        """Every registry behind this store's ``/metrics`` exposition."""
        return [self.metrics] if self.metrics is not None else []

    # -- conveniences -----------------------------------------------------

    def count(self, sid: SensorId, start: int, end: int) -> int:
        """Number of stored readings in the range."""
        timestamps, _ = self.query(sid, start, end)
        return int(timestamps.size)

    def latest(self, sid: SensorId) -> tuple[int, int] | None:
        """Most recent (timestamp, value) of ``sid``, or None."""
        timestamps, values = self.query(sid, 0, (1 << 63) - 1)
        if timestamps.size == 0:
            return None
        return int(timestamps[-1]), int(values[-1])

    def oldest(self, sid: SensorId) -> tuple[int, int] | None:
        """Oldest stored (timestamp, value) of ``sid``, or None."""
        timestamps, values = self.query(sid, 0, (1 << 63) - 1)
        if timestamps.size == 0:
            return None
        return int(timestamps[0]), int(values[0])
