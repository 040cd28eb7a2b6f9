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
from itertools import islice
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.common.errors import StorageError
from repro.core.sid import SensorId

#: One reading as a tuple: (sid, timestamp_ns, value, ttl_s).  This is
#: the *edge* form only: ``insert_batch`` converts a list of them into
#: a :class:`ReadingBatch` once, on entry, and iterating a batch yields
#: them back for stores that want rows (memory, SQLite).
InsertItem = tuple[SensorId, int, int, int]

_INT64_MAX = (1 << 63) - 1
_NS_PER_S = 1_000_000_000
#: Longest TTL whose nanosecond form still fits an int64.
_MAX_TTL_S = _INT64_MAX // _NS_PER_S
_packed = attrgetter("packed")


class ReadingBatch:
    """Readings as columns — the one shape of a write below the edge.

    ``timestamps`` and ``values`` are int64 columns in write order (last
    write wins), cut into *runs*: run ``r`` is the next ``lengths[r]``
    rows, all of sensor ``sids[r]``, stored with TTL ``ttls[r]`` seconds
    (0 or less: forever).  A wire frame becomes one run with one
    ``np.frombuffer``; the writer coalesces messages by concatenating
    them, so a sensor may own several runs.  Every layer below (writer,
    rollups, cluster routing, WAL, memtable) works per run or per
    column, never per row, and none writes into the columns.
    """

    __slots__ = ("sids", "lengths", "ttls", "timestamps", "values")

    def __init__(self, sids, lengths, timestamps, values, ttls) -> None:
        self.sids: list[SensorId] = sids
        self.lengths: list[int] = lengths
        self.ttls: list[int] = ttls
        self.timestamps: np.ndarray = timestamps
        self.values: np.ndarray = values

    @classmethod
    def of(cls, sid: SensorId, timestamps: np.ndarray, values: np.ndarray, ttl: int = 0):
        """One sensor's readings as a single run."""
        return cls([sid], [len(timestamps)], timestamps, values, [ttl])

    @classmethod
    def from_items(cls, items: Iterable[InsertItem]) -> "ReadingBatch":
        """The tuple adapter: every column converted to int64 once, up
        front — a timestamp, value or TTL outside int64 raises
        :class:`StorageError` before any store sees it."""
        if not isinstance(items, (list, tuple)):
            items = list(items)
        if not items:
            return _EMPTY_BATCH
        sids, *columns = zip(*items)
        try:
            timestamps, values, ttls = (np.array(col, dtype=np.int64) for col in columns)
        except OverflowError as exc:
            raise StorageError(f"reading outside the int64 storage domain: {exc}") from None
        halves = np.frombuffer(b"".join(map(_packed, sids)), dtype=">u8").reshape(-1, 2)
        return cls.grouped(halves.T, timestamps, values, ttls, sids.__getitem__)

    @classmethod
    def grouped(cls, keys, timestamps, values, ttls, sid_at: Callable[[int], SensorId]):
        """Rows cut into runs wherever a per-row sensor ``keys`` column
        or the TTL column changes; ``sid_at(row)`` names the sensor of
        the run starting at ``row``."""
        if not len(timestamps):
            return _EMPTY_BATCH
        edge = ttls[1:] != ttls[:-1]
        for key in keys:
            edge |= key[1:] != key[:-1]
        starts = [0, *(np.flatnonzero(edge) + 1).tolist()]
        lengths = np.diff(starts + [len(timestamps)]).tolist()
        return cls(list(map(sid_at, starts)), lengths, timestamps, values, ttls[starts].tolist())

    @classmethod
    def concat(cls, batches: Sequence["ReadingBatch"]) -> "ReadingBatch":
        """The batches back to back, in order (the first as-is when alone)."""
        if len(batches) == 1:
            return batches[0]
        sids, lengths, ttls = [], [], []
        for batch in batches:
            sids += batch.sids
            lengths += batch.lengths
            ttls += batch.ttls
        timestamps = np.concatenate([batch.timestamps for batch in batches])
        return cls(sids, lengths, timestamps, np.concatenate([b.values for b in batches]), ttls)

    def __len__(self) -> int:
        """Readings, not runs."""
        return len(self.timestamps)

    def __iter__(self) -> Iterator[InsertItem]:
        """The rows as ``InsertItem`` tuples (the edge form)."""
        rows = zip(self.timestamps.tolist(), self.values.tolist())
        for sid, length, ttl in zip(self.sids, self.lengths, self.ttls):
            for timestamp, value in islice(rows, length):
                yield sid, timestamp, value, ttl

    def select(self, runs: list[int]) -> "ReadingBatch":
        """The sub-batch of ``runs`` (ascending run indices); the batch
        itself when that is all of them."""
        if len(runs) == len(self.sids):
            return self
        keep = np.zeros(len(self.sids), dtype=bool)
        keep[runs] = True
        rows = np.repeat(keep, self.lengths)
        return ReadingBatch(
            [self.sids[r] for r in runs],
            [self.lengths[r] for r in runs],
            self.timestamps[rows],
            self.values[rows],
            [self.ttls[r] for r in runs],
        )

    def expiries(self) -> np.ndarray | None:
        """Per-row expiry in ns (int64 max: never), or None when no run
        has a TTL; saturates at int64 max instead of wrapping."""
        if max(self.ttls, default=0) <= 0:
            return None
        ttl_ns = np.repeat(np.clip(self.ttls, 0, _MAX_TTL_S) * _NS_PER_S, self.lengths)
        expiries = np.minimum(self.timestamps, _INT64_MAX - ttl_ns) + ttl_ns
        return np.where(ttl_ns > 0, expiries, _INT64_MAX)


_EMPTY_BATCH = ReadingBatch([], [], np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), [])


def as_batch(items: "ReadingBatch | Iterable[InsertItem]") -> ReadingBatch:
    """``items`` as a :class:`ReadingBatch`: itself, or converted once
    by :meth:`ReadingBatch.from_items`."""
    return items if isinstance(items, ReadingBatch) else ReadingBatch.from_items(items)


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

    def insert(self, sid: SensorId, timestamp: int, value: int, ttl_s: int = 0) -> None:
        """Store one reading.  Last write wins on duplicate timestamps."""
        self.insert_batch([(sid, timestamp, value, ttl_s)])

    @abc.abstractmethod
    def insert_batch(self, items: ReadingBatch | Iterable[InsertItem]) -> int:
        """Store many readings; returns the number inserted.

        ``items`` is a :class:`ReadingBatch` — what the ingest path
        hands down — or, at the edge, ``InsertItem`` tuples, which
        :func:`as_batch` converts once per call (and rejects outside
        int64 with :class:`StorageError` before anything is stored).
        """

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
        one read per replica node).  Returns an entry for *every*
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
