"""A single storage server: memtable, sorted segments, compaction.

Models the write path that makes wide-column stores "a perfect fit"
for monitoring data (paper section 3.1): inserts land in an in-memory
*memtable* (append, no sorting on the hot path); when it fills up it
is frozen into an immutable, time-sorted *segment* (the SSTable
analogue, held as numpy arrays); reads merge the memtable and every
overlapping segment; *compaction* merges segments to bound read
amplification.  TTL expiry happens lazily on read and permanently on
compaction — the same life cycle as Cassandra's tombstone-free TTL
columns.

A node is thread-safe and single-process; distribution is layered on
top by :mod:`repro.storage.cluster`.

Write idempotency contract: duplicate timestamps are deduplicated
last-write-wins on the read path and permanently during compaction, so
*re-applying* a write (a retried replica batch, a hinted-handoff
replay racing the batching writer's re-queue) never yields duplicate
readings.  The cluster's failure handling depends on this property;
keep it when changing the merge paths.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Sequence

import numpy as np

from repro.core.sid import SensorId
from repro.observability import MetricsRegistry
from repro.storage.backend import StorageBackend

_INT64_MAX = (1 << 63) - 1


def merge_lww(
    parts: list[tuple[np.ndarray, ...]],
    now: int | None = None,
    ascending: bool = False,
) -> Sequence[np.ndarray]:
    """Last-write-wins merge of column runs into one strictly
    ascending, timestamp-deduplicated run — the one place the rule is
    written down.

    ``parts`` are ``(timestamps, values[, expiries])`` column tuples,
    oldest write first.  A stable sort keeps part (and insertion)
    order within equal timestamps, so keeping the final occurrence
    keeps the *newest* write — Cassandra semantics: the later upsert
    replaces the earlier value *and* its TTL.  ``now`` additionally
    drops rows whose expiry has passed.  ``ascending`` promises every
    part already is such a run (a sealed segment, a disk block): a
    lone part then comes back as the views it went in as, which is
    what keeps the single-segment read path zero-copy.
    """
    lone = len(parts) == 1
    cols = parts[0] if lone else [np.concatenate(col) for col in zip(*parts)]
    if now is not None:
        live = cols[2] > now
        if not live.all():
            cols = [col[live] for col in cols]
    if lone and ascending:
        return cols
    order = np.argsort(cols[0], kind="stable")
    cols = [col[order] for col in cols]
    ts = cols[0]
    if ts.size > 1:
        keep = np.empty(ts.size, dtype=bool)
        keep[:-1] = ts[1:] != ts[:-1]
        keep[-1] = True
        if not keep.all():
            cols = [col[keep] for col in cols]
    return cols


@dataclass(slots=True)
class _Segment:
    """An immutable, time-sorted, timestamp-deduplicated run of readings.

    Invariants (established at flush/compaction time): ``timestamps``
    is strictly ascending — sorted AND deduplicated last-write-wins —
    and ``min_ts``/``max_ts`` cache the bounds so a query can prune a
    non-overlapping segment without touching its arrays.  The read
    path's zero-copy fast path returns views into these arrays, which
    is only sound because both invariants hold.
    """

    timestamps: np.ndarray  # int64, strictly ascending
    values: np.ndarray  # int64
    expiries: np.ndarray  # int64 expiry ns; _INT64_MAX = never
    min_ts: int = field(init=False, default=0)
    max_ts: int = field(init=False, default=-1)
    min_expiry: int = field(init=False, default=_INT64_MAX)

    def __post_init__(self) -> None:
        if self.timestamps.size:
            self.min_ts = int(self.timestamps[0])
            self.max_ts = int(self.timestamps[-1])
            self.min_expiry = int(self.expiries.min())

    @property
    def size(self) -> int:
        return int(self.timestamps.size)

    def overlaps(self, start: int, end: int) -> bool:
        return self.max_ts >= start and self.min_ts <= end

    def slice(self, start: int, end: int, now: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows with start <= t <= end that have not expired at ``now``.

        Binary-searches the sorted timestamps (no boolean mask over the
        whole segment) and returns *views* when every row is live.
        ``min_expiry`` (cached at freeze time) lets the common all-live
        segment skip the expiry mask entirely, and a window covering
        the whole segment skips the binary search too — the full arrays
        come back untouched.
        """
        if self.min_expiry > now:
            if start <= self.min_ts and end >= self.max_ts:
                return self.timestamps, self.values
            lo = (
                0
                if start <= self.min_ts
                else int(np.searchsorted(self.timestamps, start, side="left"))
            )
            hi = (
                self.timestamps.size
                if end >= self.max_ts
                else int(np.searchsorted(self.timestamps, end, side="right"))
            )
            return self.timestamps[lo:hi], self.values[lo:hi]
        lo = int(np.searchsorted(self.timestamps, start, side="left"))
        hi = int(np.searchsorted(self.timestamps, end, side="right"))
        ts = self.timestamps[lo:hi]
        vals = self.values[lo:hi]
        exp = self.expiries[lo:hi]
        live = exp > now
        if live.all():
            return ts, vals
        return ts[live], vals[live]


@dataclass(slots=True)
class _SensorData:
    """Per-sensor storage state: live memtable rows plus segments."""

    mem_ts: list[int] = field(default_factory=list)
    mem_val: list[int] = field(default_factory=list)
    mem_exp: list[int] = field(default_factory=list)
    segments: list[_Segment] = field(default_factory=list)


class StorageNode(StorageBackend):
    """One storage server of the distributed store.

    ``flush_threshold`` is the per-node memtable row budget before an
    automatic flush; ``max_segments_per_sensor`` triggers compaction.
    ``clock`` supplies "now" for TTL decisions and defaults to the
    wall clock; simulations inject a :class:`~repro.common.timeutil.SimClock`.
    """

    def __init__(
        self,
        name: str = "node0",
        flush_threshold: int = 100_000,
        max_segments_per_sensor: int = 8,
        clock=None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        from repro.common.timeutil import now_ns

        self.name = name
        self.flush_threshold = flush_threshold
        self.max_segments_per_sensor = max_segments_per_sensor
        self._clock = clock if clock is not None else now_ns
        self._data: dict[SensorId, _SensorData] = {}
        self._metadata: dict[str, str] = {}
        self._lock = threading.RLock()
        self._memtable_rows = 0
        # Sorted SID list served by sids(); rebuilt lazily after the
        # first insert of a previously-unseen sensor invalidates it.
        self._sids_cache: list[SensorId] | None = None
        # Operational counters surfaced by the admin tooling and
        # /metrics, labelled by node so cluster-wide merges keep the
        # per-server breakdown.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._inserts = self.metrics.counter(
            "dcdb_storage_inserts_total", "Readings appended to the memtable", ("node",)
        ).labels(node=name)
        self._flushes = self.metrics.counter(
            "dcdb_storage_flushes_total", "Memtable freezes into segments", ("node",)
        ).labels(node=name)
        self._compactions = self.metrics.counter(
            "dcdb_storage_compactions_total", "Per-sensor segment merges", ("node",)
        ).labels(node=name)
        self._segments_pruned = self.metrics.counter(
            "dcdb_storage_segments_pruned_total",
            "Segments skipped by time-index pruning on the read path",
            ("node",),
        ).labels(node=name)
        self._query_latency = self.metrics.histogram(
            "dcdb_node_query_seconds",
            "Node-layer query latency (query and query_many calls)",
            ("node",),
        ).labels(node=name)
        self.metrics.gauge(
            "dcdb_storage_memtable_rows", "Rows currently in the memtable", ("node",)
        ).labels(node=name).set_function(lambda: self._memtable_rows)
        self.metrics.gauge(
            "dcdb_storage_segments", "Immutable segments held", ("node",)
        ).labels(node=name).set_function(lambda: self.segment_count)

    # Backward-compatible counter views over the registry.

    @property
    def inserts(self) -> int:
        return int(self._inserts.value)

    @property
    def flushes(self) -> int:
        return int(self._flushes.value)

    @property
    def compactions(self) -> int:
        return int(self._compactions.value)

    # -- write path -------------------------------------------------------

    def insert(self, sid: SensorId, timestamp: int, value: int, ttl_s: int = 0) -> None:
        """Append one reading to the memtable."""
        expiry = _INT64_MAX if ttl_s <= 0 else timestamp + ttl_s * 1_000_000_000
        with self._lock:
            data = self._data.get(sid)
            if data is None:
                data = _SensorData()
                self._data[sid] = data
                self._sids_cache = None
            data.mem_ts.append(timestamp)
            data.mem_val.append(value)
            data.mem_exp.append(expiry)
            self._memtable_rows += 1
            self._inserts.inc()
            if self._memtable_rows >= self.flush_threshold:
                self._flush_locked()

    def insert_batch(self, items) -> int:
        """Bulk append; one lock acquisition for the whole batch.

        The batch is decomposed into per-sensor columns *outside* the
        lock (C-level ``zip``/``itertools`` where possible) and the
        memtable columns are extended in bulk, so the lock hold time
        and the per-row Python overhead both shrink with batch size.
        """
        if not isinstance(items, list):
            items = list(items)
        count = len(items)
        if count == 0:
            return 0
        sids, timestamps, values, ttls = zip(*items)
        if len(set(sids)) == 1:
            # Single-sensor batch (one MQTT message, one bulk import):
            # three column extends, no per-row Python loop at all when
            # the TTLs need no arithmetic.
            if max(ttls) <= 0:
                expiries = itertools.repeat(_INT64_MAX, count)
            else:
                expiries = [
                    _INT64_MAX if ttl <= 0 else t + ttl * 1_000_000_000
                    for t, ttl in zip(timestamps, ttls)
                ]
            columns = {sids[0]: (timestamps, values, expiries)}
        else:
            # Mixed-sensor batch (cross-message coalescing): one
            # grouping pass, then bulk extends per sensor.
            columns = {}
            for sid, timestamp, value, ttl_s in items:
                cols = columns.get(sid)
                if cols is None:
                    cols = ([], [], [])
                    columns[sid] = cols
                cols[0].append(timestamp)
                cols[1].append(value)
                cols[2].append(
                    _INT64_MAX if ttl_s <= 0 else timestamp + ttl_s * 1_000_000_000
                )
        with self._lock:
            for sid, (col_ts, col_val, col_exp) in columns.items():
                data = self._data.get(sid)
                if data is None:
                    data = _SensorData()
                    self._data[sid] = data
                    self._sids_cache = None
                data.mem_ts.extend(col_ts)
                data.mem_val.extend(col_val)
                data.mem_exp.extend(col_exp)
            self._memtable_rows += count
            self._inserts.inc(count)
            if self._memtable_rows >= self.flush_threshold:
                self._flush_locked()
        return count

    def flush(self) -> None:
        """Freeze the memtable of every sensor into segments."""
        with self._lock:
            self._flush_locked()

    def _flush_locked(self) -> None:
        frozen: dict[SensorId, _Segment] = {}
        for sid, data in self._data.items():
            if not data.mem_ts:
                continue
            # Sorting and deduplicating at freeze time establishes the
            # strictly-ascending segment invariant the zero-copy query
            # fast path relies on.
            segment = _Segment(
                *merge_lww(
                    [
                        (
                            np.asarray(data.mem_ts, dtype=np.int64),
                            np.asarray(data.mem_val, dtype=np.int64),
                            np.asarray(data.mem_exp, dtype=np.int64),
                        )
                    ]
                )
            )
            data.mem_ts.clear()
            data.mem_val.clear()
            data.mem_exp.clear()
            data.segments.append(segment)
            frozen[sid] = segment
        self._memtable_rows = 0
        # Only count flushes that actually froze a segment: an empty
        # memtable is a no-op and must not skew the Fig. 8 accounting.
        if frozen:
            self._flushes.inc()
            # Durability seam: a subclass persists the freshly frozen
            # segments (and may truncate its WAL) before any in-memory
            # compaction reshuffles them.  Still under the node lock.
            self._sealed(frozen)
            for data in self._data.values():
                if len(data.segments) > self.max_segments_per_sensor:
                    self._compact_sensor(data)

    def _sealed(self, frozen: dict[SensorId, _Segment]) -> None:
        """Hook called under the lock after a memtable seal.

        ``frozen`` maps each sensor to the segment its memtable rows
        froze into (sorted, LWW-deduplicated).  The in-memory node does
        nothing; :class:`~repro.storage.durable.DurableNode` overrides
        this to write a segment file and rotate its write-ahead log.
        """

    # -- compaction ---------------------------------------------------------

    def compact(self) -> None:
        """Merge all segments per sensor, dropping expired rows."""
        with self._lock:
            self._flush_locked()
            for data in self._data.values():
                if len(data.segments) > 1 or any(
                    (seg.expiries <= self._clock()).any() for seg in data.segments
                ):
                    self._compact_sensor(data)

    def _compact_sensor(self, data: _SensorData) -> None:
        merged = merge_lww(
            [(seg.timestamps, seg.values, seg.expiries) for seg in data.segments],
            now=self._clock(),
            ascending=True,
        )
        data.segments = [_Segment(*merged)]
        self._compactions.inc()

    # -- read path ----------------------------------------------------------

    def _stage_locked(
        self, sid: SensorId, data: _SensorData, start: int, end: int
    ) -> tuple[list[_Segment], tuple[np.ndarray, np.ndarray, np.ndarray] | None, int]:
        """Snapshot one sensor's query inputs while holding the lock.

        Segments are immutable, so overlapping ones are captured by
        reference after min/max pruning; memtable columns (mutable
        lists) are frozen into arrays.  Returns ``(segments, memtable
        snapshot or None, segments pruned)`` — the expensive slicing
        and merging then happens outside the lock.

        ``sid`` identifies the sensor for subclasses that stage extra
        sources (the durable node prepends footer-pruned disk blocks);
        the base implementation does not need it.
        """
        segments = [seg for seg in data.segments if seg.overlaps(start, end)]
        pruned = len(data.segments) - len(segments)
        mem = None
        if data.mem_ts:
            mem = (
                np.asarray(data.mem_ts, dtype=np.int64),
                np.asarray(data.mem_val, dtype=np.int64),
                np.asarray(data.mem_exp, dtype=np.int64),
            )
        return segments, mem, pruned

    @staticmethod
    def _merge_staged(
        segments: list[_Segment],
        mem: tuple[np.ndarray, np.ndarray, np.ndarray] | None,
        start: int,
        end: int,
        now: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Merge staged segments + memtable snapshot into one series."""
        parts: list[tuple[np.ndarray, ...]] = []
        for seg in segments:
            part = seg.slice(start, end, now)
            if part[0].size:
                parts.append(part)
        mem_contributed = False
        if mem is not None:
            mts, mvals, mexp = mem
            mask = (mts >= start) & (mts <= end) & (mexp > now)
            if mask.any():
                parts.append((mts[mask], mvals[mask]))
                mem_contributed = True
        if not parts:
            return _EMPTY, _EMPTY
        # A single segment slice is already sorted and deduplicated
        # (the segment invariant), so merge_lww hands the views from
        # slice() back untouched; memtable rows are in arrival order.
        return merge_lww(parts, ascending=not mem_contributed)

    def query(self, sid: SensorId, start: int, end: int) -> tuple[np.ndarray, np.ndarray]:
        """Time-ordered readings of ``sid`` in [start, end]."""
        t0 = perf_counter()
        now = self._clock()
        with self._lock:
            data = self._data.get(sid)
            if data is None:
                return _EMPTY, _EMPTY
            segments, mem, pruned = self._stage_locked(sid, data, start, end)
        if pruned:
            self._segments_pruned.inc(pruned)
        result = self._merge_staged(segments, mem, start, end, now)
        self._query_latency.observe(perf_counter() - t0)
        return result

    def query_many(
        self, sids, start: int, end: int
    ) -> dict[SensorId, tuple[np.ndarray, np.ndarray]]:
        """Bulk read: the series of every SID in ``sids`` over one range.

        Semantically identical to calling :meth:`query` per SID, but
        amortizes a single lock acquisition across the whole batch:
        inputs for all sensors are staged under the lock (cheap — the
        segments are captured by reference after pruning), then sliced
        and merged outside it.  Returns an entry for *every* requested
        SID, with empty arrays for sensors without data in range.
        """
        t0 = perf_counter()
        now = self._clock()
        if not isinstance(sids, (list, tuple)):
            sids = list(sids)
        staged: list[tuple[list[_Segment], tuple, int] | None] = []
        with self._lock:
            for sid in sids:
                data = self._data.get(sid)
                staged.append(
                    None if data is None else self._stage_locked(sid, data, start, end)
                )
        pruned_total = 0
        out: dict[SensorId, tuple[np.ndarray, np.ndarray]] = {}
        for sid, stage in zip(sids, staged):
            if stage is None:
                out[sid] = (_EMPTY, _EMPTY)
                continue
            segments, mem, pruned = stage
            pruned_total += pruned
            out[sid] = self._merge_staged(segments, mem, start, end, now)
        if pruned_total:
            self._segments_pruned.inc(pruned_total)
        self._query_latency.observe(perf_counter() - t0)
        return out

    def stream_rows(self, sid: SensorId, chunk_rows: int = 4096):
        """Yield one sensor's live rows as chunked ``InsertItem`` lists.

        The rebalance path uses this to stream a partition's history to
        its new owner: each chunk feeds straight into ``insert_batch``
        on the target.  Sources are emitted in last-write-wins order
        (oldest segment first, memtable last) without a global merge,
        so replaying the chunks in order reproduces the same LWW
        outcome on the target; duplicate timestamps across sources are
        deduplicated there at read time exactly as they are here.  TTLs
        are reconstructed from the stored expiries so retention keeps
        working on the new owner.  For durable nodes the staged sources
        are footer-pruned disk blocks, making the stream block-granular
        without materializing whole segment files.
        """
        now = self._clock()
        with self._lock:
            data = self._data.get(sid)
            if data is None:
                return
            segments, mem, _ = self._stage_locked(
                sid, data, -(1 << 62), _INT64_MAX
            )
        sources = [(seg.timestamps, seg.values, seg.expiries) for seg in segments]
        if mem is not None:
            sources.append(mem)
        for ts, vals, exp in sources:
            live = exp > now
            if not live.all():
                ts, vals, exp = ts[live], vals[live], exp[live]
            for off in range(0, ts.size, chunk_rows):
                sl = slice(off, off + chunk_rows)
                cts, cvals, cexp = ts[sl], vals[sl], exp[sl]
                ttls = np.where(
                    cexp == _INT64_MAX, 0, (cexp - cts) // 1_000_000_000
                )
                yield [
                    (sid, int(t), int(v), int(l))
                    for t, v, l in zip(cts.tolist(), cvals.tolist(), ttls.tolist())
                ]

    def sids(self) -> list[SensorId]:
        """Sorted SIDs with stored data.

        The list is cached (rebuilt only after a new sensor appears) and
        shared between callers — treat it as immutable.
        """
        with self._lock:
            cache = self._sids_cache
            if cache is None:
                cache = self._sids_cache = sorted(self._data)
            return cache

    def delete_before(self, sid: SensorId, cutoff: int) -> int:
        """Remove readings strictly older than ``cutoff``."""
        removed = 0
        with self._lock:
            data = self._data.get(sid)
            if data is None:
                return 0
            if data.mem_ts:
                mts = np.asarray(data.mem_ts, dtype=np.int64)
                keep = mts >= cutoff
                dropped = int(keep.size) - int(keep.sum())
                if dropped:
                    removed += dropped
                    mvals = np.asarray(data.mem_val, dtype=np.int64)
                    mexp = np.asarray(data.mem_exp, dtype=np.int64)
                    data.mem_ts = mts[keep].tolist()
                    data.mem_val = mvals[keep].tolist()
                    data.mem_exp = mexp[keep].tolist()
            new_segments = []
            for seg in data.segments:
                mask = seg.timestamps >= cutoff
                dropped = int((~mask).sum())
                if dropped:
                    removed += dropped
                    if mask.any():
                        new_segments.append(
                            _Segment(
                                seg.timestamps[mask], seg.values[mask], seg.expiries[mask]
                            )
                        )
                else:
                    new_segments.append(seg)
            data.segments = new_segments
            self._memtable_rows = sum(len(d.mem_ts) for d in self._data.values())
        return removed

    # -- metadata -------------------------------------------------------------

    def put_metadata(self, key: str, value: str) -> None:
        self.put_metadata_many([(key, value)])

    def put_metadata_many(self, pairs) -> None:
        with self._lock:
            for key, value in pairs:
                if value == "":
                    self._metadata.pop(key, None)
                else:
                    self._metadata[key] = value

    def get_metadata(self, key: str) -> str | None:
        with self._lock:
            return self._metadata.get(key)

    def metadata_keys(self, prefix: str = "") -> list[str]:
        with self._lock:
            return sorted(k for k in self._metadata if k.startswith(prefix))

    # -- introspection ----------------------------------------------------------

    @property
    def row_count(self) -> int:
        """Total stored rows (memtable + segments), pre-TTL."""
        with self._lock:
            total = 0
            for data in self._data.values():
                total += len(data.mem_ts)
                total += sum(seg.size for seg in data.segments)
            return total

    @property
    def segment_count(self) -> int:
        with self._lock:
            return sum(len(d.segments) for d in self._data.values())


_EMPTY = np.empty(0, dtype=np.int64)
