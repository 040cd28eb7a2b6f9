"""The storage engine: memtable, sealed tables of sorted runs, compaction.

Models the write path that makes wide-column stores "a perfect fit"
for monitoring data (paper section 3.1): inserts land in an in-memory
*memtable* (append, no sorting on the hot path); when it fills up a
*seal* freezes it into an immutable *table* holding one time-sorted,
deduplicated *run* per sensor (the SSTable analogue); reads merge the
memtable and every overlapping run; *compaction* merges contiguous
tables to bound read amplification.  TTL expiry happens lazily on read
and permanently on compaction — the same life cycle as Cassandra's
tombstone-free TTL columns.

This is the only engine.  Where a table's runs live is decided by the
store seams (``_write_table``, ``_sealed``, ``_schedule_merge_locked``,
``_tables_changed_locked``): :class:`StorageNode` keeps them resident
as numpy arrays; :class:`~repro.storage.durable.DurableNode` writes
every seal and merge as one segment file and reads its runs back
through a bounded block cache.  The table list (LWW order), each
sensor's run list, the seal, retention, the merge policy, the read
merge, ``stream_rows`` and the counts exist once, here.

Retention: ``delete_before`` removes matching memtable rows and covers
every table stored when it is issued — each table carries a generation
number, and a cutoff records the first generation it does not cover.
Rows that arrive later stay visible.  Covered runs are sliced on read
and filtered for good when a merge rewrites them.

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

import hashlib
import threading
from array import array
from dataclasses import dataclass, field
from time import perf_counter
from typing import Sequence

import numpy as np

from repro.core.sid import SensorId
from repro.observability import MetricsRegistry
from repro.storage.backend import ReadingBatch, StorageBackend, as_batch

_INT64_MAX = (1 << 63) - 1
#: Uncompressed cost of one reading in a resident run (ts + value +
#: expiry, int64 each) — also the segment files' compression baseline.
RAW_BYTES_PER_ROW = 24
#: Tables one tiered merge consumes: the cheapest contiguous run of
#: this many (fewer when fewer exist).
COMPACT_MIN_RUN = 4


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
    part already is such a run (a sealed run, a disk block): a lone
    part then comes back as the views it went in as, which is what
    keeps the single-run read path zero-copy.
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


def _cutoff_of(pairs, gen: int) -> int | None:
    """The retention cutoff covering table generation ``gen``: the
    highest of the ``(cutoff, first generation not covered)`` pairs
    issued while the table existed."""
    if not pairs:
        return None
    return max((cutoff for cutoff, below in pairs if gen < below), default=None)


@dataclass(slots=True)
class _Segment:
    """An immutable, time-sorted, timestamp-deduplicated run of readings.

    Invariants (established at seal/merge time): ``timestamps`` is
    strictly ascending — sorted AND deduplicated last-write-wins — and
    ``min_ts``/``max_ts`` cache the bounds.  The read path's zero-copy
    fast path returns views into these arrays, which is only sound
    because both invariants hold — and because the arrays are
    read-only, so no caller can write through a view into the store.
    """

    timestamps: np.ndarray  # int64, strictly ascending
    values: np.ndarray  # int64
    expiries: np.ndarray  # int64 expiry ns; _INT64_MAX = never
    min_ts: int = field(init=False, default=0)
    max_ts: int = field(init=False, default=-1)
    min_expiry: int = field(init=False, default=_INT64_MAX)

    def __post_init__(self) -> None:
        for column in (self.timestamps, self.values, self.expiries):
            column.setflags(write=False)
        if self.timestamps.size:
            self.min_ts = int(self.timestamps[0])
            self.max_ts = int(self.timestamps[-1])
            self.min_expiry = int(self.expiries.min())

    @property
    def size(self) -> int:
        return int(self.timestamps.size)

    def slice(self, start: int, end: int, now: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows with start <= t <= end that have not expired at ``now``.

        Binary-searches the sorted timestamps (no boolean mask over the
        whole run) and returns *views* when every row is live.
        ``min_expiry`` (cached at freeze time) lets the common all-live
        run skip the expiry mask entirely, and a window covering the
        whole run skips the binary search too — the full arrays come
        back untouched.
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


class _ResidentTable:
    """A table whose runs are held in memory, one :class:`_Segment` per
    sensor.  Shares the read interface of a segment file (``sids``,
    ``bounds_for``, ``rows_for``, ``read``) so the engine never asks
    where a table lives — only whether it is still ``resident``."""

    resident = True
    __slots__ = ("gen", "blocks", "size_bytes")

    def __init__(self, gen: int, blocks: dict[SensorId, _Segment]) -> None:
        self.gen = gen
        self.blocks = blocks
        self.size_bytes = RAW_BYTES_PER_ROW * sum(b.size for b in blocks.values())

    def sids(self):
        return self.blocks.keys()

    def __contains__(self, sid: SensorId) -> bool:
        return sid in self.blocks

    def bounds_for(self, sid: SensorId) -> tuple[int, int]:
        block = self.blocks[sid]
        return block.min_ts, block.max_ts

    def rows_for(self, sid: SensorId) -> int:
        return self.blocks[sid].size

    def block(self, sid: SensorId) -> _Segment:
        return self.blocks[sid]

    def read(self, sid: SensorId) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        block = self.blocks[sid]
        return block.timestamps, block.values, block.expiries

    def discard(self) -> None:
        """Nothing to release: the arrays go with the last reference."""

    close = discard


def _column(rows=b"") -> array:
    """A growable int64 memtable column."""
    return array("q", rows)


#: One memtable expiry meaning "never", as raw int64 bytes.
_NEVER_ROW = _column([_INT64_MAX]).tobytes()


@dataclass(slots=True)
class _SensorData:
    """Per-sensor storage state: live memtable rows (int64 columns in
    arrival order) plus the tables holding a run of this sensor, oldest
    first (LWW order)."""

    mem_ts: array = field(default_factory=_column)
    mem_val: array = field(default_factory=_column)
    mem_exp: array = field(default_factory=_column)
    runs: list = field(default_factory=list)

    def memtable(self) -> tuple[np.ndarray, ...]:
        """Copies of the memtable columns, safe to use after the lock is
        released (a view would pin the growing column's buffer)."""
        return tuple(np.array(col) for col in (self.mem_ts, self.mem_val, self.mem_exp))

    def reset_memtable(self, keep: np.ndarray | None = None) -> None:
        """Keep only the memtable rows ``keep`` selects (default: none)."""
        kept = [col[keep].tobytes() for col in self.memtable()] if keep is not None else [b""] * 3
        self.mem_ts, self.mem_val, self.mem_exp = map(_column, kept)


class StorageNode(StorageBackend):
    """One storage server of the distributed store.

    ``flush_threshold`` is the per-node memtable row budget before an
    automatic seal; once more than ``max_segment_files`` tables exist
    the cheapest contiguous run of :data:`COMPACT_MIN_RUN` of them
    merges into one.  ``clock`` supplies "now" for TTL decisions and
    defaults to the wall clock; simulations inject a
    :class:`~repro.common.timeutil.SimClock`.
    """

    def __init__(
        self,
        name: str = "node0",
        flush_threshold: int = 100_000,
        max_segment_files: int = 8,
        clock=None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        from repro.common.timeutil import now_ns

        self.name = name
        self.flush_threshold = flush_threshold
        self.max_segment_files = max(1, max_segment_files)
        self._clock = clock if clock is not None else now_ns
        self._data: dict[SensorId, _SensorData] = {}
        self._metadata: dict[str, str] = {}
        self._lock = threading.RLock()
        #: Serializes merge builds that run outside the node lock
        #: against full compactions.
        self._merge_mutex = threading.Lock()
        self._memtable_rows = 0
        #: Every sealed table, oldest first: seal order == LWW order.
        self._tables: list = []
        self._next_gen = 1
        #: Per sensor: (cutoff, first table generation not covered).
        self._cutoffs: dict[SensorId, list[tuple[int, int]]] = {}
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
        self._segments_pruned = self.metrics.counter(
            "dcdb_storage_segments_pruned_total",
            "Resident runs skipped by time-index pruning on the read path",
            ("node",),
        ).labels(node=name)
        self._blocks_pruned = self.metrics.counter(
            "dcdb_segment_blocks_pruned_total",
            "On-disk blocks skipped via footer time-bounds on windowed reads",
            ("node",),
        ).labels(node=name)
        self._query_latency = self.metrics.histogram(
            "dcdb_node_query_seconds",
            "Node-layer query latency (query and query_many calls)",
            ("node",),
        ).labels(node=name)
        self._compaction_runs = self.metrics.counter(
            "dcdb_compaction_runs_total",
            "Table merges completed (tiered or full, either store)",
            ("node",),
        ).labels(node=name)
        self._compaction_seconds = self.metrics.histogram(
            "dcdb_compaction_seconds",
            "Wall time of one table merge (build + swap)",
            ("node",),
        ).labels(node=name)
        self.metrics.gauge(
            "dcdb_compaction_backlog",
            "Tables above the compaction trigger threshold",
            ("node",),
        ).labels(node=name).set_function(
            lambda: max(0, len(self._tables) - self.max_segment_files)
        )
        self.metrics.gauge(
            "dcdb_storage_memtable_rows", "Rows currently in the memtable", ("node",)
        ).labels(node=name).set_function(lambda: self._memtable_rows)
        self.metrics.gauge(
            "dcdb_storage_segments", "Sealed per-sensor runs held", ("node",)
        ).labels(node=name).set_function(lambda: self.segment_count)

    # -- write path -------------------------------------------------------

    def _sensor_locked(self, sid: SensorId) -> _SensorData:
        data = self._data.get(sid)
        if data is None:
            data = self._data[sid] = _SensorData()
            self._sids_cache = None
        return data

    def insert_batch(self, items) -> int:
        """Bulk append; one lock acquisition for the whole batch.

        The columns become raw int64 bytes once, outside the lock;
        under it every run is three column extends — no per-row work.
        """
        batch = as_batch(items)
        count = len(batch)
        if count == 0:
            return 0
        expiries = batch.expiries()
        timestamps, values = batch.timestamps.tobytes(), batch.values.tobytes()
        expiries = _NEVER_ROW * count if expiries is None else expiries.tobytes()
        with self._lock:
            end = 0
            for sid, length in zip(batch.sids, batch.lengths):
                data = self._sensor_locked(sid)
                start, end = end, end + 8 * length
                data.mem_ts.frombytes(timestamps[start:end])
                data.mem_val.frombytes(values[start:end])
                data.mem_exp.frombytes(expiries[start:end])
            self._memtable_rows += count
            self._inserts.inc(count)
            if self._memtable_rows >= self.flush_threshold:
                self._flush_locked()
        return count

    def flush(self) -> None:
        """Seal the memtable of every sensor into one table."""
        with self._lock:
            self._flush_locked()

    def _take_gen(self) -> int:
        gen = self._next_gen
        self._next_gen = gen + 1
        return gen

    def _add_table_locked(self, table) -> None:
        """Append ``table`` as the newest in LWW order."""
        self._tables.append(table)
        for sid in table.sids():
            self._sensor_locked(sid).runs.append(table)

    def _flush_locked(self) -> None:
        blocks: dict[SensorId, _Segment] = {}
        for sid, data in self._data.items():
            if not data.mem_ts:
                continue
            # Sorting and deduplicating at freeze time establishes the
            # strictly-ascending run invariant the zero-copy query fast
            # path relies on.
            blocks[sid] = _Segment(*merge_lww([data.memtable()]))
            data.reset_memtable()
        self._memtable_rows = 0
        # Only count seals that froze something: an empty memtable is
        # a no-op and must not skew the Fig. 8 accounting.
        if blocks:
            self._flushes.inc()
            self._add_table_locked(_ResidentTable(self._take_gen(), blocks))
        self._sealed()
        self._schedule_merge_locked()

    # -- store seams ---------------------------------------------------------

    def _write_table(self, gen: int, sensors):
        """Store seam: materialize ``(sid, ts, values, expiries)`` runs
        as table ``gen`` (None when every run is empty).  Resident here."""
        blocks = {sid: _Segment(ts, vals, exp) for sid, ts, vals, exp in sensors if ts.size}
        return _ResidentTable(gen, blocks) if blocks else None

    def _sealed(self) -> None:
        """Store seam, called under the lock after every seal: resident
        tables are final, so there is nothing to persist."""

    def _schedule_merge_locked(self) -> None:
        """Store seam: resident merges are cheap, so they run inline."""
        while self._merge_once():
            pass

    def _tables_changed_locked(self) -> None:
        """Store seam, called under the lock after a merge swap."""

    # -- compaction ---------------------------------------------------------

    def _plan_merge_locked(self):
        """The merge policy: once more than ``max_segment_files`` tables
        exist, the cheapest contiguous run of :data:`COMPACT_MIN_RUN`
        (contiguous, because table order is LWW order).  Reserves the
        output's generation and snapshots what the build needs."""
        tables = self._tables
        if len(tables) <= self.max_segment_files:
            return None
        run = min(COMPACT_MIN_RUN, len(tables))
        at = min(
            range(len(tables) - run + 1),
            key=lambda i: sum(t.size_bytes for t in tables[i : i + run]),
        )
        return tables[at : at + run], self._take_gen(), self._clock(), dict(self._cutoffs)

    def _merge(self, victims: list, gen: int, now: int | None, cutoffs):
        """Write the merge of ``victims`` (contiguous, LWW order) as table
        ``gen`` with retention applied and, given ``now``, TTL too.
        Needs no lock: tables are immutable and ``cutoffs`` a snapshot."""
        run_sids = sorted({sid for table in victims for sid in table.sids()})

        def sensors():
            for sid in run_sids:
                pairs = cutoffs.get(sid)
                parts = []
                for table in victims:
                    if sid not in table:
                        continue
                    ts, vals, exp = table.read(sid)
                    cutoff = _cutoff_of(pairs, table.gen)
                    if cutoff is not None:
                        lo = int(np.searchsorted(ts, cutoff, side="left"))
                        ts, vals, exp = ts[lo:], vals[lo:], exp[lo:]
                    parts.append((ts, vals, exp))
                yield sid, *merge_lww(parts, now=now, ascending=True)

        return self._write_table(gen, sensors())

    def _swap_locked(self, victims: list, table) -> bool:
        """Replace ``victims`` by ``table`` (None: nothing survived) in
        the table list and in every affected sensor's run list; the
        output takes the first victim's LWW position.  False when the
        victims are no longer stored contiguously (a seal or a close
        replaced them while a merge was building)."""
        at = next((i for i, t in enumerate(self._tables) if t is victims[0]), None)
        if at is None or self._tables[at : at + len(victims)] != victims:
            return False
        self._tables[at : at + len(victims)] = [] if table is None else [table]
        doomed = set(victims)
        for sid in {sid for victim in victims for sid in victim.sids()}:
            data = self._data[sid]
            placed = table is None or sid not in table
            runs = []
            for run in data.runs:
                if run not in doomed:
                    runs.append(run)
                elif not placed:
                    runs.append(table)
                    placed = True
            data.runs = runs
        return True

    def _merged_locked(self, victims: list, t0: float) -> None:
        self._compaction_runs.inc()
        self._tables_changed_locked()
        for victim in victims:
            victim.discard()
        self._compaction_seconds.observe(perf_counter() - t0)

    def _merge_once(self) -> bool:
        """One tiered merge: plan and swap under the node lock, build in
        between.  False when the policy finds nothing to merge."""
        t0 = perf_counter()
        with self._lock:
            plan = self._plan_merge_locked()
        if plan is None:
            return False
        victims, gen, now, cutoffs = plan
        table = self._merge(victims, gen, now, cutoffs)
        with self._lock:
            if self._swap_locked(victims, table):
                self._merged_locked(victims, t0)
            elif table is not None:
                table.discard()
        return True

    def compact(self) -> None:
        """Seal, then merge every table into one, dropping expired and
        retention-covered rows for good."""
        with self._merge_mutex, self._lock:
            self._flush_locked()
            victims = list(self._tables)
            if not victims:
                return
            t0 = perf_counter()
            table = self._merge(victims, self._take_gen(), self._clock(), self._cutoffs)
            self._swap_locked(victims, table)
            self._merged_locked(victims, t0)

    # -- read path ----------------------------------------------------------

    def _block_locked(self, sid: SensorId, table) -> _Segment:
        """One sensor's run in one table, with the retention cutoff that
        covers the table applied (a slice: runs are sorted)."""
        block = table.block(sid)
        cutoff = _cutoff_of(self._cutoffs.get(sid), table.gen)
        if cutoff is not None and cutoff > block.min_ts:
            lo = int(np.searchsorted(block.timestamps, cutoff, side="left"))
            block = _Segment(block.timestamps[lo:], block.values[lo:], block.expiries[lo:])
        return block

    def _stage_locked(
        self, sid: SensorId, data: _SensorData, start: int, end: int
    ) -> tuple[list[_Segment], tuple[np.ndarray, np.ndarray, np.ndarray] | None]:
        """Snapshot one sensor's query inputs while holding the lock.

        Runs whose ``[min_ts, max_ts]`` misses the window are pruned on
        their bounds alone (a footer entry for a file); the others are
        captured by reference, a file's decoded through the block cache.
        Memtable columns (growing in place) are copied into arrays.  The
        expensive slicing and merging then happens outside the lock.
        """
        runs: list[_Segment] = []
        pruned_resident = pruned_files = 0
        for table in data.runs:
            min_ts, max_ts = table.bounds_for(sid)
            if max_ts < start or min_ts > end:
                if table.resident:
                    pruned_resident += 1
                else:
                    pruned_files += 1
                continue
            block = self._block_locked(sid, table)
            if block.size:
                runs.append(block)
        if pruned_resident:
            self._segments_pruned.inc(pruned_resident)
        if pruned_files:
            self._blocks_pruned.inc(pruned_files)
        return runs, data.memtable() if data.mem_ts else None

    @staticmethod
    def _merge_staged(
        runs: list[_Segment],
        mem: tuple[np.ndarray, np.ndarray, np.ndarray] | None,
        start: int,
        end: int,
        now: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Merge staged runs + memtable snapshot into one series."""
        parts: list[tuple[np.ndarray, ...]] = []
        for run in runs:
            part = run.slice(start, end, now)
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
        # A single run slice is already sorted and deduplicated (the
        # run invariant), so merge_lww hands the views from slice()
        # back untouched; memtable rows are in arrival order.
        return merge_lww(parts, ascending=not mem_contributed)

    def query(self, sid: SensorId, start: int, end: int) -> tuple[np.ndarray, np.ndarray]:
        """Time-ordered readings of ``sid`` in [start, end]."""
        t0 = perf_counter()
        now = self._clock()
        with self._lock:
            data = self._data.get(sid)
            if data is None:
                return _EMPTY, _EMPTY
            runs, mem = self._stage_locked(sid, data, start, end)
        result = self._merge_staged(runs, mem, start, end, now)
        self._query_latency.observe(perf_counter() - t0)
        return result

    def query_many(
        self, sids, start: int, end: int
    ) -> dict[SensorId, tuple[np.ndarray, np.ndarray]]:
        """Bulk read: the series of every SID in ``sids`` over one range.

        Semantically identical to calling :meth:`query` per SID, but
        amortizes a single lock acquisition across the whole batch:
        inputs for all sensors are staged under the lock, then sliced
        and merged outside it.  Returns an entry for *every* requested
        SID, with empty arrays for sensors without data in range.
        """
        t0 = perf_counter()
        now = self._clock()
        if not isinstance(sids, (list, tuple)):
            sids = list(sids)
        staged: list[tuple[list[_Segment], tuple | None] | None] = []
        with self._lock:
            for sid in sids:
                data = self._data.get(sid)
                staged.append(
                    None if data is None else self._stage_locked(sid, data, start, end)
                )
        out: dict[SensorId, tuple[np.ndarray, np.ndarray]] = {}
        for sid, stage in zip(sids, staged):
            if stage is None:
                out[sid] = (_EMPTY, _EMPTY)
                continue
            out[sid] = self._merge_staged(*stage, start, end, now)
        self._query_latency.observe(perf_counter() - t0)
        return out

    def latest(self, sid: SensorId) -> tuple[int, int] | None:
        """Most recent (timestamp, value) of ``sid`` without reading its
        history: the newest candidate comes from the memtable and each
        run's bounds (a footer entry for a file), and only the run
        holding it is read.  When that row has expired or a retention
        cutoff covers it, the newest live row is older, so the answer
        falls back to the full read."""
        now = self._clock()
        with self._lock:
            data = self._data.get(sid)
            if data is None:
                return None
            # On a bounds tie the newer table wins (later in LWW order).
            table = max(reversed(data.runs), key=lambda t: t.bounds_for(sid)[1], default=None)
            newest = table.bounds_for(sid)[1] if table is not None else None
            row = None
            if data.mem_ts:
                mem_ts = np.array(data.mem_ts)
                at = mem_ts.size - 1 - int(np.argmax(mem_ts[::-1]))
                if newest is None or mem_ts[at] >= newest:
                    # Memtable rows are newer writes than every table's.
                    newest, row = int(mem_ts[at]), (data.mem_val[at], data.mem_exp[at])
            if row is None and table is not None:
                block = self._block_locked(sid, table)
                if block.size and block.max_ts == newest:
                    row = int(block.values[-1]), int(block.expiries[-1])
        if row is not None and row[1] > now:
            return newest, row[0]
        return super().latest(sid)

    def stream_rows(self, sid: SensorId, chunk_rows: int = 4096):
        """Yield one sensor's live rows as :class:`ReadingBatch` chunks
        of at most ``chunk_rows`` readings (column slices).

        The rebalance path uses this to stream a partition's history to
        its new owner: each chunk feeds straight into ``insert_batch``
        on the target.  Runs are emitted in last-write-wins order
        (oldest table first, memtable last) without a global merge, so
        replaying the chunks in order reproduces the same LWW outcome
        on the target; duplicate timestamps across runs are
        deduplicated there at read time exactly as they are here.  TTLs
        are reconstructed from the stored expiries so retention keeps
        working on the new owner.  A file's runs come block by block
        through the cache, never whole files at once.
        """
        now = self._clock()
        with self._lock:
            data = self._data.get(sid)
            if data is None:
                return
            runs, mem = self._stage_locked(sid, data, -(1 << 62), _INT64_MAX)
        sources = [(run.timestamps, run.values, run.expiries) for run in runs]
        if mem is not None:
            sources.append(mem)
        for ts, vals, exp in sources:
            live = exp > now
            if not live.all():
                ts, vals, exp = ts[live], vals[live], exp[live]
            for off in range(0, ts.size, chunk_rows):
                sl = slice(off, off + chunk_rows)
                cts, cexp = ts[sl], exp[sl]
                ttls = np.where(cexp == _INT64_MAX, 0, (cexp - cts) // 1_000_000_000)
                yield ReadingBatch.grouped((), cts, vals[sl], ttls, lambda _row: sid)

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
        """Remove readings strictly older than ``cutoff`` from the
        memtable and from every table stored now; rows that arrive
        later stay visible."""
        removed = 0
        with self._lock:
            data = self._data.get(sid)
            if data is None:
                return 0
            for table in data.runs:
                if cutoff > table.bounds_for(sid)[0]:
                    block = self._block_locked(sid, table)
                    removed += int(np.searchsorted(block.timestamps, cutoff, side="left"))
            if data.runs:
                kept = [pair for pair in self._cutoffs.get(sid, ()) if pair[0] > cutoff]
                self._cutoffs[sid] = kept + [(cutoff, self._next_gen)]
            if data.mem_ts:
                keep = np.array(data.mem_ts, dtype=np.int64) >= cutoff
                dropped = int(keep.size) - int(keep.sum())
                if dropped:
                    removed += dropped
                    self._memtable_rows -= dropped
                    data.reset_memtable(keep)
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
        """Stored rows (memtable + runs), after retention, before TTL.

        A run no cutoff covers is counted from its table's index (a
        segment footer for a file) without being decoded."""
        with self._lock:
            total = self._memtable_rows
            for sid, data in self._data.items():
                pairs = self._cutoffs.get(sid)
                for table in data.runs:
                    if _cutoff_of(pairs, table.gen) is None:
                        total += table.rows_for(sid)
                    else:
                        total += self._block_locked(sid, table).size
            return total

    @property
    def segment_count(self) -> int:
        """Sealed per-sensor runs held."""
        with self._lock:
            return sum(len(d.runs) for d in self._data.values())

    def state_fingerprint(self) -> str:
        """Deterministic digest of all queryable state.

        Two nodes answering every query identically produce the same
        fingerprint — the chaos battery's bit-identical recovery check.
        """
        digest = hashlib.sha256()
        for sid in self.sids():
            ts, vals = self.query(sid, 0, _INT64_MAX)
            digest.update(sid.hex().encode())
            digest.update(ts.tobytes())
            digest.update(vals.tobytes())
        for key in self.metadata_keys():
            digest.update(key.encode("utf-8"))
            digest.update((self.get_metadata(key) or "").encode("utf-8"))
        return digest.hexdigest()


_EMPTY = np.empty(0, dtype=np.int64)
