"""The durable storage node: WAL + segment-file run store + recovery.

:class:`DurableNode` is the :class:`~repro.storage.node.StorageNode`
engine with the persistence shape the paper gets from Cassandra
(section 4.3) and the COMPASS CDB paper describes explicitly.  It adds
three things and nothing else:

* **WAL framing** around the engine's mutators: every accepted
  mutation is framed into a write-ahead log *before* it touches the
  memtable, and the WAL only truncates once a seal's checkpoint makes
  the manifest point past it — ack-driven trimming, the lsst-dm
  buffer-manager discipline.
* **A file run store**: every seal and every merge is written as one
  immutable compressed segment file (see :mod:`.segment`); the engine
  gets back a table whose runs are footer-indexed and decode on demand
  through the byte-budgeted LRU in :mod:`.blockcache`.  Rows sealed in
  this process lifetime are read from their files like any others, so
  resident memory is the memtable plus the cache budget.  A table that
  failed to persist stays resident and pending (still WAL-covered), as
  does one sealed during WAL replay; the next successful seal writes
  every pending table into one file and swaps it in place.  Tiered
  merges run on a background thread.
* **Recovery** (constructor).

On-disk layout of one node directory::

    manifest.json    ordered segment list (= LWW order), WAL floor,
                     next file number, per-sensor retention cutoffs
    metadata.json    the metadata table image as of the last checkpoint
    wal-XXXXXXXX.log active + not-yet-checkpointed WAL files
    seg-XXXXXXXX.seg immutable columnar segments
    LOCK             empty; flock-held while a node has the directory
                     open, so a second opener (another process, or a
                     second node in this one) is refused

A segment file's number is its table's generation, so a retention
cutoff is stored as ``[cutoff, first file number not covered]``.

Crash recovery: sweep orphan ``*.tmp`` files, open the manifest's
segments, load the metadata image, then replay every WAL file at or
above the manifest floor into the engine.  Replay is idempotent under
the last-write-wins invariant, so a WAL that overlaps sealed segments —
the normal state after a crash between seal and checkpoint — double
applies harmlessly.  A torn tail or corrupt CRC stops that file's scan
at the last valid record and recovery continues; it never refuses to
start.  Recovery ends with a seal + checkpoint, leaving a clean log.
"""

from __future__ import annotations

import fcntl
import json
import os
import struct
import threading
from contextlib import contextmanager
from pathlib import Path
from time import monotonic, sleep

import numpy as np

from repro.common.errors import StorageError
from repro.core.sid import SensorId
from repro.observability import MetricsRegistry
from repro.storage.backend import ReadingBatch, as_batch
from repro.storage.node import RAW_BYTES_PER_ROW, StorageNode, _Segment

from .blockcache import BlockCache
from .segment import SegmentFile, segment_path, write_segment
from .wal import CUTOFF, DATA, META, WriteAheadLog, scan_wal_file, wal_path

__all__ = ["DurableNode"]

_MANIFEST_FORMAT = 1
_M64 = (1 << 64) - 1


def _encode_data(batch: ReadingBatch) -> bytes:
    """Frame a batch as a DATA payload: the row count, then five
    little-endian u64 columns — SID high half, SID low half, timestamp,
    value, TTL.  The SID and TTL columns are each run's value repeated
    over its rows (``np.repeat``); the others are the batch's columns."""
    cols = np.empty((5, len(batch)), dtype=np.uint64)
    halves = np.frombuffer(b"".join(s.packed for s in batch.sids), dtype=">u8").reshape(-1, 2)
    cols[0] = np.repeat(halves[:, 0], batch.lengths)
    cols[1] = np.repeat(halves[:, 1], batch.lengths)
    cols[2] = batch.timestamps.view(np.uint64)
    cols[3] = batch.values.view(np.uint64)
    cols[4] = np.repeat(np.array(batch.ttls, dtype=np.int64), batch.lengths).view(np.uint64)
    return struct.pack("<I", len(batch)) + cols.tobytes()


def _decode_data(payload: bytes) -> ReadingBatch:
    """A DATA payload back as one batch: one ``np.frombuffer``, one
    :class:`SensorId` per distinct (high, low) pair."""
    (n,) = struct.unpack_from("<I", payload)
    hi, lo, *signed = np.frombuffer(payload, dtype=np.uint64, offset=4).reshape(5, n)
    pairs, sensor = np.unique(np.stack((hi, lo), axis=1), axis=0, return_inverse=True)
    sids = [SensorId((h << 64) | l) for h, l in pairs.tolist()]
    ts, vals, ttls = (col.view(np.int64) for col in signed)
    return ReadingBatch.grouped((sensor,), ts, vals, ttls, lambda row: sids[sensor[row]])


def _encode_meta(key: str, value: str) -> bytes:
    kb = key.encode("utf-8")
    return struct.pack("<I", len(kb)) + kb + value.encode("utf-8")


def _decode_meta(payload: bytes) -> tuple[str, str]:
    (klen,) = struct.unpack_from("<I", payload)
    return (
        payload[4 : 4 + klen].decode("utf-8"),
        payload[4 + klen :].decode("utf-8"),
    )


def _encode_cutoff(sid: SensorId, cutoff: int) -> bytes:
    return struct.pack("<QQq", sid.value >> 64, sid.value & _M64, cutoff)


def _decode_cutoff(payload: bytes) -> tuple[SensorId, int]:
    hi, lo, cutoff = struct.unpack("<QQq", payload)
    return SensorId((hi << 64) | lo), cutoff


def _atomic_json(path: Path, doc: dict) -> None:
    tmp = path.with_suffix(".tmp")
    data = json.dumps(doc, separators=(",", ":")).encode("utf-8")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def _lock_dir(data_dir: Path):
    """Hold ``data_dir/LOCK`` exclusively, or raise: two nodes replaying
    and checkpointing one directory would each drop the other's rows."""
    handle = open(data_dir / "LOCK", "ab")
    try:
        fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError:
        handle.close()
        raise StorageError(f"data directory {data_dir} is already open") from None
    return handle


class _FileTable(SegmentFile):
    """A table stored as one segment file (file number = generation).
    Its runs decode through the node's block cache."""

    resident = False

    def __init__(self, path: Path, gen: int, cache: BlockCache, disk=None) -> None:
        super().__init__(path, disk=disk)
        self.gen = gen
        self._cache = cache

    def block(self, sid: SensorId) -> _Segment:
        block = self._cache.get(self.path.name, sid)
        if block is None:
            block = _Segment(*self.read(sid))
            self._cache.put(self.path.name, sid, block)
        return block

    def discard(self) -> None:
        """A merge replaced this file: drop its cached blocks, unlink it."""
        self._cache.invalidate_file(self.path.name)
        self.close()
        self.path.unlink(missing_ok=True)


class DurableNode(StorageNode):
    """A :class:`StorageNode` whose state survives ``kill -9``.

    Parameters beyond the base class:

    data_dir:
        Directory owning this node's WAL and segment files (created if
        missing; recovery runs immediately if it holds prior state).
    fsync / fsync_interval_s:
        WAL sync policy — see :class:`~repro.storage.durable.wal.WriteAheadLog`.
    block_cache_bytes:
        Byte budget for the decoded-block LRU on the read path (0
        disables caching; every windowed read decodes its blocks
        fresh).  See :mod:`.blockcache`.
    disk:
        Optional :class:`~repro.faults.disk.DiskFaultInjector` seam.

    ``max_segment_files`` is the engine's merge trigger; here a table
    is a segment file, and merges run on a background thread
    (:meth:`wait_for_compaction` waits for the backlog to drain).
    """

    def __init__(
        self,
        name: str = "node0",
        data_dir: str | Path = "dcdb-data",
        *,
        fsync: str = "interval",
        fsync_interval_s: float = 0.05,
        block_cache_bytes: int = 64 * 1024 * 1024,
        disk=None,
        flush_threshold: int = 100_000,
        max_segment_files: int = 8,
        clock=None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(
            name=name,
            flush_threshold=flush_threshold,
            max_segment_files=max_segment_files,
            clock=clock,
            metrics=metrics,
        )
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self._disk = disk
        self._wal_floor = 1
        self._replaying = False
        self._closed = False
        # The seal path only flags a backlog and wakes the worker;
        # merges build outside the node lock and swap under it.
        self._compact_wake = threading.Event()
        self._compact_stop = False
        self._compact_thread: threading.Thread | None = None

        label = {"node": name}
        self._m_wal_appends = self.metrics.counter(
            "dcdb_wal_appends_total", "Records framed into the write-ahead log", ("node",)
        ).labels(**label)
        self._m_wal_bytes = self.metrics.counter(
            "dcdb_wal_bytes_total", "Bytes appended to the write-ahead log", ("node",)
        ).labels(**label)
        self._m_wal_syncs = self.metrics.counter(
            "dcdb_wal_syncs_total", "fsync calls the WAL commit policy issued", ("node",)
        ).labels(**label)
        self._m_wal_rotations = self.metrics.counter(
            "dcdb_wal_rotations_total", "WAL file rotations at memtable seal", ("node",)
        ).labels(**label)
        self._m_wal_replayed = self.metrics.counter(
            "dcdb_wal_replayed_records_total",
            "WAL records re-applied during crash recovery",
            ("node",),
        ).labels(**label)
        self._m_seg_written = self.metrics.counter(
            "dcdb_segment_files_written_total", "Segment files written (seals + merges)", ("node",)
        ).labels(**label)
        self._m_seg_errors = self.metrics.counter(
            "dcdb_segment_write_errors_total",
            "Failed segment writes (data stays WAL-covered)",
            ("node",),
        ).labels(**label)
        self.metrics.gauge(
            "dcdb_segment_files", "Segment files in the manifest", ("node",)
        ).labels(**label).set_function(lambda: len(self._files()))
        self.metrics.gauge(
            "dcdb_segment_disk_bytes", "Total size of segment files", ("node",)
        ).labels(**label).set_function(lambda: sum(t.size_bytes for t in self._files()))
        self.metrics.gauge(
            "dcdb_segment_compression_ratio",
            "Raw-to-encoded byte ratio of the live segment files",
            ("node",),
        ).labels(**label).set_function(self._compression_ratio)
        self._block_cache = BlockCache(
            block_cache_bytes,
            hits=self.metrics.counter(
                "dcdb_segment_block_cache_hits_total",
                "Decoded-block cache hits on the durable read path",
                ("node",),
            ).labels(**label),
            misses=self.metrics.counter(
                "dcdb_segment_block_cache_misses_total",
                "Decoded-block cache misses (block decoded from disk)",
                ("node",),
            ).labels(**label),
            evictions=self.metrics.counter(
                "dcdb_segment_block_cache_evictions_total",
                "Decoded blocks evicted to honour the cache byte budget",
                ("node",),
            ).labels(**label),
        )
        self.metrics.gauge(
            "dcdb_segment_block_cache_bytes",
            "Decoded bytes currently resident in the block cache",
            ("node",),
        ).labels(**label).set_function(lambda: self._block_cache.bytes)

        self.recovery_info: dict = {}
        self._dir_lock = _lock_dir(self.data_dir)
        try:
            self._recover(fsync, fsync_interval_s)
        except BaseException:
            self._dir_lock.close()
            raise
        # Registered once the WAL exists, so no scrape can see it unopened.
        self.metrics.gauge(
            "dcdb_wal_size_bytes", "Bytes in the active WAL file", ("node",)
        ).labels(**label).set_function(lambda: self._wal.size_bytes)
        with self._lock:
            self._schedule_merge_locked()

    # -- recovery ---------------------------------------------------------

    def _recover(self, fsync: str, fsync_interval_s: float) -> None:
        info: dict = {
            "segments_loaded": 0,
            "segments_dropped": [],
            "orphans_removed": 0,
            "wal_files_scanned": 0,
            "wal_records_replayed": 0,
            "wal_truncations": [],
            "unrecognized_files": [],
        }
        for orphan in self.data_dir.glob("*.tmp"):
            orphan.unlink(missing_ok=True)
            info["orphans_removed"] += 1

        manifest = {"wal_floor": 1, "next_fileno": 1, "segments": [], "cutoffs": {}}
        manifest_path = self.data_dir / "manifest.json"
        if manifest_path.is_file():
            loaded = json.loads(manifest_path.read_text(encoding="utf-8"))
            if loaded.get("format") != _MANIFEST_FORMAT:
                raise StorageError(
                    f"{self.name}: unsupported manifest format {loaded.get('format')}"
                )
            manifest.update(loaded)
        self._next_gen = int(manifest["next_fileno"])
        # A bare cutoff (older manifests) covers every listed file.
        self._cutoffs = {
            SensorId.from_hex(hexsid): (
                [(int(pairs), self._next_gen)]
                if isinstance(pairs, int)
                else [(int(cutoff), int(below)) for cutoff, below in pairs]
            )
            for hexsid, pairs in manifest["cutoffs"].items()
        }

        listed = [int(fn) for fn in manifest["segments"]]
        for fileno in listed:
            path = segment_path(self.data_dir, fileno)
            try:
                table = _FileTable(path, fileno, self._block_cache, disk=self._disk)
            except (OSError, StorageError) as exc:
                # The data is either in a newer merge output or still in
                # the WAL — never silently half-present in a bad file.
                info["segments_dropped"].append(f"{path.name}: {exc}")
                continue
            self._add_table_locked(table)
            info["segments_loaded"] += 1
        # A segment file the manifest does not list is an orphan from a
        # crash between seal and checkpoint: its rows are still in the WAL.
        for path in self.data_dir.glob("seg-*.seg"):
            try:
                fileno = int(path.stem.split("-", 1)[1])
            except (IndexError, ValueError):
                # A stray file (editor backup, hand-named copy) must not
                # abort recovery — leave it alone and report it.
                info["unrecognized_files"].append(path.name)
                continue
            if fileno not in listed:
                path.unlink(missing_ok=True)
                info["orphans_removed"] += 1

        meta_path = self.data_dir / "metadata.json"
        if meta_path.is_file():
            doc = json.loads(meta_path.read_text(encoding="utf-8"))
            self._metadata.update(doc.get("metadata", {}))

        floor = int(manifest["wal_floor"])
        self._wal_floor = floor
        wal_seqs = []
        for path in self.data_dir.glob("wal-*.log"):
            try:
                seq = int(path.stem.split("-", 1)[1])
            except (IndexError, ValueError):
                info["unrecognized_files"].append(path.name)
                continue
            if seq >= floor:
                wal_seqs.append(seq)
        wal_seqs.sort()
        records: list = []
        for seq in wal_seqs:
            scan = scan_wal_file(wal_path(self.data_dir, seq), seq, disk=self._disk)
            info["wal_files_scanned"] += 1
            records.extend(scan.records)
            if scan.truncated_reason is not None:
                info["wal_truncations"].append(
                    f"wal-{seq:08d}.log: {scan.truncated_reason}"
                )
        # Append always goes to a fresh file: a torn tail in the latest
        # file must never get live records written after it.
        active_seq = max(wal_seqs[-1] + 1 if wal_seqs else 0, floor, 1)
        for seq in wal_seqs:
            path = wal_path(self.data_dir, seq)
            if path.stat().st_size == 0:
                path.unlink(missing_ok=True)
        self._wal = WriteAheadLog(
            self.data_dir,
            active_seq,
            fsync=fsync,
            fsync_interval_s=fsync_interval_s,
            disk=self._disk,
        )

        # Replay straight into the engine (the records are already
        # logged); seals meanwhile leave their tables resident and
        # pending, and the recovery-ending seal writes them all.
        self._replaying = True
        try:
            for record in records:
                if record.rtype == DATA:
                    super().insert_batch(_decode_data(record.payload))
                elif record.rtype == META:
                    super().put_metadata_many([_decode_meta(record.payload)])
                elif record.rtype == CUTOFF:
                    super().delete_before(*_decode_cutoff(record.payload))
                info["wal_records_replayed"] += 1
        finally:
            self._replaying = False
        self._m_wal_replayed.inc(info["wal_records_replayed"])
        if records:
            self.flush()
        self.recovery_info = info

    # -- WAL framing ------------------------------------------------------

    @contextmanager
    def _logged(self, records):
        """Frame ``(rtype, payload)`` records into the WAL, let the engine
        apply the mutation, then apply the commit policy — all under the
        node lock, so log order is apply order."""
        with self._lock:
            nbytes = sum(self._wal.append(rtype, payload) for rtype, payload in records)
            self._m_wal_appends.inc(len(records))
            self._m_wal_bytes.inc(nbytes)
            yield
            self._commit_locked()

    def insert_batch(self, items) -> int:
        batch = as_batch(items)
        if not len(batch):
            return 0
        with self._logged([(DATA, _encode_data(batch))]):
            return super().insert_batch(batch)

    def put_metadata(self, key: str, value: str) -> None:
        self.put_metadata_many([(key, value)])

    def put_metadata_many(self, pairs) -> None:
        """One ``META`` frame per pair, one commit for the batch.  The
        frames are independent keys, so a torn tail that replays only a
        prefix leaves what separate calls cut short would have left."""
        pairs = list(pairs)
        with self._logged([(META, _encode_meta(key, value)) for key, value in pairs]):
            super().put_metadata_many(pairs)

    def delete_before(self, sid: SensorId, cutoff: int) -> int:
        with self._logged([(CUTOFF, _encode_cutoff(sid, cutoff))]):
            return super().delete_before(sid, cutoff)

    def commit_durable(self) -> bool:
        """Group-commit barrier: apply the fsync policy to pending bytes.

        The batching writer calls this once per flushed batch before
        acknowledging, so under ``fsync=always`` one fsync covers the
        whole batch and an acknowledged reading can never be lost.
        """
        with self._lock:
            return self._commit_locked()

    def _commit_locked(self) -> bool:
        try:
            synced = self._wal.commit()
        except OSError as exc:
            raise StorageError(f"{self.name}: WAL fsync failed: {exc}") from exc
        if synced:
            self._m_wal_syncs.inc()
        return synced

    # -- the file run store ------------------------------------------------

    def _files(self) -> list[_FileTable]:
        return [table for table in self._tables if not table.resident]

    def _compression_ratio(self) -> float:
        files = self._files()
        encoded = sum(t.size_bytes for t in files)
        return RAW_BYTES_PER_ROW * sum(t.rows for t in files) / encoded if encoded else 0.0

    def _write_table(self, gen: int, sensors):
        stats = write_segment(segment_path(self.data_dir, gen), sensors, disk=self._disk)
        if stats is None:
            return None
        self._m_seg_written.inc()
        return _FileTable(stats.path, gen, self._block_cache, disk=self._disk)

    def _sealed(self) -> None:
        """Write the pending tables — the resident suffix of the table
        list — as one segment file, swap it in, checkpoint.  On failure
        they stay resident and WAL-covered; the next seal retries."""
        if self._replaying:
            return
        first = len(self._tables)
        while first and self._tables[first - 1].resident:
            first -= 1
        pending = self._tables[first:]
        if not pending:
            return
        gen = pending[0].gen if len(pending) == 1 else self._take_gen()
        try:
            table = self._merge(pending, gen, None, self._cutoffs)
        except (OSError, StorageError):
            self._m_seg_errors.inc()
            return
        self._swap_locked(pending, table)
        self._checkpoint_locked()

    def _checkpoint_locked(self) -> None:
        """Rotate the WAL, persist the manifest, trim sealed WAL files."""
        self._wal_floor = self._wal.rotate()
        self._m_wal_rotations.inc()
        _atomic_json(
            self.data_dir / "metadata.json",
            {"format": _MANIFEST_FORMAT, "metadata": dict(self._metadata)},
        )
        self._tables_changed_locked()
        self._wal.delete_below(self._wal_floor)

    def _tables_changed_locked(self) -> None:
        """Persist the manifest at the current WAL floor.  A merge swap
        calls this *without* rotating the WAL: a merge introduces no
        new unsealed data, so the replay set must not move."""
        _atomic_json(
            self.data_dir / "manifest.json",
            {
                "format": _MANIFEST_FORMAT,
                "wal_floor": self._wal_floor,
                "next_fileno": self._next_gen,
                "segments": [table.gen for table in self._files()],
                "cutoffs": {sid.hex(): pairs for sid, pairs in self._cutoffs.items()},
            },
        )

    # -- background compaction ---------------------------------------------

    def _schedule_merge_locked(self) -> None:
        """Flag the backlog for the worker; never merge on the seal path
        (the insert p99 must not absorb a merge)."""
        if self._replaying or len(self._tables) <= self.max_segment_files:
            return
        thread = self._compact_thread
        if not self._compact_stop and (thread is None or not thread.is_alive()):
            # Started on first demand: a node that never accumulates a
            # backlog never pays for a parked thread.
            thread = threading.Thread(
                target=self._compaction_loop, name=f"dcdb-compact-{self.name}", daemon=True
            )
            self._compact_thread = thread
            thread.start()
        self._compact_wake.set()

    def _compaction_loop(self) -> None:
        while not self._compact_stop:
            self._compact_wake.wait()
            self._compact_wake.clear()
            while not self._compact_stop:
                try:
                    with self._merge_mutex:
                        if not self._merge_once():
                            break
                except (OSError, StorageError):
                    # Victims are untouched; a torn merge output is an
                    # unlisted orphan the next recovery sweeps away.
                    self._m_seg_errors.inc()
                    break

    def wait_for_compaction(self, timeout_s: float = 30.0) -> bool:
        """Block until the merge backlog drains; True when it has.

        Deterministic tests and admin tooling use this to observe the
        post-merge file count; the ingest path never waits.
        """
        deadline = monotonic() + timeout_s
        while True:
            with self._lock:
                self._schedule_merge_locked()
                backlog = len(self._tables) > self.max_segment_files
            if not backlog:
                # A merge in flight may still be discarding its victims;
                # passing through the mutex waits that out.
                with self._merge_mutex:
                    return True
            thread = self._compact_thread
            if thread is None or not thread.is_alive() or monotonic() >= deadline:
                return False
            sleep(0.002)

    # -- lifecycle ---------------------------------------------------------

    @property
    def wal(self) -> WriteAheadLog:
        return self._wal

    @property
    def segment_file_count(self) -> int:
        with self._lock:
            return len(self._files())

    def close(self) -> None:
        """Sync and release files and the directory lock. The memtable
        is NOT sealed: reopening
        replays the WAL, which is exactly the path worth exercising."""
        # Stop the compaction worker before taking the node lock: a
        # merge in flight finishes and the thread exits, so no merge
        # can race the file teardown.
        self._compact_stop = True
        self._compact_wake.set()
        thread = self._compact_thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=30.0)
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._wal.close()
            for table in self._tables:
                table.close()
            # An emptied list also fails any late merge swap.
            self._tables = []
            self._block_cache.clear()
            self._dir_lock.close()
