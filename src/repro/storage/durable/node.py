"""The durable storage node: WAL + compressed segments + recovery.

:class:`DurableNode` extends the in-memory
:class:`~repro.storage.node.StorageNode` with the persistence shape
the paper gets from Cassandra (section 4.3) and the COMPASS CDB paper
describes explicitly: every accepted mutation is framed into a
write-ahead log *before* it touches the memtable, memtable seals write
immutable compressed segment files (see :mod:`.segment`), and the WAL
only truncates once a seal's checkpoint makes the manifest point past
it — ack-driven trimming, the lsst-dm buffer-manager discipline.

On-disk layout of one node directory::

    manifest.json    ordered segment list (= LWW order), WAL floor,
                     next file number, per-sensor retention cutoffs
    metadata.json    the metadata table image as of the last checkpoint
    wal-XXXXXXXX.log active + not-yet-checkpointed WAL files
    seg-XXXXXXXX.seg immutable columnar segments

Crash recovery (constructor): sweep orphan ``*.tmp`` files, open the
manifest's segments (per-sensor blocks decode on demand, through the
read path's bounded block cache), load the metadata image, then replay
every WAL file at or above the manifest floor into the memtable.
Replay is idempotent under the flush-time last-write-wins invariant,
so a WAL that overlaps sealed segments — the normal state after a
crash between seal and checkpoint — double applies harmlessly.  A torn
tail or corrupt CRC stops that file's scan at the last valid record
and recovery continues; it never refuses to start.  Recovery ends with
a seal + checkpoint, leaving a clean log.

Read path: a query stages footer-pruned disk blocks (decoded through
the byte-budgeted LRU in :mod:`.blockcache`) *ahead of* the in-memory
segments — disk blocks always hold data older than anything sealed
this process lifetime, and tiered compaction merges only runs that are
contiguous in manifest order — both keep the last-write-wins merge of
the base class correct.  Nothing a query touches is permanently
materialized: cold blocks age out of the cache, so scanning a store
larger than RAM holds resident memory at memtable + cache budget.
"""

from __future__ import annotations

import json
import os
import struct
import threading
from pathlib import Path
from time import monotonic, perf_counter, sleep
from typing import Iterator

import numpy as np

from repro.common.errors import StorageError
from repro.core.sid import SensorId
from repro.observability import MetricsRegistry
from repro.storage.backend import InsertItem
from repro.storage.node import StorageNode, _Segment, _SensorData, merge_lww

from .blockcache import BlockCache
from .segment import SegmentFile, segment_path, write_segment
from .wal import CUTOFF, DATA, META, WriteAheadLog, scan_wal_file, wal_path

__all__ = ["DurableNode"]

_MANIFEST_FORMAT = 1
_M64 = (1 << 64) - 1
_EMPTY = np.empty(0, dtype=np.int64)


def _encode_data(items: list[InsertItem]) -> bytes:
    """Frame an insert batch as a DATA payload (columnar, fixed-width).

    Column-at-a-time via ``np.fromiter`` — per-element numpy scalar
    assignment was the single largest CPU cost on the durable insert
    path.  The ``OverflowError`` fallback keeps the old masking
    semantics for out-of-int64 values (never produced by the normal
    ingest path, but cheap to preserve).
    """
    n = len(items)
    sids, ts, vals, ttls = zip(*items)
    cols = np.empty((5, n), dtype=np.uint64)
    # One join of the SIDs' precomputed big-endian images, viewed as
    # (hi, lo) u64 pairs — no per-row 128-bit arithmetic.
    pair = np.frombuffer(b"".join(s.packed for s in sids), dtype=">u8").reshape(n, 2)
    cols[0] = pair[:, 0]
    cols[1] = pair[:, 1]
    try:
        cols[2] = np.fromiter(ts, dtype=np.int64, count=n).view(np.uint64)
        cols[3] = np.fromiter(vals, dtype=np.int64, count=n).view(np.uint64)
        cols[4] = np.fromiter(ttls, dtype=np.int64, count=n).view(np.uint64)
    except OverflowError:
        cols[2] = np.fromiter((t & _M64 for t in ts), dtype=np.uint64, count=n)
        cols[3] = np.fromiter((v & _M64 for v in vals), dtype=np.uint64, count=n)
        cols[4] = np.fromiter((t & _M64 for t in ttls), dtype=np.uint64, count=n)
    return struct.pack("<I", n) + cols.tobytes()


def _decode_data(payload: bytes) -> list[InsertItem]:
    (n,) = struct.unpack_from("<I", payload)
    cols = np.frombuffer(payload, dtype=np.uint64, offset=4).reshape(5, n)
    signed = cols[2:].view(np.int64)
    return [
        (
            SensorId((int(cols[0, i]) << 64) | int(cols[1, i])),
            int(signed[0, i]),
            int(signed[1, i]),
            int(signed[2, i]),
        )
        for i in range(n)
    ]


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


class DurableNode(StorageNode):
    """A :class:`StorageNode` whose state survives ``kill -9``.

    Parameters beyond the base class:

    data_dir:
        Directory owning this node's WAL and segment files (created if
        missing; recovery runs immediately if it holds prior state).
    fsync / fsync_interval_s:
        WAL sync policy — see :class:`~repro.storage.durable.wal.WriteAheadLog`.
    max_segment_files:
        Tiered compaction triggers when the manifest lists more files.
    compact_min_run:
        Smallest contiguous run of files one merge consumes.
    compaction:
        ``"background"`` (default) runs tiered merges on a dedicated
        thread — the insert/seal path only flags the backlog and moves
        on; ``"inline"`` merges synchronously inside the seal, which
        deterministic tests rely on.
    compact_min_interval_s:
        Rate limit for background merges: successive merge builds are
        spaced at least this far apart, so a burst of seals cannot
        monopolize the disk.
    block_cache_bytes:
        Byte budget for the decoded-block LRU on the read path (0
        disables caching; every windowed read decodes its blocks
        fresh).  See :mod:`.blockcache`.
    disk:
        Optional :class:`~repro.faults.disk.DiskFaultInjector` seam.
    """

    def __init__(
        self,
        name: str = "node0",
        data_dir: str | Path = "dcdb-data",
        *,
        fsync: str = "interval",
        fsync_interval_s: float = 0.05,
        max_segment_files: int = 8,
        compact_min_run: int = 4,
        compaction: str = "background",
        compact_min_interval_s: float = 0.0,
        block_cache_bytes: int = 64 * 1024 * 1024,
        disk=None,
        flush_threshold: int = 100_000,
        max_segments_per_sensor: int = 8,
        clock=None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if compaction not in ("background", "inline"):
            raise ValueError(
                f"compaction must be 'background' or 'inline', got {compaction!r}"
            )
        super().__init__(
            name=name,
            flush_threshold=flush_threshold,
            max_segments_per_sensor=max_segments_per_sensor,
            clock=clock,
            metrics=metrics,
        )
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.max_segment_files = max_segment_files
        self.compact_min_run = max(2, compact_min_run)
        self.compaction = compaction
        self.compact_min_interval_s = compact_min_interval_s
        self._disk = disk
        #: Ordered (fileno, SegmentFile) — manifest order == LWW order.
        self._seg_files: list[tuple[int, SegmentFile]] = []
        #: Per-sensor disk blocks served through the block cache, in
        #: LWW (manifest) order.  Permanent: reads never pop these —
        #: decoded blocks live in the bounded cache instead of the
        #: memtable.
        self._disk_refs: dict[SensorId, list[SegmentFile]] = {}
        #: Frozen segments a failed seal left unpersisted (still WAL-covered).
        self._unsealed: dict[SensorId, list[_Segment]] = {}
        self._cutoffs: dict[SensorId, int] = {}
        self._next_fileno = 1
        self._wal_floor = 1
        self._replaying = False
        self._closed = False
        self._raw_bytes = 0
        self._encoded_bytes = 0
        # Background compaction machinery: the seal path flags a
        # backlog and wakes the worker; merges build outside the node
        # lock and swap under it.  _compact_mutex serializes merge
        # builds against full compact() calls.
        self._compact_mutex = threading.Lock()
        self._compact_wake = threading.Event()
        self._compact_stop = False
        self._compact_thread: threading.Thread | None = None
        self._last_merge_at = 0.0

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
        self._m_seg_compactions = self.metrics.counter(
            "dcdb_segment_compactions_total", "Tiered merges of on-disk segment runs", ("node",)
        ).labels(**label)
        self._m_seg_errors = self.metrics.counter(
            "dcdb_segment_write_errors_total",
            "Failed segment writes (data stays WAL-covered)",
            ("node",),
        ).labels(**label)
        # The WAL object only exists once _recover() creates it; with a
        # shared registry a scrape can race a long recovery, so the
        # gauge must tolerate the not-yet-open state.
        self.metrics.gauge(
            "dcdb_wal_size_bytes", "Bytes in the active WAL file", ("node",)
        ).labels(**label).set_function(
            lambda: wal.size_bytes if (wal := getattr(self, "_wal", None)) else 0
        )
        self.metrics.gauge(
            "dcdb_segment_files", "Segment files in the manifest", ("node",)
        ).labels(**label).set_function(lambda: len(self._seg_files))
        self.metrics.gauge(
            "dcdb_segment_disk_bytes", "Total size of segment files", ("node",)
        ).labels(**label).set_function(
            lambda: sum(sf.size_bytes for _, sf in self._seg_files)
        )
        self.metrics.gauge(
            "dcdb_segment_compression_ratio",
            "Cumulative raw-to-encoded byte ratio of segment writes",
            ("node",),
        ).labels(**label).set_function(
            lambda: (self._raw_bytes / self._encoded_bytes) if self._encoded_bytes else 0.0
        )
        self._m_blocks_pruned = self.metrics.counter(
            "dcdb_segment_blocks_pruned_total",
            "On-disk blocks skipped via footer time-bounds on windowed reads",
            ("node",),
        ).labels(**label)
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
        self._m_compaction_runs = self.metrics.counter(
            "dcdb_compaction_runs_total",
            "Tiered segment-file merges completed (background or inline)",
            ("node",),
        ).labels(**label)
        self._m_compaction_seconds = self.metrics.histogram(
            "dcdb_compaction_seconds",
            "Wall time of one tiered merge (build + swap)",
            ("node",),
        ).labels(**label)
        self.metrics.gauge(
            "dcdb_compaction_backlog",
            "Segment files above the compaction trigger threshold",
            ("node",),
        ).labels(**label).set_function(
            lambda: max(0, len(self._seg_files) - self.max_segment_files)
        )

        self.recovery_info: dict = {}
        self._recover(fsync, fsync_interval_s)
        if (
            self.compaction == "background"
            and len(self._seg_files) > self.max_segment_files
        ):
            with self._lock:
                self._ensure_compactor_locked()
                self._compact_wake.set()

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
        self._next_fileno = int(manifest["next_fileno"])
        self._cutoffs = {
            SensorId.from_hex(hexsid): int(cutoff)
            for hexsid, cutoff in manifest["cutoffs"].items()
        }

        listed = [int(fn) for fn in manifest["segments"]]
        for fileno in listed:
            path = segment_path(self.data_dir, fileno)
            try:
                seg_file = SegmentFile(path, disk=self._disk)
            except (OSError, StorageError) as exc:
                # The data is either in a newer merge output or still in
                # the WAL — never silently half-present in a bad file.
                info["segments_dropped"].append(f"{path.name}: {exc}")
                continue
            self._seg_files.append((fileno, seg_file))
            info["segments_loaded"] += 1
            for sid in seg_file.sids():
                self._disk_refs.setdefault(sid, []).append(seg_file)
                if sid not in self._data:
                    self._data[sid] = _SensorData()
                    self._sids_cache = None
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

        self._replaying = True
        try:
            for record in records:
                if record.rtype == DATA:
                    self.insert_batch(_decode_data(record.payload))
                elif record.rtype == META:
                    key, value = _decode_meta(record.payload)
                    self.put_metadata(key, value)
                elif record.rtype == CUTOFF:
                    sid, cutoff = _decode_cutoff(record.payload)
                    self.delete_before(sid, cutoff)
                info["wal_records_replayed"] += 1
        finally:
            self._replaying = False
        self._m_wal_replayed.inc(info["wal_records_replayed"])

        if records:
            # Seal + checkpoint: every replayed row — including any a
            # mid-replay memtable flush froze into self._unsealed —
            # lands in a segment, the manifest floor moves past the
            # scanned files and they are deleted; recovery converges
            # to a clean log.
            with self._lock:
                self._flush_locked()
                if self._unsealed:
                    # The memtable emptied exactly on a mid-replay
                    # seal, so _flush_locked froze nothing and never
                    # reached _sealed: persist explicitly.  On failure
                    # the WAL stays un-truncated, so nothing is lost.
                    try:
                        self._persist_unsealed_locked()
                    except (OSError, StorageError):
                        self._m_seg_errors.inc()
        self.recovery_info = info

    # -- write path -------------------------------------------------------

    def insert(self, sid: SensorId, timestamp: int, value: int, ttl_s: int = 0) -> None:
        self.insert_batch([(sid, timestamp, value, ttl_s)])

    def insert_batch(self, items) -> int:
        if not isinstance(items, list):
            items = list(items)
        if not items:
            return 0
        with self._lock:
            if not self._replaying:
                nbytes = self._wal.append(DATA, _encode_data(items))
                self._m_wal_appends.inc()
                self._m_wal_bytes.inc(nbytes)
            count = super().insert_batch(items)
            if not self._replaying:
                self._commit_locked()
        return count

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

    def put_metadata_many(self, pairs) -> None:
        """One ``META`` frame per pair, one commit for the batch.  The
        frames are independent keys, so a torn tail that replays only a
        prefix leaves what separate calls cut short would have left."""
        pairs = list(pairs)
        with self._lock:
            if not self._replaying:
                nbytes = sum(
                    self._wal.append(META, _encode_meta(key, value)) for key, value in pairs
                )
                self._m_wal_appends.inc(len(pairs))
                self._m_wal_bytes.inc(nbytes)
            super().put_metadata_many(pairs)
            if not self._replaying:
                self._commit_locked()

    def delete_before(self, sid: SensorId, cutoff: int) -> int:
        with self._lock:
            removed_disk = 0
            if not self._replaying:
                nbytes = self._wal.append(CUTOFF, _encode_cutoff(sid, cutoff))
                self._m_wal_appends.inc()
                self._m_wal_bytes.inc(nbytes)
                # Count the disk rows the raised cutoff hides without
                # materializing anything into the memtable: blocks
                # decode through the bounded cache (under the *old*
                # cutoff) and a binary search does the counting.
                for seg_file in self._disk_refs.get(sid, ()):
                    min_ts, _ = seg_file.bounds_for(sid)
                    if cutoff <= min_ts:
                        continue
                    block = self._disk_block_locked(sid, seg_file)
                    removed_disk += int(
                        np.searchsorted(block.timestamps, cutoff, side="left")
                    )
            removed = super().delete_before(sid, cutoff)
            if cutoff > self._cutoffs.get(sid, -(1 << 63)):
                self._cutoffs[sid] = cutoff
                # Cached blocks were filtered under the old cutoff.
                self._block_cache.invalidate_sid(sid)
            if not self._replaying:
                self._commit_locked()
        return removed + removed_disk

    # -- seal / checkpoint -------------------------------------------------

    def _sealed(self, frozen: dict[SensorId, _Segment]) -> None:
        for sid, segment in frozen.items():
            self._unsealed.setdefault(sid, []).append(segment)
        if self._replaying:
            # A mid-replay seal only accumulates: its rows' sole durable
            # copy is the WAL being replayed, which the recovery-ending
            # checkpoint truncates — so the recovery-ending persist must
            # merge every frozen segment into the disk image first.
            return
        try:
            self._persist_unsealed_locked()
        except (OSError, StorageError):
            # The rows stay in memory AND in the un-rotated WAL, so
            # nothing acknowledged is lost; the next seal retries.
            self._m_seg_errors.inc()

    def _persist_unsealed_locked(self) -> None:
        def sensors() -> Iterator[tuple[SensorId, np.ndarray, np.ndarray, np.ndarray]]:
            for sid in sorted(self._unsealed):
                yield sid, *merge_lww(
                    [(s.timestamps, s.values, s.expiries) for s in self._unsealed[sid]],
                    ascending=True,
                )

        fileno = self._next_fileno
        stats = write_segment(
            segment_path(self.data_dir, fileno), sensors(), disk=self._disk
        )
        if stats is None:
            self._unsealed.clear()
            return
        self._next_fileno = fileno + 1
        self._seg_files.append((fileno, SegmentFile(stats.path, disk=self._disk)))
        self._unsealed.clear()
        self._raw_bytes += stats.raw_bytes
        self._encoded_bytes += stats.file_bytes
        self._m_seg_written.inc()
        self._checkpoint_locked()
        self._schedule_compaction_locked()

    def _checkpoint_locked(self) -> None:
        """Rotate the WAL, persist the manifest, trim sealed WAL files."""
        self._wal_floor = self._wal.rotate()
        self._m_wal_rotations.inc()
        _atomic_json(
            self.data_dir / "metadata.json",
            {"format": _MANIFEST_FORMAT, "metadata": dict(self._metadata)},
        )
        self._write_manifest_locked()
        self._wal.delete_below(self._wal_floor)

    def _write_manifest_locked(self) -> None:
        """Persist the manifest at the current WAL floor.

        A background merge swap calls this *without* rotating the WAL:
        a merge introduces no new unsealed data, so the floor — and the
        replay set — must not move.
        """
        _atomic_json(
            self.data_dir / "manifest.json",
            {
                "format": _MANIFEST_FORMAT,
                "wal_floor": self._wal_floor,
                "next_fileno": self._next_fileno,
                "segments": [fileno for fileno, _ in self._seg_files],
                "cutoffs": {sid.hex(): c for sid, c in self._cutoffs.items()},
            },
        )

    # -- tiered compaction -------------------------------------------------

    def _ensure_compactor_locked(self) -> None:
        """Start the background worker on first demand — a node that
        never accumulates a backlog never pays for a parked thread."""
        thread = self._compact_thread
        if self._compact_stop or (thread is not None and thread.is_alive()):
            return
        thread = threading.Thread(
            target=self._compaction_loop,
            name=f"dcdb-compact-{self.name}",
            daemon=True,
        )
        self._compact_thread = thread
        thread.start()

    def _schedule_compaction_locked(self) -> None:
        """Seal-path hook: flag the backlog; never merge on this path
        in background mode (the insert p99 must not absorb a merge)."""
        if len(self._seg_files) <= self.max_segment_files:
            return
        if self.compaction == "inline":
            while len(self._seg_files) > self.max_segment_files:
                plan = self._plan_merge_locked()
                if plan is None:
                    return
                t0 = perf_counter()
                victims, fileno, now, cutoffs = plan
                stats = self._build_merge(victims, fileno, now, cutoffs)
                self._swap_merged_locked(victims, fileno, stats)
                self._m_compaction_seconds.observe(perf_counter() - t0)
                for fileno_old, sf in victims:
                    sf.close()
                    segment_path(self.data_dir, fileno_old).unlink(missing_ok=True)
        else:
            self._ensure_compactor_locked()
            self._compact_wake.set()

    def _plan_merge_locked(self):
        """Pick the cheapest contiguous run and reserve its output
        fileno — the only merge work that needs the node lock."""
        if len(self._seg_files) <= self.max_segment_files:
            return None
        run = min(self.compact_min_run, len(self._seg_files))
        # Manifest order == LWW order, so only contiguous runs may merge.
        best_at = min(
            range(len(self._seg_files) - run + 1),
            key=lambda i: sum(
                sf.size_bytes for _, sf in self._seg_files[i : i + run]
            ),
        )
        victims = list(self._seg_files[best_at : best_at + run])
        fileno = self._next_fileno
        self._next_fileno = fileno + 1
        return victims, fileno, self._clock(), dict(self._cutoffs)

    def _build_merge(self, victims, fileno, now, cutoffs):
        """Write the merged segment file.  Runs WITHOUT the node lock
        in background mode: victims are immutable and mmap reads are
        thread-safe, so queries and inserts proceed concurrently."""
        run_sids = sorted({sid for _, sf in victims for sid in sf.sids()})

        def sensors() -> Iterator[tuple[SensorId, np.ndarray, np.ndarray, np.ndarray]]:
            for sid in run_sids:
                parts = [sf.read(sid) for _, sf in victims if sid in sf]
                ts, vals, exp = merge_lww(parts, ascending=True)
                cutoff = cutoffs.get(sid)
                live = exp > now
                if cutoff is not None:
                    live &= ts >= cutoff
                if not live.all():
                    ts, vals, exp = ts[live], vals[live], exp[live]
                yield sid, ts, vals, exp

        return write_segment(
            segment_path(self.data_dir, fileno), sensors(), disk=self._disk
        )

    def _swap_merged_locked(self, victims, fileno, stats) -> None:
        """Short critical section: splice the merged file into the
        manifest order, rebuild affected disk refs, drop stale cache
        entries, persist the manifest (WAL floor unchanged)."""
        new_sf = SegmentFile(stats.path, disk=self._disk) if stats is not None else None
        victim_ids = {id(sf) for _, sf in victims}
        positions = [
            i for i, (_, sf) in enumerate(self._seg_files) if id(sf) in victim_ids
        ]
        at = positions[0]
        merged = [(fileno, new_sf)] if new_sf is not None else []
        self._seg_files[at : at + len(victims)] = merged
        affected = {sid for _, sf in victims for sid in sf.sids()}
        for sid in affected:
            refs = self._disk_refs.get(sid)
            if not refs:
                continue
            # The merged file serves a sensor's reads iff any of its
            # victims did; it takes the first victim's LWW position.
            placed = new_sf is None or sid not in new_sf
            out: list[SegmentFile] = []
            for sf in refs:
                if id(sf) in victim_ids:
                    if not placed:
                        out.append(new_sf)
                        placed = True
                else:
                    out.append(sf)
            if out:
                self._disk_refs[sid] = out
            else:
                self._disk_refs.pop(sid, None)
        for _, sf in victims:
            self._block_cache.invalidate_file(sf.path.name)
        if stats is not None:
            self._raw_bytes += stats.raw_bytes
            self._encoded_bytes += stats.file_bytes
            self._m_seg_written.inc()
        self._m_seg_compactions.inc()
        self._m_compaction_runs.inc()
        self._write_manifest_locked()

    def _compact_once(self) -> bool:
        """One background merge: plan under the lock, build outside it,
        swap under it, unlink victims outside it."""
        with self._compact_mutex:
            t0 = perf_counter()
            with self._lock:
                if self._closed:
                    return False
                plan = self._plan_merge_locked()
            if plan is None:
                return False
            victims, fileno, now, cutoffs = plan
            stats = self._build_merge(victims, fileno, now, cutoffs)
            with self._lock:
                if self._closed:
                    if stats is not None:
                        segment_path(self.data_dir, fileno).unlink(missing_ok=True)
                    return False
                self._swap_merged_locked(victims, fileno, stats)
            self._m_compaction_seconds.observe(perf_counter() - t0)
            # Unlink outside the node lock but still inside the merge
            # mutex: "mutex free + backlog clear" then means fully
            # done, victims gone — what wait_for_compaction promises.
            for fileno_old, sf in victims:
                sf.close()
                segment_path(self.data_dir, fileno_old).unlink(missing_ok=True)
        return True

    def _compaction_loop(self) -> None:
        while True:
            self._compact_wake.wait()
            self._compact_wake.clear()
            if self._compact_stop:
                return
            while not self._compact_stop:
                wait_s = self.compact_min_interval_s - (monotonic() - self._last_merge_at)
                if wait_s > 0:
                    sleep(min(wait_s, 0.05))
                    continue
                try:
                    if not self._compact_once():
                        break
                except (OSError, StorageError):
                    # Victims are untouched; a torn merge output is an
                    # unlisted orphan the next recovery sweeps away.
                    self._m_seg_errors.inc()
                    break
                self._last_merge_at = monotonic()

    def wait_for_compaction(self, timeout_s: float = 30.0) -> bool:
        """Block until the tiered backlog drains; True when it has.

        Deterministic tests and admin tooling use this to observe the
        post-merge file count; the ingest path never waits.
        """
        deadline = monotonic() + timeout_s
        while True:
            with self._lock:
                backlog = len(self._seg_files) > self.max_segment_files
                if backlog and self.compaction == "background":
                    self._ensure_compactor_locked()
            if not backlog:
                # An in-flight merge may still be closing/unlinking its
                # victims; passing through the mutex waits that out.
                with self._compact_mutex:
                    return True
            thread = self._compact_thread
            if (
                self.compaction != "background"
                or thread is None
                or not thread.is_alive()
            ):
                return False
            if monotonic() >= deadline:
                return False
            self._compact_wake.set()
            sleep(0.002)

    def compact(self) -> None:
        """Full merge: every disk file and in-memory segment collapses
        into (at most) one segment file, TTL/retention applied; reads
        then serve it through the block cache — the whole store is
        never materialized in memory at once."""
        with self._compact_mutex:
            with self._lock:
                self._flush_locked()
                if self._unsealed:
                    # The seal failed (disk fault): those rows exist
                    # only in memory + WAL, so a disk-image rewrite
                    # here could lose them.  Leave the store as-is;
                    # the next successful seal retries.
                    return
                victims = list(self._seg_files)
                if not victims:
                    super().compact()
                    return
                now = self._clock()
                fileno = self._next_fileno
                self._next_fileno = fileno + 1
                stats = self._build_merge(victims, fileno, now, dict(self._cutoffs))
                self._seg_files = []
                self._disk_refs = {}
                if stats is not None:
                    new_sf = SegmentFile(stats.path, disk=self._disk)
                    self._seg_files = [(fileno, new_sf)]
                    self._disk_refs = {sid: [new_sf] for sid in new_sf.sids()}
                    self._raw_bytes += stats.raw_bytes
                    self._encoded_bytes += stats.file_bytes
                    self._m_seg_written.inc()
                # Everything sealed this lifetime now lives in the
                # merged file: drop the duplicate in-memory segments so
                # a long-running node's resident set shrinks to the
                # memtable plus the cache budget.
                for data in self._data.values():
                    data.segments = []
                self._block_cache.clear()
                self._compactions.inc()
                self._checkpoint_locked()
                for fileno_old, sf in victims:
                    sf.close()
                    segment_path(self.data_dir, fileno_old).unlink(missing_ok=True)

    # -- read path ---------------------------------------------------------

    def _disk_block_locked(self, sid: SensorId, seg_file: SegmentFile) -> _Segment:
        """One sensor's block of one segment file, decoded through the
        bounded LRU cache with the current retention cutoff applied.
        Cached arrays are read-only; queries hand out views of them."""
        key = seg_file.path.name
        block = self._block_cache.get(key, sid)
        if block is not None:
            return block
        ts, vals, exp = seg_file.read(sid)
        cutoff = self._cutoffs.get(sid)
        if cutoff is not None:
            keep = ts >= cutoff
            if not keep.all():
                ts, vals, exp = ts[keep], vals[keep], exp[keep]
        for arr in (ts, vals, exp):
            arr.setflags(write=False)
        block = _Segment(ts, vals, exp)
        self._block_cache.put(key, sid, block)
        return block

    def _stage_locked(self, sid: SensorId, data: _SensorData, start: int, end: int):
        """Stage footer-pruned disk blocks ahead of the in-memory
        sources.  Only blocks whose ``[min_ts, max_ts]`` overlaps the
        window are decoded (through the cache); the rest count toward
        ``dcdb_segment_blocks_pruned_total`` without being touched."""
        segments, mem, pruned = super()._stage_locked(sid, data, start, end)
        refs = self._disk_refs.get(sid)
        if refs:
            disk_segments: list[_Segment] = []
            blocks_pruned = 0
            for seg_file in refs:
                min_ts, max_ts = seg_file.bounds_for(sid)
                if max_ts < start or min_ts > end:
                    blocks_pruned += 1
                    continue
                block = self._disk_block_locked(sid, seg_file)
                if block.size:
                    disk_segments.append(block)
            if blocks_pruned:
                self._m_blocks_pruned.inc(blocks_pruned)
            if disk_segments:
                # Disk blocks predate everything sealed this process
                # lifetime: stage them first so the LWW merge keeps
                # newer writes winning.
                segments = disk_segments + segments
        return segments, mem, pruned

    @property
    def row_count(self) -> int:
        """Total stored rows, pre-TTL/pre-retention.

        Disk blocks are counted from the segment footer index instead
        of being decoded: the base class exports these counts as
        gauges, and a /metrics scrape must not decode the whole store.
        Rows present both on disk and in a this-lifetime memtable seal
        (possible right after recovery or a tiered merge) may be
        counted twice — this is an operational gauge, not an exact
        cardinality.  (``getattr``: the base gauge can be scraped via a
        shared registry before ``_disk_refs`` exists.)
        """
        with self._lock:
            refs_map = getattr(self, "_disk_refs", None) or {}
            disk_rows = sum(
                seg_file.rows_for(sid)
                for sid, refs in refs_map.items()
                for seg_file in refs
            )
            return super().row_count + disk_rows

    @property
    def segment_count(self) -> int:
        with self._lock:
            refs_map = getattr(self, "_disk_refs", None) or {}
            return super().segment_count + sum(len(refs) for refs in refs_map.values())

    # -- fingerprint / lifecycle -------------------------------------------

    def state_fingerprint(self) -> str:
        """Deterministic digest of all queryable state.

        Two nodes answering every query identically produce the same
        fingerprint — the chaos battery's bit-identical recovery check.
        """
        import hashlib

        digest = hashlib.sha256()
        for sid in self.sids():
            ts, vals = self.query(sid, 0, (1 << 63) - 1)
            digest.update(sid.hex().encode())
            digest.update(ts.tobytes())
            digest.update(vals.tobytes())
        for key in self.metadata_keys():
            digest.update(key.encode("utf-8"))
            digest.update((self.get_metadata(key) or "").encode("utf-8"))
        return digest.hexdigest()

    @property
    def wal(self) -> WriteAheadLog:
        return self._wal

    @property
    def segment_file_count(self) -> int:
        with self._lock:
            return len(self._seg_files)

    def close(self) -> None:
        """Sync and release files. The memtable is NOT sealed: reopening
        replays the WAL, which is exactly the path worth exercising."""
        # Stop the compaction worker before taking the node lock: a
        # merge in flight finishes (or aborts at its closed-check) and
        # the thread parks, so no merge can race the file teardown.
        self._compact_stop = True
        self._compact_wake.set()
        thread = self._compact_thread
        if (
            thread is not None
            and thread.is_alive()
            and thread is not threading.current_thread()
        ):
            thread.join(timeout=30.0)
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._wal.close()
            for _, sf in self._seg_files:
                sf.close()
            self._block_cache.clear()
