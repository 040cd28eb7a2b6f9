"""Immutable on-disk columnar segment files.

A segment file is the durable image of one memtable seal (or one
compaction merge): for every sensor it stores three compressed column
blocks — timestamps (delta-of-delta), values (Gorilla XOR), TTL
expiries (delta-of-delta; almost always the constant "never", costing
about one bit per row) — followed by a footer index and a fixed-size
tail, so a reader finds the footer without scanning::

    +--------------------------------------------------+
    | header: magic "DSEG", version u16, reserved u16  |
    | sensor block 0: ts bits | value bits | exp bits  |
    | sensor block 1: ...                              |
    | footer: one entry per sensor                     |
    |   sid_hi u64, sid_lo u64, offset u64, rows u32,  |
    |   ts_len u32, val_len u32, exp_len u32,          |
    |   min_ts i64, max_ts i64, block_crc u32          |
    | tail: footer_off u64, entries u32,               |
    |       footer_crc u32, magic u32                  |
    +--------------------------------------------------+

Files are written whole to a ``.tmp`` sibling, fsynced, then
``os.replace``d into place — a crash never leaves a half-visible
segment, only an orphan ``.tmp`` the next startup sweeps away.  Reads
go through ``mmap`` and decode straight from the mapped pages
(zero-copy until the bit-level decode), validating the per-sensor CRC
first so a corrupt block raises :class:`StorageError` instead of
returning garbage.
"""

from __future__ import annotations

import mmap
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from repro.common.errors import StorageError
from repro.core.sid import SensorId
from repro.storage.node import RAW_BYTES_PER_ROW

from .codec import (
    decode_timestamps,
    decode_values,
    encode_timestamps,
    encode_values,
)

__all__ = ["SegmentFile", "SegmentWriteStats", "segment_path", "write_segment"]

_MAGIC = b"DSEG"
_TAIL_MAGIC = 0x44534547  # "DSEG" as u32
_VERSION = 1
_HEADER = struct.Struct("<4sHH")
_ENTRY = struct.Struct("<QQQIIIIqqI")
_TAIL = struct.Struct("<QIII")

#: Rows handed to one encoder call: enough to amortize the call (a
#: 100 000-row seal of 11-row series is no faster at 64 k), few enough
#: that three nodes sealing at once add ~2 MB each, not ~15, to the
#: process's peak memory.
_CHUNK_ROWS = 1 << 13


def segment_path(directory: Path, fileno: int) -> Path:
    return directory / f"seg-{fileno:08d}.seg"


class SegmentWriteStats:
    """What one :func:`write_segment` call put on disk."""

    __slots__ = ("path", "rows", "raw_bytes", "file_bytes", "sensors")

    def __init__(self, path: Path, rows: int, raw_bytes: int, file_bytes: int, sensors: int):
        self.path = path
        self.rows = rows
        self.raw_bytes = raw_bytes
        self.file_bytes = file_bytes
        self.sensors = sensors


def _append_blocks(body: bytearray, footer: bytearray, chunk: list) -> None:
    """Encode one chunk of series — each codec once, over the chunk's
    concatenated columns — and append their blocks and footer entries."""
    sids, ts_cols, val_cols, exp_cols = zip(*chunk)
    offsets = np.concatenate(([0], np.cumsum([ts.size for ts in ts_cols])))
    ts_blocks = encode_timestamps(np.concatenate(ts_cols), offsets)
    val_blocks = encode_values(np.concatenate(val_cols), offsets)
    exp_blocks = encode_timestamps(np.concatenate(exp_cols), offsets)
    for sid, ts, ts_block, val_block, exp_block in zip(
        sids, ts_cols, ts_blocks, val_blocks, exp_blocks
    ):
        block = ts_block + val_block + exp_block
        footer += _ENTRY.pack(
            sid.value >> 64,
            sid.value & ((1 << 64) - 1),
            len(body),
            ts.size,
            len(ts_block),
            len(val_block),
            len(exp_block),
            int(ts[0]),
            int(ts[-1]),
            zlib.crc32(block),
        )
        body += block


def write_segment(path: Path, sensors, disk=None) -> SegmentWriteStats | None:
    """Write one segment file atomically; None if ``sensors`` is empty.

    ``sensors`` yields ``(sid, timestamps, values, expiries)`` int64
    arrays already holding the segment invariant (sorted, LWW-deduped).
    Whole series are gathered into chunks of at most ``_CHUNK_ROWS``
    rows (a longer series is a chunk of its own), which bounds the
    encoders' bit-plane temporaries; where a chunk ends never shows in
    the bytes written.
    """
    body = bytearray(_HEADER.pack(_MAGIC, _VERSION, 0))
    footer = bytearray()
    rows = 0
    count = 0
    chunk: list = []
    chunk_rows = 0
    for series in sensors:
        size = int(series[1].size)
        if size == 0:
            continue
        if chunk and chunk_rows + size > _CHUNK_ROWS:
            _append_blocks(body, footer, chunk)
            chunk, chunk_rows = [], 0
        chunk.append(series)
        chunk_rows += size
        rows += size
        count += 1
    if chunk:
        _append_blocks(body, footer, chunk)
    if count == 0:
        return None
    footer_off = len(body)
    body += footer
    body += _TAIL.pack(footer_off, count, zlib.crc32(footer), _TAIL_MAGIC)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "wb") as handle:
        if disk is not None:
            disk.write(handle, bytes(body))
        else:
            handle.write(body)
        handle.flush()
        if disk is not None:
            disk.fsync(handle)
        else:
            os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_dir(path.parent)
    return SegmentWriteStats(path, rows, rows * RAW_BYTES_PER_ROW, len(body), count)


def _fsync_dir(directory: Path) -> None:
    """Persist the rename itself (best effort on exotic filesystems)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class _Entry:
    __slots__ = ("offset", "rows", "ts_len", "val_len", "exp_len", "min_ts", "max_ts", "crc")

    def __init__(self, offset, rows, ts_len, val_len, exp_len, min_ts, max_ts, crc):
        self.offset = offset
        self.rows = rows
        self.ts_len = ts_len
        self.val_len = val_len
        self.exp_len = exp_len
        self.min_ts = min_ts
        self.max_ts = max_ts
        self.crc = crc


class SegmentFile:
    """mmap-backed reader over one immutable segment file.

    Construction validates the framing (magic, tail, footer CRC) and
    raises :class:`StorageError` on any mismatch; per-sensor blocks are
    CRC-checked lazily on first read.
    """

    def __init__(self, path: Path, disk=None) -> None:
        self.path = path
        self._file = open(path, "rb")
        try:
            self._mmap = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError) as exc:
            self._file.close()
            raise StorageError(f"unreadable segment {path.name}: {exc}") from None
        buf: memoryview | bytes = memoryview(self._mmap)
        if disk is not None:
            # The fault seam returns a (possibly shortened) copy so
            # short-read scenarios surface as framing errors here.
            buf = disk.read(bytes(buf), str(path))
        try:
            self._buf = buf
            self._entries = self._parse(buf)
        except StorageError:
            self.close()
            raise
        self.rows = sum(entry.rows for entry in self._entries.values())
        self.size_bytes = len(buf)

    def _parse(self, buf) -> dict[SensorId, _Entry]:
        if len(buf) < _HEADER.size + _TAIL.size:
            raise StorageError(f"segment {self.path.name}: file shorter than framing")
        magic, version, _ = _HEADER.unpack_from(buf, 0)
        if bytes(magic) != _MAGIC:
            raise StorageError(f"segment {self.path.name}: bad magic")
        if version != _VERSION:
            raise StorageError(f"segment {self.path.name}: unsupported version {version}")
        footer_off, count, footer_crc, tail_magic = _TAIL.unpack_from(buf, len(buf) - _TAIL.size)
        if tail_magic != _TAIL_MAGIC:
            raise StorageError(f"segment {self.path.name}: bad tail magic")
        footer_end = footer_off + count * _ENTRY.size
        if footer_end != len(buf) - _TAIL.size:
            raise StorageError(f"segment {self.path.name}: footer bounds out of range")
        if zlib.crc32(bytes(buf[footer_off:footer_end])) != footer_crc:
            raise StorageError(f"segment {self.path.name}: footer CRC mismatch")
        entries: dict[SensorId, _Entry] = {}
        for i in range(count):
            hi, lo, offset, rows, ts_len, val_len, exp_len, min_ts, max_ts, crc = (
                _ENTRY.unpack_from(buf, footer_off + i * _ENTRY.size)
            )
            sid = SensorId((hi << 64) | lo)
            entries[sid] = _Entry(offset, rows, ts_len, val_len, exp_len, min_ts, max_ts, crc)
        return entries

    def sids(self) -> list[SensorId]:
        return sorted(self._entries)

    def rows_for(self, sid: SensorId) -> int:
        """One sensor's row count, straight from the footer index."""
        return self._entries[sid].rows

    def bounds_for(self, sid: SensorId) -> tuple[int, int]:
        """One sensor's ``(min_ts, max_ts)`` from the footer index —
        the read path prunes non-overlapping blocks on this alone,
        without touching (or decoding) the block bytes."""
        entry = self._entries[sid]
        return entry.min_ts, entry.max_ts

    def __contains__(self, sid: SensorId) -> bool:
        return sid in self._entries

    def read(self, sid: SensorId) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decode one sensor's ``(timestamps, values, expiries)``."""
        entry = self._entries[sid]
        start = entry.offset
        end = start + entry.ts_len + entry.val_len + entry.exp_len
        block = self._buf[start:end]
        if len(block) != end - start:
            raise StorageError(f"segment {self.path.name}: short read for {sid.hex()}")
        if zlib.crc32(bytes(block)) != entry.crc:
            raise StorageError(f"segment {self.path.name}: block CRC mismatch for {sid.hex()}")
        ts = decode_timestamps(block[: entry.ts_len], entry.rows)
        vals = decode_values(block[entry.ts_len : entry.ts_len + entry.val_len], entry.rows)
        exp = decode_timestamps(block[entry.ts_len + entry.val_len :], entry.rows)
        return ts, vals, exp

    def close(self) -> None:
        buf = getattr(self, "_buf", None)
        if isinstance(buf, memoryview):
            buf.release()
        self._buf = b""
        try:
            self._mmap.close()
        except (BufferError, ValueError):
            pass
        self._file.close()
