"""Minimal in-memory storage backend.

The simplest :class:`~repro.storage.backend.StorageBackend`: plain
per-sensor Python lists, sorted on read.  It exists to prove the
backend abstraction (paper section 5.1) with the smallest possible
implementation, and as the fast default for unit tests that do not
exercise storage internals.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core.sid import SensorId
from repro.storage.backend import StorageBackend, as_batch

_EMPTY = np.empty(0, dtype=np.int64)


class MemoryBackend(StorageBackend):
    """Dictionary-of-lists storage with TTL support."""

    def __init__(self, clock=None) -> None:
        from repro.common.timeutil import now_ns

        self._clock = clock if clock is not None else now_ns
        self._data: dict[SensorId, list[tuple[int, int, int]]] = {}
        self._metadata: dict[str, str] = {}
        self._lock = threading.Lock()

    def insert_batch(self, items) -> int:
        batch = as_batch(items)
        with self._lock:
            for sid, timestamp, value, ttl_s in batch:
                expiry = (1 << 63) - 1 if ttl_s <= 0 else timestamp + ttl_s * 1_000_000_000
                self._data.setdefault(sid, []).append((timestamp, value, expiry))
        return len(batch)

    def query(self, sid: SensorId, start: int, end: int) -> tuple[np.ndarray, np.ndarray]:
        now = self._clock()
        with self._lock:
            rows = self._data.get(sid)
            if not rows:
                return _EMPTY, _EMPTY
            # Last write wins on duplicate timestamps: iterate in
            # insertion order so a later insert overwrites an earlier
            # one in the dict (sorting (t, v) tuples here would order
            # equal timestamps by value instead and corrupt LWW).
            deduped: dict[int, int] = {
                t: v for t, v, e in rows if start <= t <= end and e > now
            }
        if not deduped:
            return _EMPTY, _EMPTY
        ts = np.fromiter(deduped.keys(), dtype=np.int64, count=len(deduped))
        vals = np.fromiter(deduped.values(), dtype=np.int64, count=len(deduped))
        order = np.argsort(ts)
        return ts[order], vals[order]

    def query_many(
        self, sids, start: int, end: int
    ) -> dict[SensorId, tuple[np.ndarray, np.ndarray]]:
        """Batched read: one lock acquisition for the whole SID list."""
        now = self._clock()
        if not isinstance(sids, (list, tuple)):
            sids = list(sids)
        deduped_per_sid: list[dict[int, int]] = []
        with self._lock:
            for sid in sids:
                rows = self._data.get(sid)
                deduped_per_sid.append(
                    {t: v for t, v, e in rows if start <= t <= end and e > now}
                    if rows
                    else {}
                )
        out: dict[SensorId, tuple[np.ndarray, np.ndarray]] = {}
        for sid, deduped in zip(sids, deduped_per_sid):
            if not deduped:
                out[sid] = (_EMPTY, _EMPTY)
                continue
            ts = np.fromiter(deduped.keys(), dtype=np.int64, count=len(deduped))
            vals = np.fromiter(deduped.values(), dtype=np.int64, count=len(deduped))
            order = np.argsort(ts)
            out[sid] = (ts[order], vals[order])
        return out

    def sids(self) -> list[SensorId]:
        with self._lock:
            return sorted(self._data)

    def delete_before(self, sid: SensorId, cutoff: int) -> int:
        with self._lock:
            rows = self._data.get(sid)
            if not rows:
                return 0
            kept = [(t, v, e) for t, v, e in rows if t >= cutoff]
            removed = len(rows) - len(kept)
            self._data[sid] = kept
            return removed

    def put_metadata(self, key: str, value: str) -> None:
        with self._lock:
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
