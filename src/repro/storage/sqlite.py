"""SQLite-backed storage backend.

Demonstrates the paper's claim that the storage abstraction "allows
for easily swapping [Cassandra] against a different database solution
without any changes in the upstream components" (section 5.1): this
backend passes the same test suite and plugs into the same Collect
Agent unchanged.

Schema: a ``readings`` table keyed by (sid, ts) with last-write-wins
upsert semantics, and a ``metadata`` key/value table.  SIDs are stored
as 32-hex-digit strings because SQLite integers are 64-bit.
"""

from __future__ import annotations

import sqlite3
import threading

import numpy as np

from repro.core.sid import SensorId
from repro.storage.backend import StorageBackend, as_batch

_EMPTY = np.empty(0, dtype=np.int64)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS readings (
    sid TEXT NOT NULL,
    ts INTEGER NOT NULL,
    value INTEGER NOT NULL,
    expiry INTEGER NOT NULL,
    PRIMARY KEY (sid, ts)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS metadata (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
) WITHOUT ROWID;
"""

_NEVER = (1 << 63) - 1


class SqliteBackend(StorageBackend):
    """File- or memory-backed storage on ``sqlite3``.

    ``path`` of ``":memory:"`` keeps everything in RAM.  A single
    serialized connection guarded by a lock keeps this correct under
    the Collect Agent's multi-threaded writes; throughput-critical
    deployments use the wide-column cluster instead.
    """

    def __init__(self, path: str = ":memory:", clock=None) -> None:
        from repro.common.timeutil import now_ns

        self._clock = clock if clock is not None else now_ns
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._conn.executescript(_SCHEMA)
        self._lock = threading.Lock()

    def insert_batch(self, items) -> int:
        rows = []
        for sid, timestamp, value, ttl_s in as_batch(items):
            expiry = _NEVER if ttl_s <= 0 else timestamp + ttl_s * 1_000_000_000
            rows.append((sid.hex(), timestamp, value, expiry))
        with self._lock:
            self._conn.executemany(
                "INSERT INTO readings (sid, ts, value, expiry) VALUES (?, ?, ?, ?) "
                "ON CONFLICT(sid, ts) DO UPDATE SET value=excluded.value, "
                "expiry=excluded.expiry",
                rows,
            )
        return len(rows)

    def query_many(
        self, sids, start: int, end: int
    ) -> dict[SensorId, tuple[np.ndarray, np.ndarray]]:
        """Batched read: one ``IN``-list statement per chunk of SIDs.

        Chunked at 500 SIDs per statement to stay well under SQLite's
        bound-variable limit.
        """
        if not isinstance(sids, (list, tuple)):
            sids = list(sids)
        now = self._clock()
        out: dict[SensorId, tuple[np.ndarray, np.ndarray]] = {
            sid: (_EMPTY, _EMPTY) for sid in sids
        }
        by_hex = {sid.hex(): sid for sid in sids}
        hexes = list(by_hex)
        for chunk_start in range(0, len(hexes), 500):
            chunk = hexes[chunk_start : chunk_start + 500]
            placeholders = ",".join("?" * len(chunk))
            with self._lock:
                cursor = self._conn.execute(
                    f"SELECT sid, ts, value FROM readings "
                    f"WHERE sid IN ({placeholders}) "
                    "AND ts BETWEEN ? AND ? AND expiry > ? ORDER BY sid, ts",
                    (*chunk, start, end, now),
                )
                rows = cursor.fetchall()
            if not rows:
                continue
            # Rows arrive grouped by sid (ORDER BY sid, ts): split the
            # result into per-sensor runs without a Python-level sort.
            run_start = 0
            for i in range(1, len(rows) + 1):
                if i == len(rows) or rows[i][0] != rows[run_start][0]:
                    arr = np.asarray(
                        [r[1:] for r in rows[run_start:i]], dtype=np.int64
                    )
                    out[by_hex[rows[run_start][0]]] = (arr[:, 0], arr[:, 1])
                    run_start = i
        return out

    def sids(self) -> list[SensorId]:
        with self._lock:
            cursor = self._conn.execute("SELECT DISTINCT sid FROM readings ORDER BY sid")
            return [SensorId.from_hex(row[0]) for row in cursor.fetchall()]

    def delete_before(self, sid: SensorId, cutoff: int) -> int:
        with self._lock:
            cursor = self._conn.execute(
                "DELETE FROM readings WHERE sid = ? AND ts < ?", (sid.hex(), cutoff)
            )
            return cursor.rowcount

    def put_metadata(self, key: str, value: str) -> None:
        with self._lock:
            if value == "":
                self._conn.execute("DELETE FROM metadata WHERE key = ?", (key,))
            else:
                self._conn.execute(
                    "INSERT INTO metadata (key, value) VALUES (?, ?) "
                    "ON CONFLICT(key) DO UPDATE SET value=excluded.value",
                    (key, value),
                )

    def get_metadata(self, key: str) -> str | None:
        with self._lock:
            row = self._conn.execute(
                "SELECT value FROM metadata WHERE key = ?", (key,)
            ).fetchone()
            return row[0] if row else None

    def metadata_keys(self, prefix: str = "") -> list[str]:
        with self._lock:
            cursor = self._conn.execute(
                "SELECT key FROM metadata WHERE key GLOB ? ORDER BY key",
                (prefix + "*",),
            )
            return [row[0] for row in cursor.fetchall()]

    def compact(self) -> None:
        """Purge expired rows and vacuum."""
        with self._lock:
            self._conn.execute("DELETE FROM readings WHERE expiry <= ?", (self._clock(),))
            self._conn.commit()

    def flush(self) -> None:
        with self._lock:
            self._conn.commit()

    def close(self) -> None:
        with self._lock:
            self._conn.commit()
            self._conn.close()
