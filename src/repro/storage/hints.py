"""Hinted handoff: what each unreachable replica missed, in order.

One FIFO per node holds every write the node owes: ``("data",
ReadingBatch)``, ``("meta", key, value)`` and ``("cutoff", sid,
cutoff)`` — a ``delete_before``, either retention or a rebalance
shedding a moved partition's stale copy.  Replay is idempotent: nodes
dedup on timestamp (last write wins).  A node's queue is bounded by
``capacity`` readings; beyond it the oldest *data* hints are evicted,
so a long outage loses history but never a key or a delete.  The
coordinator replays a node's queue before any direct write reaches it,
so what a node owes always lands before what it is sent later.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable

from repro.common.errors import StorageError
from repro.core.sid import SensorId
from repro.observability import MetricsRegistry
from repro.storage.backend import ReadingBatch, StorageBackend


def _size(entry: tuple) -> int:
    return len(entry[1]) if entry[0] == "data" else 0


class HintQueue:
    """Per-node hint FIFOs and their accounting.  Only non-empty
    queues are kept, so truthiness is the lock-free are-there-hints
    test on the coordinator's hot paths."""

    def __init__(self, metrics: MetricsRegistry, capacity: int) -> None:
        self.capacity = capacity
        self._queues: dict[int, deque] = {}
        self._readings: dict[int, int] = {}
        self._lock = threading.Lock()
        # Held across a whole replay, so an entry one thread is still
        # applying cannot land after another's replay has returned.
        self._replaying = threading.Lock()
        self.pending = 0
        self.high_watermark = 0
        self._queued = metrics.counter(
            "dcdb_storage_hints_queued_total",
            "Readings queued as hinted handoffs for unreachable replicas",
        )
        self._replayed = metrics.counter(
            "dcdb_storage_hints_replayed_total",
            "Hinted readings replayed to recovered replicas",
        )
        self._dropped = metrics.counter(
            "dcdb_storage_hints_dropped_total",
            "Hinted readings evicted by the per-node hint capacity",
        )
        metrics.gauge(
            "dcdb_storage_hints_pending", "Hinted readings awaiting replay"
        ).set_function(lambda: self.pending)
        metrics.gauge(
            "dcdb_storage_hints_high_watermark",
            "Most hinted readings ever pending at once on this coordinator",
        ).set_function(lambda: self.high_watermark)

    def __bool__(self) -> bool:
        return bool(self._queues)

    def __contains__(self, node_idx: int) -> bool:
        """Whether ``node_idx`` owes hints (lock-free, like truthiness)."""
        return node_idx in self._queues

    def nodes(self) -> list[int]:
        """Indices of the nodes that have hints queued."""
        return list(self._queues)

    def entries(self, node_idx: int) -> list[tuple]:
        """A snapshot of one node's queue, oldest first."""
        with self._lock:
            return list(self._queues.get(node_idx, ()))

    def push(self, node_idx: int, entry: tuple) -> None:
        """Queue one hint for ``node_idx`` behind everything it owes."""
        readings = _size(entry)
        with self._lock:
            dq = self._queues.setdefault(node_idx, deque())
            dq.append(entry)
            self.pending += readings
            self.high_watermark = max(self.high_watermark, self.pending)
            self._queued.inc(readings)
            # Over the per-node bound, evict the oldest data hints but
            # never the one just queued: bounded memory beats unbounded
            # growth, and the gap shows in dcdb_storage_hints_dropped_total.
            pending_here = self._readings.get(node_idx, 0) + readings
            at = 0
            while pending_here > self.capacity and at < len(dq) - 1:
                size = _size(dq[at])
                if not size:
                    at += 1
                    continue
                del dq[at]
                pending_here -= size
                self.pending -= size
                self._dropped.inc(size)
            self._readings[node_idx] = pending_here

    def replay(self, node_idx: int, node: StorageBackend) -> tuple[int, int]:
        """Apply ``node_idx``'s hints to ``node`` oldest first, stopping
        at the first failure; returns ``(entries, readings)`` landed."""
        entries = readings = 0
        with self._replaying:
            while True:
                with self._lock:
                    dq = self._queues.get(node_idx)
                    if not dq:
                        break
                    entry = dq[0]
                try:
                    if entry[0] == "data":
                        node.insert_batch(entry[1])
                    elif entry[0] == "meta":
                        node.put_metadata(entry[1], entry[2])
                    else:
                        node.delete_before(entry[1], entry[2])
                except StorageError:
                    break  # node flapped again; keep the hint for later
                entries += 1
                size = _size(entry)
                with self._lock:
                    dq = self._queues.get(node_idx)
                    # Eviction, a rebalance's take() or a drop may have
                    # removed the entry meanwhile: pop only if it is
                    # still the head.
                    if dq and dq[0] is entry:
                        dq.popleft()
                        self._replayed.inc(size)
                        readings += size
                        self._removed_locked(node_idx, size, dq)
        return entries, readings

    def drop(self, node_idx: int) -> None:
        """Discard every hint queued for a node that left the cluster."""
        with self._lock:
            dropped = self._readings.get(node_idx, 0)
            self._dropped.inc(dropped)
            self._removed_locked(node_idx, dropped, ())

    def take(self, node_idx: int, moving: Callable[[SensorId], bool]) -> list[ReadingBatch]:
        """Remove the data hints ``node_idx`` holds for the sensors
        ``moving`` selects, oldest first, for a rebalance to re-home
        (they count as replayed).  Other hints keep their places."""
        taken: list[ReadingBatch] = []
        with self._lock:
            kept: deque = deque()
            for entry in self._queues.get(node_idx, ()):
                if entry[0] != "data":
                    kept.append(entry)
                    continue
                batch = entry[1]
                mine = [moving(s) for s in batch.sids]
                if not all(mine):
                    kept.append(("data", batch.select([r for r, m in enumerate(mine) if not m])))
                if any(mine):
                    taken.append(batch.select([r for r, m in enumerate(mine) if m]))
            count = sum(map(len, taken))
            if count:
                self._replayed.inc(count)
                self._queues[node_idx] = kept
                self._removed_locked(node_idx, count, kept)
        return taken

    def _removed_locked(self, node_idx: int, readings: int, left) -> None:
        """Account for ``readings`` leaving ``node_idx``'s queue, which
        now holds ``left``; an empty queue is forgotten."""
        self.pending -= readings
        if left:
            self._readings[node_idx] -= readings
        else:
            self._queues.pop(node_idx, None)
            self._readings.pop(node_idx, None)
