"""Elastic cluster membership: ownership table and failure detection.

The paper's storage tier (section 4.3) rides on Cassandra partly for
its data-distribution mechanism — nodes join and leave a running ring
and partitions move with them.  This module supplies the two pieces
that make the reproduction's ``StorageCluster`` elastic:

* :class:`ClusterMembership` — an epoch-versioned **ownership table**:
  the one partition -> replica-set map of the cluster.  The
  partitioner supplies keys; the table assigns a key it has not seen
  to the next replica set round-robin over the active nodes (with
  every node up that is the classic ring walk: owner ``i % n`` plus
  the next ``replication - 1`` nodes).  Every mutation — join, leave,
  transfer commit — bumps the epoch atomically so callers (the
  cluster's replica cache) can invalidate derived state.

* :class:`FailureDetector` — a phi-accrual-style suspicion tracker
  (Hayashibara et al., the detector Cassandra gossip uses).  Heartbeat
  arrivals are recorded by a background probe thread (or driven
  deterministically from the simulation clock); the suspicion level
  *phi* grows with the time since the last heartbeat relative to the
  observed arrival cadence.  Write and read paths consult the cached
  verdict instead of sampling every node per call, and feed
  operation outcomes back in (`report_success` / `report_failure`) so
  detection does not wait for the next probe tick.

Transfer protocol (zero acked-write loss, see docs/deployment.md):
while a partition is mid-transfer, writes target the **union** of the
old and new replica sets and reads prefer the old owners (complete by
construction) before the new; hinted handoff covers writes to a new
owner that is briefly down.  Only when the transfer commits does the
partition's replica set collapse to the new owners.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

from repro.common.errors import StorageError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.sid import SensorId
    from repro.storage.partitioner import Partitioner


# Node lifecycle / liveness states.
NODE_UP = "up"
NODE_SUSPECT = "suspect"
NODE_DOWN = "down"
NODE_LEAVING = "leaving"
NODE_REMOVED = "removed"

#: States exported as `dcdb_cluster_node_state{node,state}` gauges.
EXPORTED_STATES = (NODE_UP, NODE_SUSPECT, NODE_DOWN)

_LN10 = math.log(10.0)


@dataclass(frozen=True)
class PartitionMove:
    """One partition changing owners during a rebalance."""

    partition: int
    old_replicas: tuple[int, ...]
    new_replicas: tuple[int, ...]

    @property
    def gaining(self) -> tuple[int, ...]:
        return tuple(i for i in self.new_replicas if i not in self.old_replicas)

    @property
    def losing(self) -> tuple[int, ...]:
        return tuple(i for i in self.old_replicas if i not in self.new_replicas)


class FailureDetector:
    """Phi-accrual suspicion over node heartbeats.

    ``probe()`` polls every registered node's heartbeat channel (the
    ``is_up`` attribute that fault proxies expose) and records the
    arrival; ``phi(idx)`` is the accrued suspicion — roughly the number
    of decades of confidence that the node is gone, growing with the
    silence interval relative to the observed heartbeat cadence.
    Crossing ``phi_suspect`` marks the node SUSPECT, ``phi_down`` marks
    it DOWN.  Operation outcomes feed back immediately: a hard failure
    (connection refused / :class:`NodeDownError`) forces DOWN without
    waiting for a probe tick, a soft failure bumps suspicion, a success
    counts as a heartbeat.

    One background daemon thread (``start()``/``stop()``) drives probes
    for long-running deployments; the simulation harness instead calls
    ``probe()`` at deterministic points on the sim clock.
    """

    def __init__(
        self,
        *,
        clock: Callable[[], int] | None = None,
        interval_s: float = 0.5,
        phi_suspect: float = 1.0,
        phi_down: float = 8.0,
        window: int = 32,
    ) -> None:
        self._clock = clock or time.monotonic_ns
        self.interval_ns = max(1, int(interval_s * 1e9))
        self.phi_suspect = phi_suspect
        self.phi_down = phi_down
        self._window = window
        self._lock = threading.RLock()
        self._names: list[str] = []
        self._probes: list[Callable[[], bool]] = []
        self._last: list[int] = []
        self._intervals: list[deque[int]] = []
        self._state: list[str] = []
        self._failures: list[int] = []
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self.probes_total = 0
        # Phi only accrues once heartbeats are actually flowing (a
        # probe thread or a simulation driving probe()); without that,
        # elapsed-since-heartbeat is meaningless and an idle cluster
        # must not drift into suspicion.
        self._probing = False

    # -- registration -------------------------------------------------

    def register(self, name: str, probe: Callable[[], bool]) -> int:
        """Track one node; returns its index."""
        with self._lock:
            idx = len(self._probes)
            self._names.append(name)
            self._probes.append(probe)
            self._last.append(self._clock())
            self._intervals.append(deque(maxlen=self._window))
            self._state.append(NODE_UP)
            self._failures.append(0)
            return idx

    def deregister(self, idx: int) -> None:
        """Stop probing a node that left the cluster."""
        with self._lock:
            self._state[idx] = NODE_REMOVED
            self._probes[idx] = lambda: False

    # -- heartbeats ---------------------------------------------------

    def probe(self, now: int | None = None) -> None:
        """Poll every node's heartbeat channel once.

        Passing an explicit ``now`` (the probe thread and the
        simulation harness do) marks heartbeating as continuous, which
        arms phi-based condemnation; a bare ``probe()`` from an ad-hoc
        health check only refreshes the states.
        """
        with self._lock:
            if now is not None:
                self._probing = True
            now = self._clock() if now is None else now
            self.probes_total += 1
            for idx in range(len(self._probes)):
                if self._state[idx] == NODE_REMOVED:
                    continue
                try:
                    up = bool(self._probes[idx]())
                except Exception:
                    up = False
                if up:
                    self._heartbeat_locked(idx, now)
                else:
                    self._state[idx] = NODE_DOWN

    def report_success(self, idx: int) -> None:
        """An operation against the node succeeded — that is a heartbeat."""
        with self._lock:
            if 0 <= idx < len(self._state) and self._state[idx] != NODE_REMOVED:
                self._heartbeat_locked(idx, self._clock())

    def report_failure(self, idx: int, *, hard: bool = False) -> None:
        """An operation failed; ``hard`` means the node is definitely down.

        Soft failures (injected faults, transient errors) only raise
        suspicion — the node stays routable, so a flaky-but-alive
        member is never falsely evicted from the read/write paths.
        Hard failures (connection refused / :class:`NodeDownError`)
        mark the node DOWN immediately, without waiting for the next
        probe tick.
        """
        with self._lock:
            if not (0 <= idx < len(self._state)) or self._state[idx] == NODE_REMOVED:
                return
            self._failures[idx] += 1
            if hard:
                self._state[idx] = NODE_DOWN
            elif self._state[idx] == NODE_UP:
                self._state[idx] = NODE_SUSPECT

    def _heartbeat_locked(self, idx: int, now: int) -> None:
        elapsed = now - self._last[idx]
        if elapsed > 0:
            self._intervals[idx].append(elapsed)
            self._last[idx] = now
        self._failures[idx] = 0
        self._state[idx] = NODE_UP

    # -- verdicts -----------------------------------------------------

    def phi(self, idx: int, now: int | None = None) -> float:
        """Accrued suspicion for the node (0 = just heard from it)."""
        with self._lock:
            if self._state[idx] in (NODE_DOWN, NODE_REMOVED):
                return float("inf")
            now = self._clock() if now is None else now
            intervals = self._intervals[idx]
            mean = (sum(intervals) / len(intervals)) if intervals else self.interval_ns
            mean = max(mean, 1.0)
            elapsed = max(0, now - self._last[idx])
            # P(heartbeat still pending) = exp(-t/mean); phi = -log10(P).
            accrued = elapsed / (mean * _LN10)
            return accrued + 2.0 * self._failures[idx]

    def is_alive(self, idx: int) -> bool:
        """Current verdict; SUSPECT nodes still count as alive.

        A node is condemned only on explicit evidence — a probe that
        found it down or a hard operation failure — or, when heartbeats
        are flowing, on the accrued phi crossing ``phi_down``.
        """
        with self._lock:
            if not 0 <= idx < len(self._state):
                return True
            if self._state[idx] in (NODE_DOWN, NODE_REMOVED):
                return False
            if not self._probing:
                return True
        return self.phi(idx) < self.phi_down

    def state(self, idx: int) -> str:
        with self._lock:
            if not 0 <= idx < len(self._state):
                return NODE_UP
            st = self._state[idx]
            probing = self._probing
        if st == NODE_UP and probing and self.phi(idx) >= self.phi_suspect:
            return NODE_SUSPECT
        return st

    def liveness_snapshot(self) -> list[bool]:
        """Per-node alive verdicts in index order (one lock pass)."""
        with self._lock:
            n = len(self._state)
        return [self.is_alive(i) for i in range(n)]

    def states(self) -> list[dict[str, object]]:
        """Per-node detail for health endpoints."""
        out: list[dict[str, object]] = []
        with self._lock:
            n = len(self._state)
        for idx in range(n):
            phi = self.phi(idx)
            out.append(
                {
                    "index": idx,
                    "node": self._names[idx],
                    "state": self.state(idx),
                    "phi": round(min(phi, 99.0), 3),
                }
            )
        return out

    # -- background probing -------------------------------------------

    def start(self) -> None:
        """Spawn the background probe thread (idempotent)."""
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="dcdb-failure-detector", daemon=True
            )
            self._thread.start()

    def stop(self) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=5.0)
        self._thread = None

    def _run(self) -> None:
        interval_s = self.interval_ns / 1e9
        while not self._stop.wait(interval_s):
            self.probe(self._clock())

class ClusterMembership:
    """Epoch-versioned partition -> replica-set ownership table.

    The partitioner only supplies partition keys; every placement is a
    table entry.  A key seen for the first time is assigned
    round-robin over the active nodes, continuing the first-seen
    sequence, so placement depends on the order partitions first
    appear (and nothing else) until a join or leave moves them.

    Every mutation bumps ``epoch`` and fires the registered listeners
    (the cluster clears its replica cache there).  While a partition is
    listed in ``transfers`` its writes go to old+new union and reads
    prefer the old owners; ``commit_transfer`` ends the dual phase.
    """

    def __init__(self, partitioner: "Partitioner", replication: int) -> None:
        self.partitioner = partitioner
        self.replication = replication
        self._lock = threading.RLock()
        self._slots: list[str] = [NODE_UP] * partitioner.num_nodes
        self._epoch = 1
        self._table: dict[int, tuple[int, ...]] = {}
        self._transfers: dict[int, tuple[int, ...]] = {}
        self._rr = 0
        self._listeners: list[Callable[[int], None]] = []

    # -- introspection ------------------------------------------------

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def num_slots(self) -> int:
        with self._lock:
            return len(self._slots)

    def active_indices(self) -> list[int]:
        """Slots that currently accept placements (LEAVING excluded)."""
        with self._lock:
            return [i for i, s in enumerate(self._slots) if s == NODE_UP]

    def member_indices(self) -> list[int]:
        """Slots still serving data (LEAVING included, REMOVED not)."""
        with self._lock:
            return [
                i for i, s in enumerate(self._slots) if s != NODE_REMOVED
            ]

    def slot_state(self, idx: int) -> str:
        with self._lock:
            return self._slots[idx]

    @property
    def transfers_active(self) -> int:
        with self._lock:
            return len(self._transfers)

    def pending_transfers(self) -> list[int]:
        with self._lock:
            return sorted(self._transfers)

    def on_epoch_change(self, fn: Callable[[int], None]) -> None:
        self._listeners.append(fn)

    def _bump_locked(self) -> None:
        self._epoch += 1
        for fn in self._listeners:
            fn(self._epoch)

    # -- placement ----------------------------------------------------

    def write_replicas(self, sid: "SensorId") -> tuple[tuple[int, ...], bool]:
        """Replica set a write must reach, plus whether it is cacheable.

        During a transfer the set is the union of old and new owners
        (not cacheable — it shrinks at commit); otherwise it is the
        table entry.
        """
        key = self.partitioner.partition_key(sid)
        with self._lock:
            entry = self._table.get(key)
            if entry is None:
                entry = self._assign_locked(key)
            old = self._transfers.get(key)
            if old is None:
                return entry, True
            union = entry + tuple(i for i in old if i not in entry)
            return union, False

    def read_replicas(self, sid: "SensorId") -> tuple[int, ...]:
        """Candidate read order: old owners first while mid-transfer.

        Old owners keep receiving every write during the dual phase
        (union writes), so they stay complete while the new owner is
        still streaming history.
        """
        key = self.partitioner.partition_key(sid)
        with self._lock:
            entry = self._table.get(key)
            if entry is None:
                entry = self._assign_locked(key)
            old = self._transfers.get(key)
            if old is None:
                return entry
            return old + tuple(i for i in entry if i not in old)

    def primary_for_partition(self, key: int) -> int | None:
        """Single-owner routing hint; None while mid-transfer/unknown."""
        with self._lock:
            if key in self._transfers:
                return None
            entry = self._table.get(key)
            return entry[0] if entry else None

    def partition_of(self, sid: "SensorId") -> int:
        return self.partitioner.partition_key(sid)

    def _assign_locked(self, key: int) -> tuple[int, ...]:
        """First-seen assignment of a new partition."""
        active = [i for i, s in enumerate(self._slots) if s == NODE_UP]
        if not active:
            raise StorageError("no active nodes left in the cluster")
        start = self._rr % len(active)
        self._rr += 1
        n = min(self.replication, len(active))
        entry = tuple(active[(start + k) % len(active)] for k in range(n))
        self._table[key] = entry
        return entry

    # -- membership changes -------------------------------------------

    def add_slot(self) -> tuple[int, list[PartitionMove]]:
        """Join a new node; plan the partitions that move to it.

        Deterministic: partitions are visited in sorted order and for
        each move the most-loaded current owner cedes its replica, until
        the new node holds its fair share of replica slots.
        """
        with self._lock:
            new_idx = len(self._slots)
            self._slots.append(NODE_UP)
            active = [i for i, s in enumerate(self._slots) if s == NODE_UP]
            counts = {i: 0 for i in active}
            for reps in self._table.values():
                for r in reps:
                    if r in counts:
                        counts[r] += 1
            total = sum(len(reps) for reps in self._table.values())
            want = total // len(active)
            moves: list[PartitionMove] = []
            for key in sorted(self._table):
                if counts[new_idx] >= want:
                    break
                if key in self._transfers:
                    continue
                old = self._table[key]
                if new_idx in old:
                    continue
                victim = max(
                    (r for r in old if r in counts),
                    key=lambda r: (counts[r], r),
                    default=None,
                )
                if victim is None or counts[victim] <= counts[new_idx]:
                    continue
                new = tuple(new_idx if r == victim else r for r in old)
                self._table[key] = new
                self._transfers[key] = old
                counts[victim] -= 1
                counts[new_idx] += 1
                moves.append(PartitionMove(key, old, new))
            self._bump_locked()
            return new_idx, moves

    def remove_slot(self, idx: int) -> list[PartitionMove]:
        """Begin draining a member: plan moves off every partition it owns."""
        with self._lock:
            if not 0 <= idx < len(self._slots):
                raise StorageError(f"no such node index {idx}")
            if self._slots[idx] != NODE_UP:
                raise StorageError(f"node {idx} is already {self._slots[idx]}")
            active = [
                i
                for i, s in enumerate(self._slots)
                if s == NODE_UP and i != idx
            ]
            if not active:
                raise StorageError("cannot remove the last active node")
            self._slots[idx] = NODE_LEAVING
            counts = {i: 0 for i in active}
            for reps in self._table.values():
                for r in reps:
                    if r in counts:
                        counts[r] += 1
            moves: list[PartitionMove] = []
            for key in sorted(self._table):
                old = self._table[key]
                if idx not in old:
                    continue
                candidates = [n for n in active if n not in old]
                if candidates:
                    repl = min(candidates, key=lambda n: (counts[n], n))
                    new = tuple(repl if r == idx else r for r in old)
                    counts[repl] += 1
                else:
                    # replication >= surviving nodes: shrink the set.
                    new = tuple(r for r in old if r != idx)
                self._table[key] = new
                self._transfers[key] = old
                moves.append(PartitionMove(key, old, new))
            self._bump_locked()
            return moves

    def commit_transfer(self, key: int) -> None:
        """End a partition's dual-read/union-write phase."""
        with self._lock:
            if self._transfers.pop(key, None) is not None:
                self._bump_locked()

    def finish_remove(self, idx: int) -> None:
        """Mark a drained member as gone."""
        with self._lock:
            if self._slots[idx] == NODE_LEAVING:
                self._slots[idx] = NODE_REMOVED
                self._bump_locked()

    def ownership_counts(self) -> dict[int, int]:
        """Replica-slot count per member (balance introspection)."""
        with self._lock:
            counts = {i: 0 for i in self.member_indices()}
            for reps in self._table.values():
                for r in reps:
                    if r in counts:
                        counts[r] += 1
            return counts

    def table_snapshot(self) -> dict[int, tuple[int, ...]]:
        with self._lock:
            return dict(self._table)
