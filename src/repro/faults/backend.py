"""The fault-injecting proxy over any :class:`StorageBackend`.

``FaultyBackend`` sits between a caller (the batching writer, the
Collect Agent, a cluster coordinator, a test) and a real store —
a node, a cluster, the memory or SQLite backend — and fails
operations on purpose:

* ``kill()`` models a crashed server: until ``restart()`` every
  guarded operation raises :class:`~repro.common.errors.NodeDownError`
  and ``is_up`` reads False, which is what drives a cluster's hinted
  handoff and read failover.  The wrapped store keeps the data it held
  (a process restart over durable storage, the paper's Cassandra
  deployment model); writes that arrived while it was down live in the
  cluster's hint queue and land on replay.
* ``fail_next(n)`` arms exactly ``n`` failures, and ``fault_rate``
  fails the operations named in ``fail_ops`` probabilistically from a
  :class:`~repro.faults.plan.FaultPlan` substream; both raise
  :class:`~repro.common.errors.FaultInjectedError`.

With nothing armed and ``fault_rate=0`` the proxy is transparent — the
backend contract suite runs against it, over a memory backend and over
a node, to prove that (``tests/storage/test_backends_contract.py``).
Introspection (``row_count``, ``metrics``, ``recovery_info``…) is
never guarded, so tests can inspect a "down" store.  When the wrapped
store has a registry the proxy adds a ``dcdb_storage_node_up`` gauge
to it, so liveness shows up on ``/metrics`` next to the store's other
instruments.
"""

from __future__ import annotations

import threading
from typing import Iterable, Iterator

import numpy as np

from repro.common.errors import FaultInjectedError, NodeDownError
from repro.core.sid import SensorId
from repro.faults.plan import FaultPlan
from repro.storage.backend import InsertItem, ReadingBatch, StorageBackend

__all__ = ["FaultyBackend"]

#: Operations subject to probabilistic faults by default.  Metadata and
#: maintenance ops stay clean unless explicitly listed, so chaos tests
#: target the data plane without breaking topic->SID bookkeeping.
DEFAULT_FAIL_OPS = ("insert", "insert_batch", "query", "query_many", "query_prefix")

#: Every guarded operation: ``fail_ops=ALL_OPS`` makes a cluster member
#: flaky across its whole surface (a bad disk or NIC spares nothing).
ALL_OPS = DEFAULT_FAIL_OPS + (
    "sids",
    "stream_rows",
    "delete_before",
    "put_metadata",
    "get_metadata",
    "metadata_keys",
    "compact",
    "flush",
    "commit_durable",
)


class FaultyBackend(StorageBackend):
    """Delegate everything; fail on demand.

    Parameters
    ----------
    backend:
        The wrapped store.
    plan:
        Source of deterministic randomness; a fresh seed-0 plan when
        omitted.
    fault_rate:
        Per-operation failure probability in [0, 1] for ops listed in
        ``fail_ops``.
    stream:
        Substream name inside the plan, so several wrappers on one plan
        draw independently.
    fail_ops:
        Which operations the probabilistic faults apply to.
    """

    def __init__(
        self,
        backend: StorageBackend,
        plan: FaultPlan | None = None,
        fault_rate: float = 0.0,
        stream: str = "faulty-backend",
        fail_ops: Iterable[str] = DEFAULT_FAIL_OPS,
    ) -> None:
        if not 0.0 <= fault_rate <= 1.0:
            raise ValueError(f"fault_rate must be in [0, 1], got {fault_rate}")
        self.backend = backend
        self.plan = plan if plan is not None else FaultPlan()
        self.fault_rate = fault_rate
        self.stream = stream
        self.fail_ops = frozenset(fail_ops)
        self._up = True
        self._armed = 0  # fail exactly this many guarded ops, then recover
        self._lock = threading.Lock()
        self.faults_injected = 0
        self.kills = 0
        # Membership-epoch awareness: the cluster binds its epoch
        # source here so chaos tests can assert *when* (in membership
        # time) a node died — e.g. "killed during the transfer epoch".
        self._epoch_source = None
        self.killed_at_epoch: int | None = None
        if backend.metrics is not None:
            backend.metrics.gauge(
                "dcdb_storage_node_up", "1 while the node serves requests", ("node",)
            ).labels(node=backend.name).set_function(lambda: 1 if self._up else 0)

    # -- fault control -------------------------------------------------------

    @property
    def is_up(self) -> bool:
        return self._up

    def bind_epoch(self, epoch_source) -> None:
        """Record the cluster's epoch callable for kill stamping."""
        self._epoch_source = epoch_source

    def kill(self) -> None:
        """Take the store down; the state it holds is kept."""
        with self._lock:
            if self._up:
                self._up = False
                self.kills += 1
                if self._epoch_source is not None:
                    self.killed_at_epoch = self._epoch_source()

    def restart(self) -> None:
        """Bring the store back with the data it held before the kill."""
        self._up = True

    def fail_next(self, count: int = 1) -> None:
        """Arm exactly ``count`` deterministic failures (FIFO with ops)."""
        with self._lock:
            self._armed += count

    def _guard(self, op: str) -> None:
        with self._lock:
            if not self._up:
                self.faults_injected += 1
                raise NodeDownError(f"node {self.name} is down during {op}")
            if self._armed > 0:
                self._armed -= 1
                self.faults_injected += 1
                raise FaultInjectedError(f"injected fault: armed failure during {op}")
        if (
            self.fault_rate > 0.0
            and op in self.fail_ops
            and self.plan.chance(self.stream, self.fault_rate)
        ):
            with self._lock:
                self.faults_injected += 1
            raise FaultInjectedError(
                f"injected fault on {self.name}: {op} (rate {self.fault_rate})"
            )

    # -- data plane ----------------------------------------------------------

    def insert(self, sid: SensorId, timestamp: int, value: int, ttl_s: int = 0) -> None:
        self._guard("insert")
        self.backend.insert(sid, timestamp, value, ttl_s)

    def insert_batch(self, items: ReadingBatch | Iterable[InsertItem]) -> int:
        self._guard("insert_batch")
        return self.backend.insert_batch(items)

    def query(self, sid: SensorId, start: int, end: int) -> tuple[np.ndarray, np.ndarray]:
        self._guard("query")
        return self.backend.query(sid, start, end)

    def query_many(
        self, sids, start: int, end: int
    ) -> dict[SensorId, tuple[np.ndarray, np.ndarray]]:
        self._guard("query_many")
        return self.backend.query_many(sids, start, end)

    def query_prefix(
        self, prefix: int, levels: int, start: int, end: int
    ) -> Iterator[tuple[SensorId, np.ndarray, np.ndarray]]:
        self._guard("query_prefix")
        return self.backend.query_prefix(prefix, levels, start, end)

    def sids(self) -> list[SensorId]:
        self._guard("sids")
        return self.backend.sids()

    def stream_rows(self, sid: SensorId, chunk_rows: int = 4096):
        """Guarded rebalance stream: a kill mid-iteration aborts the
        stream with :class:`NodeDownError`, exactly like a streaming
        source crashing between chunks."""
        self._guard("stream_rows")
        for chunk in self.backend.stream_rows(sid, chunk_rows):
            self._guard("stream_rows")
            yield chunk

    def delete_before(self, sid: SensorId, cutoff: int) -> int:
        self._guard("delete_before")
        return self.backend.delete_before(sid, cutoff)

    # -- metadata plane ------------------------------------------------------

    def put_metadata(self, key: str, value: str) -> None:
        self._guard("put_metadata")
        self.backend.put_metadata(key, value)

    def put_metadata_many(self, pairs) -> None:
        # Same op name as put_metadata: a batch is one metadata write,
        # so seeded schedules keep drawing from the stream they did.
        self._guard("put_metadata")
        self.backend.put_metadata_many(pairs)

    def get_metadata(self, key: str) -> str | None:
        self._guard("get_metadata")
        return self.backend.get_metadata(key)

    def metadata_keys(self, prefix: str = "") -> list[str]:
        self._guard("metadata_keys")
        return self.backend.metadata_keys(prefix)

    # -- maintenance ---------------------------------------------------------

    def compact(self) -> None:
        self._guard("compact")
        self.backend.compact()

    def flush(self) -> None:
        self._guard("flush")
        self.backend.flush()

    def commit_durable(self) -> bool:
        self._guard("commit_durable")
        return self.backend.commit_durable()

    def close(self) -> None:
        # Unguarded: shutdown must release files even on a "down" store.
        self.backend.close()

    # -- unguarded introspection ---------------------------------------------

    @property
    def name(self) -> str:
        return self.backend.name

    @property
    def metrics(self):
        return self.backend.metrics

    def metrics_registries(self) -> list:
        return self.backend.metrics_registries()

    def __getattr__(self, attr: str):
        # Only reached for names the contract does not declare
        # (row_count, recovery_info, state_fingerprint, ...).
        if attr == "backend":  # not yet assigned: no self-recursion
            raise AttributeError(attr)
        return getattr(self.backend, attr)
