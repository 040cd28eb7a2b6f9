"""The distributed storage cluster.

Composes member stores — any
:class:`~repro.storage.backend.StorageBackend`, normally
:class:`~repro.storage.node.StorageNode` or
:class:`~repro.storage.durable.DurableNode` servers — behind that same
API.  A :class:`~repro.storage.partitioner.Partitioner` maps each
sensor to a partition key and the ownership table
(:class:`~repro.storage.membership.ClusterMembership`) maps the key to
its replica set; that table is the cluster's only placement.  Any node
"may be used to insert or query data" (paper section 4.3); in our
reproduction the cluster object is that coordinator role, and it
records how many operations had to leave the contact node — the
locality metric that motivates hierarchical partitioning.

Every operation that touches several nodes — a batch write, a bulk
read, a subtree scan — splits into one job per node and runs the jobs
one after another on the calling thread.

Availability under node churn follows the Cassandra playbook the
paper relies on:

* **writes** retry each replica with capped exponential backoff; a
  replica that stays unreachable gets a *hinted handoff*
  (:mod:`repro.storage.hints`: data, metadata and deletes it missed,
  replayed in order when it recovers, and before any direct write
  reaches it), so one down node does not stall ingest.  Only when
  every replica of some reading fails does the write raise (and the
  batching writer re-queues the batch, see
  :class:`~repro.core.collectagent.writer.BatchingWriter`).
* **reads** — :meth:`StorageCluster.query` and
  :meth:`StorageCluster.query_many` share one routine — fall back to
  the next replica instead of erroring; a read touching a recovered
  node first drains its pending hints so the series it serves is
  complete.

Metadata (sensor properties, virtual sensor definitions) is replicated
to every node, mirroring Cassandra system tables: it is tiny, read
everywhere and must survive any single node.  Nodes join and leave
live; the partition transfers run in :mod:`repro.storage.rebalance`.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.common.errors import NodeDownError, StorageError
from repro.common.timeutil import now_ns
from repro.core.sid import SensorId
from repro.observability import MetricsRegistry
from repro.observability.spans import SpanRecorder, current_trace, default_recorder
from repro.storage.backend import InsertItem, ReadingBatch, StorageBackend, as_batch
from repro.storage.hints import HintQueue
from repro.storage.membership import (
    EXPORTED_STATES,
    NODE_LEAVING,
    NODE_REMOVED,
    ClusterMembership,
    FailureDetector,
)
from repro.storage.node import StorageNode
from repro.storage.partitioner import HierarchicalPartitioner, Partitioner
from repro.storage.rebalance import Rebalancer

logger = logging.getLogger(__name__)

# Bound on memoized per-SID replica sets (FIFO eviction — the
# oldest-resolved sensor is the cheapest to recompute).
_REPLICA_CACHE_MAX = 65_536


#: One node's bulk read for the cluster read path: ``(node, sids) ->
#: {sid: answer}``.
_NodeRead = Callable[[StorageBackend, list], dict]


def _window(start: int, end: int) -> _NodeRead:
    """The node read of every SID's series over ``[start, end]``."""
    return lambda node, sids: node.query_many(sids, start, end)


class StorageCluster(StorageBackend):
    """A replicated, partitioned cluster of storage nodes.

    Parameters
    ----------
    nodes:
        The member stores (any :class:`StorageBackend`); at least one.
    partitioner:
        Partition-key policy; defaults to the paper's hierarchical
        SID-prefix partitioner over two levels.
    replication:
        Number of copies of each reading (capped at the node count).
    contact_node:
        Index of the node this coordinator is "nearest" to; used only
        for the locality statistics.
    max_retries:
        Write attempts per replica beyond the first before the
        coordinator gives up on it and queues a hint.
    backoff_base_s / backoff_cap_s:
        Capped exponential backoff between write retries.
    hint_capacity:
        Per-node bound on hinted readings; beyond it the oldest data
        hints are dropped (counted in
        ``dcdb_storage_hints_dropped_total``).
    sleep:
        Injectable sleep for the retry backoff; tests and simulations
        pass a no-op so chaos runs are instant and deterministic.
    slow_query_s:
        Reads slower than this are logged at WARNING with the ambient
        trace id (0 disables the slow-op log).
    spans:
        Span recorder for replica-write / hint / retry spans; defaults
        to the process-wide recorder.
    """

    def __init__(
        self,
        nodes: list[StorageBackend] | None = None,
        partitioner: Partitioner | None = None,
        replication: int = 1,
        contact_node: int = 0,
        metrics: MetricsRegistry | None = None,
        max_retries: int = 2,
        backoff_base_s: float = 0.005,
        backoff_cap_s: float = 0.1,
        hint_capacity: int = 1_000_000,
        sleep: Callable[[float], None] | None = None,
        slow_query_s: float = 1.0,
        spans: SpanRecorder | None = None,
        failure_detector: FailureDetector | None = None,
        liveness_interval_s: float = 0.0,
        rebalance_chunk_rows: int = 4096,
        rebalance_timeout_s: float = 30.0,
    ) -> None:
        if nodes is None:
            nodes = [StorageNode("node0")]
        if not nodes:
            raise StorageError("a cluster needs at least one node")
        self.nodes = nodes
        self.partitioner = (
            partitioner
            if partitioner is not None
            else HierarchicalPartitioner(len(nodes))
        )
        if self.partitioner.num_nodes != len(nodes):
            raise StorageError(
                f"partitioner sized for {self.partitioner.num_nodes} nodes, "
                f"cluster has {len(nodes)}"
            )
        if replication < 1:
            raise StorageError("replication factor must be >= 1")
        if max_retries < 0:
            raise StorageError("max_retries must be >= 0")
        self.replication = min(replication, len(nodes))
        # Replica-set lookups sit on every read and write hot path (and
        # hash partitioners recompute a digest per call), so resolved
        # sets are memoized, bounded by _REPLICA_CACHE_MAX and cleared
        # wholesale on every membership epoch change, since a
        # join/leave can move any partition.  Benign races just
        # recompute the same tuple.
        self._replica_cache: dict[SensorId, tuple[int, ...]] = {}
        # The ownership table (the cluster's one placement) and the
        # phi-accrual failure detector; see repro.storage.membership.
        self.membership = ClusterMembership(self.partitioner, self.replication)
        self.membership.on_epoch_change(lambda _epoch: self._replica_cache.clear())
        self.detector = (
            failure_detector if failure_detector is not None else FailureDetector()
        )
        self.rebalance_chunk_rows = rebalance_chunk_rows
        self.rebalance_timeout_s = rebalance_timeout_s
        #: Hook called as fn(partition, source_idx, target_idx, chunk_no)
        #: before each streamed chunk lands; the chaos harness's
        #: RebalanceFaultInjector plugs in here.
        self.rebalance_fault_hook: Callable[[int, int, int, int], None] | None = None
        self._membership_lock = threading.Lock()
        self._inflight_lock = threading.Lock()
        self._inflight_idle = threading.Condition(self._inflight_lock)
        self._inflight_writes = 0
        self.contact_node = contact_node
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self._sleep = sleep if sleep is not None else time.sleep
        if slow_query_s < 0:
            raise StorageError("slow_query_s must be >= 0")
        self.slow_query_s = slow_query_s
        self.spans = spans if spans is not None else default_recorder()
        # Locality statistics for the partitioning ablation.  Registry
        # counters stay monotonic; reset_stats() moves the baseline the
        # local_ops/remote_ops views subtract.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._local_ops = self.metrics.counter(
            "dcdb_cluster_local_ops_total", "Operations served by the contact node"
        )
        self._remote_ops = self.metrics.counter(
            "dcdb_cluster_remote_ops_total", "Operations that left the contact node"
        )
        self._write_retries = self.metrics.counter(
            "dcdb_storage_write_retries_total",
            "Replica write attempts retried after a failure",
        )
        self._read_failovers = self.metrics.counter(
            "dcdb_storage_read_failovers_total",
            "Replicas a read skipped or failed on, one per SID",
        )
        self.hints = HintQueue(self.metrics, hint_capacity)
        self._query_latency = self.metrics.histogram(
            "dcdb_cluster_query_seconds",
            "Cluster-layer read latency",
            ("op",),
        )
        self._local_base = 0.0
        self._remote_base = 0.0
        # Membership / elasticity instrumentation.
        self.metrics.gauge(
            "dcdb_cluster_epoch",
            "Membership epoch; bumps on every join, leave and transfer commit",
        ).set_function(lambda: float(self.membership.epoch))
        self.metrics.gauge(
            "dcdb_cluster_replica_cache_entries",
            "Memoized replica sets held by the bounded per-SID cache",
        ).set_function(lambda: float(len(self._replica_cache)))
        self._rebalancer = Rebalancer(self)
        self._node_state_gauge = self.metrics.gauge(
            "dcdb_cluster_node_state",
            "Failure-detector verdict per node (1 in exactly one state)",
            labelnames=("node", "state"),
        )
        for idx, node in enumerate(self.nodes):
            self._register_node_liveness(idx, node)
        if liveness_interval_s > 0:
            self.detector.interval_ns = max(1, int(liveness_interval_s * 1e9))
            self.detector.start()

    def _register_node_liveness(self, idx: int, node) -> None:
        """Track a member in the failure detector + state gauges."""
        name = node.name
        self.detector.register(name, lambda n=node: n.is_up)
        bind_epoch = getattr(node, "bind_epoch", None)
        if bind_epoch is not None:
            bind_epoch(lambda: self.membership.epoch)
        for state in EXPORTED_STATES:
            self._node_state_gauge.labels(node=name, state=state).set_function(
                lambda i=idx, s=state: 1.0 if self.detector.state(i) == s else 0.0
            )

    @property
    def local_ops(self) -> int:
        return int(self._local_ops.value - self._local_base)

    @property
    def remote_ops(self) -> int:
        return int(self._remote_ops.value - self._remote_base)

    @property
    def hints_pending(self) -> int:
        """Hinted readings queued for currently-unreachable replicas."""
        return self.hints.pending

    def metrics_registries(self) -> list[MetricsRegistry]:
        """This cluster's registry plus every member node's."""
        seen: set[int] = set()
        registries = [self.metrics]
        for node in self.nodes:
            registries.extend(node.metrics_registries())
        return [r for r in registries if not (id(r) in seen or seen.add(id(r)))]

    def node_liveness(self) -> tuple[int, int]:
        """(live, total) member count — the health-endpoint probe.

        Reads the heartbeat channel directly (and feeds the arrival
        into the failure detector) so health checks reflect a crash
        immediately instead of waiting for the next probe tick.
        Removed members do not count against availability.
        """
        self.detector.probe()
        return len(self._up_members()), len(self.membership.member_indices())

    def node_states(self) -> list[dict[str, object]]:
        """Per-node liveness detail from the failure detector.

        Each entry carries ``{index, node, state, phi}``; membership
        lifecycle states (leaving/removed) override the detector
        verdict.  Health endpoints expose this list.
        """
        states = self.detector.states()
        for entry in states:
            slot = self.membership.slot_state(int(entry["index"]))
            if slot in (NODE_LEAVING, NODE_REMOVED):
                entry["state"] = slot
        return states

    def _observe_query(self, op: str, t0: float, detail: str = "") -> None:
        """Record read latency; slow reads go to the log with the
        ambient trace id so a ``/traces`` lookup can follow up."""
        duration = time.perf_counter() - t0
        self._query_latency.labels(op=op).observe(duration)
        if 0 < self.slow_query_s <= duration:
            trace_id = current_trace()
            logger.warning(
                "slow %s took %.3fs%s",
                op,
                duration,
                f" ({detail})" if detail else "",
                extra={
                    "trace_id": trace_id,
                    "duration_s": round(duration, 6),
                    "op": op,
                },
            )

    # -- write availability --------------------------------------------------

    def _try_write(self, node_idx: int, items: ReadingBatch) -> StorageError | None:
        """Write one replica's sub-batch, retrying with capped backoff.

        Returns None on success; on persistent failure the sub-batch is
        queued as a hinted handoff and the final error is returned (so
        the coordinator can propagate the root cause when *every*
        replica fails).  A node that reports itself down is hinted
        immediately — retrying a known crash only burns the backoff
        budget.
        """
        trace_id = current_trace()
        node = self.nodes[node_idx]
        detector = self.detector
        replica = node.name
        start_ns = now_ns() if trace_id is not None else 0
        last_error: StorageError = StorageError(f"node {replica} is down")
        # The heartbeat channel (is_up) is read alongside the accrued
        # detector verdict: a self-reported crash hints immediately
        # without burning the retry budget, and a node the detector has
        # condemned (repeated failures without a heartbeat) is skipped
        # even if it still answers the channel.
        fault = not node.is_up or not detector.is_alive(node_idx)
        attempts_made = 0
        for attempt in range(self.max_retries + 1):
            if not node.is_up or not detector.is_alive(node_idx):
                fault = True
                break
            if self._behind_hints(node_idx):
                last_error = StorageError(f"node {replica} still owes hints")
                break
            attempts_made = attempt + 1
            try:
                node.insert_batch(items)
                detector.report_success(node_idx)
                self._account(node_idx)
                if trace_id is not None:
                    self.spans.record(
                        trace_id,
                        "replica-write",
                        "storage",
                        start_ns,
                        now_ns(),
                        replica=replica,
                        batch=len(items),
                        attempts=attempts_made,
                        retries=attempts_made - 1,
                    )
                return None
            except StorageError as exc:
                last_error = exc
                fault = True
                detector.report_failure(node_idx, hard=isinstance(exc, NodeDownError))
                if attempt >= self.max_retries or not node.is_up:
                    logger.warning(
                        "replica %s failed %d attempts (%s); hinting %d readings",
                        replica,
                        attempt + 1,
                        exc,
                        len(items),
                    )
                    break
                self._write_retries.inc()
                self._sleep(
                    min(self.backoff_cap_s, self.backoff_base_s * (2.0 ** attempt))
                )
        self.hints.push(node_idx, ("data", items))
        if trace_id is not None:
            self.spans.record(
                trace_id,
                "hinted-handoff",
                "storage",
                start_ns,
                now_ns(),
                replica=replica,
                batch=len(items),
                attempts=attempts_made,
                faultInjected=fault,
                error=str(last_error),
            )
        return last_error

    def replay_hints(self, node_idx: int | None = None) -> int:
        """Replay queued hints to recovered nodes; returns readings landed.

        Called explicitly by operators/tests and piggybacked on every
        read so a recovered replica is repaired before it serves (the
        acceptance path: kill, ingest, restart, query -> complete
        series).  Hints for still-down nodes stay queued.
        """
        replayed = 0
        indices = [node_idx] if node_idx is not None else self.hints.nodes()
        for idx in indices:
            node = self.nodes[idx]
            if self.membership.slot_state(idx) == NODE_REMOVED:
                self.hints.drop(idx)
                continue
            if not node.is_up:
                continue
            landed, readings = self.hints.replay(idx, node)
            replayed += readings
            if landed:
                # A successful replay is proof of life — resurrect the
                # node in the detector without waiting for a probe.
                self.detector.report_success(idx)
        return replayed

    def _behind_hints(self, node_idx: int) -> bool:
        """Whether a direct write to ``node_idx`` would overtake hints
        it owes.  They are replayed first; whatever is still owed after
        that (the node is down or flapped) the write must queue behind."""
        if node_idx not in self.hints:
            return False
        self.replay_hints(node_idx)
        return node_idx in self.hints

    def _repair_before_read(self) -> None:
        if self.hints:
            self.replay_hints()

    def _replicas(self, sid: SensorId) -> tuple[int, ...]:
        """Replica set a write to ``sid`` must reach (ownership table).

        Mid-transfer sets (old ∪ new owners) are never cached — they
        shrink when the transfer commits; everything else is memoized
        in the bounded cache, which epoch changes clear wholesale.
        """
        cached = self._replica_cache.get(sid)
        if cached is not None:
            return cached
        replicas, cacheable = self.membership.write_replicas(sid)
        if cacheable:
            cache = self._replica_cache
            if len(cache) >= _REPLICA_CACHE_MAX:
                try:
                    cache.pop(next(iter(cache)))
                except (KeyError, StopIteration):  # racing eviction
                    pass
            cache[sid] = replicas
        return replicas

    def _read_replicas(self, sid: SensorId) -> tuple[int, ...]:
        """Candidate read order for ``sid``.

        Identical to the write set except while the sensor's partition
        is mid-transfer, when old owners (complete by union writes) are
        preferred over the still-streaming new owner.
        """
        if not self.membership.transfers_active:
            return self._replicas(sid)
        return self.membership.read_replicas(sid)

    # -- data plane ---------------------------------------------------------

    def insert(self, sid: SensorId, timestamp: int, value: int, ttl_s: int = 0) -> None:
        self._write(as_batch([(sid, timestamp, value, ttl_s)]))

    def insert_batch(self, items: ReadingBatch | Iterable[InsertItem]) -> int:
        """Route a batch grouping by replica to amortize lock traffic.

        Each replica gets its runs as one sub-batch of column slices,
        written in node order on the calling thread.  Failed replicas
        are retried, then hinted; the call raises only if some reading
        landed on *no* replica at all (the batching writer then
        re-queues the whole batch — replay/retry overlap is
        deduplicated by the nodes' last-write-wins semantics).
        """
        return self._write(as_batch(items))

    def _write(self, batch: ReadingBatch) -> int:
        """The one cluster write behind :meth:`insert` and
        :meth:`insert_batch`: one replica lookup per run."""
        with self._inflight_lock:
            self._inflight_writes += 1
        try:
            # Resolved while counted in flight: a rebalance that starts
            # now waits for this write before it streams.
            replica_sets = list(map(self._replicas, batch.sids))
            runs_of: dict[int, list[int]] = {}
            for run, replicas in enumerate(replica_sets):
                for node_idx in replicas:
                    runs_of.setdefault(node_idx, []).append(run)
            errors = {
                node_idx: self._try_write(node_idx, batch.select(runs))
                for node_idx, runs in runs_of.items()
            }
        finally:
            with self._inflight_lock:
                self._inflight_writes -= 1
                if not self._inflight_writes:
                    self._inflight_idle.notify_all()
        failed = {node_idx for node_idx, err in errors.items() if err is not None}
        if failed:
            # A reading is lost only if its entire replica set failed;
            # hints cover partially-failed sets.
            for sid, replicas in zip(batch.sids, replica_sets):
                if all(node_idx in failed for node_idx in replicas):
                    cause = errors[replicas[0]]
                    raise StorageError(
                        f"write failed on all replicas {list(replicas)} of {sid}: {cause}"
                    ) from cause
        return len(batch)

    def latest(self, sid: SensorId) -> tuple[int, int] | None:
        """One sensor's newest row through the cluster read (:meth:`_read`)."""
        return self._read([sid], lambda node, group: {s: node.latest(s) for s in group})[sid]

    def query_many(
        self, sids, start: int, end: int
    ) -> dict[SensorId, tuple[np.ndarray, np.ndarray]]:
        """Bulk read across many sensors (duplicates collapse, input
        order kept) through the cluster read (:meth:`_read`)."""
        t0 = time.perf_counter()
        unique = list(dict.fromkeys(sids))
        results = self._read(unique, _window(start, end))
        self._observe_query("query_many", t0, detail=f"{len(unique)} sids")
        return results

    def _node_read(self, node_idx: int, sids: list[SensorId], read: _NodeRead):
        """One node's bulk ``read``; a failure is returned, not raised."""
        try:
            return read(self.nodes[node_idx], sids)
        except StorageError as exc:
            return exc

    def _live(self, node_idx: int) -> bool:
        """Heartbeat channel up and not condemned by the detector."""
        return self.nodes[node_idx].is_up and self.detector.is_alive(node_idx)

    def _read(self, sids: list[SensorId], read: _NodeRead) -> dict[SensorId, object]:
        """The one cluster read: every SID from its first answering replica.

        SIDs are grouped by their first untried replica and each group
        is read with one ``read(node, group)`` — a node ``query_many``
        for a window, so one lock round-trip per node, not one per SID.
        A failed group regroups its SIDs onto their next replica.  Live
        replicas come first in read order; replicas the failure
        detector suspects but whose heartbeat channel still answers
        come last, so a read never fails on suspicion alone.  Only a
        SID with no replica left raises.

        ``dcdb_storage_read_failovers_total`` counts, per SID, every
        replica skipped or failed before the one that served it.
        """
        self._repair_before_read()
        liveness: dict[int, int] = {}

        def rank(node_idx: int) -> int:
            """0 live, 1 suspected but answering, 2 down."""
            r = liveness.get(node_idx)
            if r is None:
                r = 0 if self._live(node_idx) else 1 if self.nodes[node_idx].is_up else 2
                liveness[node_idx] = r
            return r

        plans: dict[SensorId, tuple[tuple[int, ...], list[int]]] = {}
        for sid in sids:
            replicas = self._read_replicas(sid)
            order = sorted((idx for idx in replicas if rank(idx) < 2), key=rank)
            plans[sid] = (replicas, order)

        results: dict[SensorId, object] = {}
        tried = dict.fromkeys(sids, 0)
        pending = sids
        failovers = 0
        last_error: StorageError | None = None
        try:
            while pending:
                jobs: dict[int, list[SensorId]] = {}
                for sid in pending:
                    replicas, order = plans[sid]
                    if tried[sid] == len(order):
                        failovers += len(replicas)
                        raise StorageError(
                            f"no live replica of {sid} (tried nodes {list(replicas)})"
                        ) from last_error
                    jobs.setdefault(order[tried[sid]], []).append(sid)
                pending = []
                for node_idx, group in jobs.items():
                    outcome = self._node_read(node_idx, group, read)
                    if isinstance(outcome, StorageError):
                        last_error = outcome
                        self.detector.report_failure(
                            node_idx, hard=isinstance(outcome, NodeDownError)
                        )
                        for sid in group:
                            tried[sid] += 1
                        pending.extend(group)
                        continue
                    self.detector.report_success(node_idx)
                    self._account(node_idx, len(group))
                    results.update(outcome)
                    # Every replica ahead of a live server was skipped
                    # or failed; a suspect serves only after all were.
                    for sid in group:
                        replicas = plans[sid][0]
                        failovers += (
                            replicas.index(node_idx)
                            if rank(node_idx) == 0
                            else len(replicas)
                        )
        finally:
            if failovers:
                self._read_failovers.inc(failovers)
        return {sid: results[sid] for sid in sids}

    def query_prefix(
        self, prefix: int, levels: int, start: int, end: int
    ) -> Iterator[tuple[SensorId, np.ndarray, np.ndarray]]:
        """Scan a hierarchy subtree.

        When the prefix lies in one partition (the hierarchical
        partitioner, a query at or below the partition depth) and that
        partition is not mid-transfer, only its owner is touched
        ("directing them directly to the respective server", paper
        section 4.3).  If that owner is unavailable — or the prefix
        spans partitions — every live member scans its own subtree
        with one bulk ``query_many``.  A sensor found on several nodes
        is taken from the one ranked highest in its read order; nodes
        outside its replica set (stale copies a rebalance has not shed
        yet) rank last.  Results come in node order.
        """
        t0 = time.perf_counter()
        self._repair_before_read()
        key = self.partitioner.prefix_key(prefix, levels)
        single = None if key is None else self.membership.primary_for_partition(key)
        if single is not None and not self._live(single):
            # Owner down: replicas of its sensors live on other nodes,
            # so fall back to the full fan-out rather than erroring.
            self._read_failovers.inc()
            single = None
        candidates = [single] if single is not None else self.membership.member_indices()
        jobs: dict[int, list[SensorId]] = {}
        for node_idx in candidates:
            if not self._live(node_idx):
                continue  # down: skip, replicas cover its sensors
            try:
                jobs[node_idx] = [
                    sid for sid in self.nodes[node_idx].sids() if sid.prefix(levels) == prefix
                ]
            except StorageError:
                self._read_failovers.inc()

        window = _window(start, end)
        held: dict[SensorId, dict[int, tuple[np.ndarray, np.ndarray]]] = {}
        for node_idx, matching in jobs.items():
            outcome = self._node_read(node_idx, matching, window)
            if isinstance(outcome, StorageError):
                self._read_failovers.inc()
                continue
            self._account(node_idx)
            for sid, series in outcome.items():
                held.setdefault(sid, {})[node_idx] = series
        results: list[tuple[SensorId, np.ndarray, np.ndarray]] = []
        for sid, copies in held.items():
            if len(copies) > 1:
                preference = self._read_replicas(sid)
                best = min(
                    copies,
                    key=lambda idx: (
                        preference.index(idx)
                        if idx in preference
                        else len(preference) + idx
                    ),
                )
                ts, vals = copies[best]
            else:
                ((ts, vals),) = copies.values()
            if ts.size:
                results.append((sid, ts, vals))
        self._observe_query("query_prefix", t0, detail=f"prefix={prefix:#x}")
        return iter(results)

    def sids(self) -> list[SensorId]:
        self._repair_before_read()
        merged: set[SensorId] = set()
        for node in self._up_members():
            try:
                merged.update(node.sids())
            except StorageError:
                continue
        return sorted(merged)

    def delete_before(self, sid: SensorId, cutoff: int) -> int:
        """Delete on every replica (see :meth:`_delete_on`)."""
        return max(self._delete_on(node_idx, sid, cutoff) for node_idx in self._replicas(sid))

    def _delete_on(self, node_idx: int, sid: SensorId, cutoff: int) -> int:
        """Delete on one replica; one that cannot take it now gets the
        cutoff as a hint, replayed in order with the writes it missed,
        so its restart cannot resurrect the deleted rows."""
        node = self.nodes[node_idx]
        try:
            if not node.is_up or self._behind_hints(node_idx):
                raise StorageError(f"node {node_idx} down or owes hints")
            return node.delete_before(sid, cutoff)
        except StorageError:
            self.hints.push(node_idx, ("cutoff", sid, cutoff))
            return 0

    # -- metadata (replicated everywhere) -----------------------------------

    def put_metadata(self, key: str, value: str) -> None:
        self.put_metadata_many([(key, value)])

    def put_metadata_many(self, pairs) -> None:
        """One call per member; a member that misses the batch gets
        every pair hinted, in order with the writes around it."""
        pairs = list(pairs)
        if not pairs:
            return
        ok = 0
        for node_idx in self.membership.member_indices():
            ok += self._put_metadata_on(node_idx, pairs)
        if ok == 0:
            raise StorageError(
                f"metadata write {pairs[0][0]!r} (+{len(pairs) - 1} more) failed on every node"
            )

    def _put_metadata_on(self, node_idx: int, pairs: list[tuple[str, str]]) -> bool:
        node = self.nodes[node_idx]
        try:
            if not node.is_up or self._behind_hints(node_idx):
                raise StorageError(f"node {node_idx} down or owes hints")
            node.put_metadata_many(pairs)
            return True
        except StorageError:
            for key, value in pairs:
                self.hints.push(node_idx, ("meta", key, value))
            return False

    def get_metadata(self, key: str) -> str | None:
        return self._metadata_read(lambda node: node.get_metadata(key))

    def metadata_keys(self, prefix: str = "") -> list[str]:
        return self._metadata_read(lambda node: node.metadata_keys(prefix))

    def _metadata_read(self, fn):
        """Read from the contact node, failing over round-robin."""
        self._repair_before_read()
        members = self.membership.member_indices()
        n = len(self.nodes)
        last_error: StorageError | None = None
        for offset in range(n):
            node_idx = (self.contact_node + offset) % n
            if node_idx not in members:
                continue
            node = self.nodes[node_idx]
            if not node.is_up:
                self._read_failovers.inc()
                continue
            try:
                return fn(node)
            except StorageError as exc:
                last_error = exc
                self._read_failovers.inc()
        raise StorageError("metadata read failed on every node") from last_error

    # -- maintenance ----------------------------------------------------------

    def _up_members(self) -> list[StorageBackend]:
        """Current members whose heartbeat channel answers."""
        return [n for n in map(self.nodes.__getitem__, self.membership.member_indices()) if n.is_up]

    def compact(self) -> None:
        for node in self._up_members():
            node.compact()

    def flush(self) -> None:
        for node in self._up_members():
            node.flush()

    def commit_durable(self) -> bool:
        """Group-commit barrier across durable members.

        Forwards to every live member (the
        :class:`~repro.storage.durable.DurableNode` WAL sync; in-memory
        members have nothing to sync).  Returns True if any node synced.
        """
        synced = False
        for node in self._up_members():
            synced = node.commit_durable() or synced
        return synced

    def close(self) -> None:
        self.detector.stop()
        self._rebalancer.wait(timeout=self.rebalance_timeout_s)
        for node in self.nodes:
            node.close()

    # -- elastic membership --------------------------------------------------

    def add_node(self, node, *, wait: bool = True, timeout: float | None = None) -> int:
        """Join a new member and rebalance partitions onto it, live.

        The node is registered with the failure detector, seeded with
        the replicated metadata, and the ownership table plans which
        partitions move (one replica each, most-loaded owners cede
        first).  History streams to the new owner on a background
        thread while ingest continues: moved partitions take writes on
        the union of old and new owners and serve reads old-owner-first
        until their transfer commits, so no acked write is ever lost —
        a new owner that is briefly down during the cutover is covered
        by hinted handoff.  With ``wait=False`` the call returns as
        soon as streaming starts; use :meth:`rebalance_wait`.

        Returns the new node's index.
        """
        with self._membership_lock:
            new_idx = len(self.nodes)
            self.nodes.append(node)
            self._register_node_liveness(new_idx, node)
            slot_idx, moves = self.membership.add_slot()
            if slot_idx != new_idx:  # pragma: no cover - defensive
                raise StorageError(
                    f"membership slot {slot_idx} does not match node {new_idx}"
                )
            self._rebalancer.seed_metadata(new_idx)
        self._rebalancer.start(moves)
        if wait:
            self.rebalance_wait(timeout)
        return new_idx

    def remove_node(self, node_idx: int, *, wait: bool = True, timeout: float | None = None) -> None:
        """Drain a member out of the cluster, live.

        Every partition the member replicates is re-homed on the
        remaining nodes with the same union-write/dual-read transfer
        protocol as :meth:`add_node`; the member keeps serving reads
        and taking union writes until each of its partitions commits,
        then it is retired (its queued hints are dropped and the
        failure detector stops probing it).
        """
        with self._membership_lock:
            moves = self.membership.remove_slot(node_idx)
        self._rebalancer.start(moves, finish_idx=node_idx)
        if wait:
            self.rebalance_wait(timeout)

    def rebalance_wait(self, timeout: float | None = None) -> bool:
        """Block until background rebalances finish; True when idle."""
        return self._rebalancer.wait(timeout)

    def rebalance_stats(self) -> dict[str, float]:
        """Moved-volume accounting of all rebalances on this cluster.

        ``minimal_rows``/``minimal_bytes`` are the theoretical minimum
        (one clean pass over each moved partition); ``moved_*`` include
        re-streams after a source died mid-transfer, so the ratio
        bounds rebalance overhead.
        """
        return self._rebalancer.stats()

    # -- stats ------------------------------------------------------------------

    def _account(self, node_idx: int, count: int = 1) -> None:
        """Locality accounting: ``count`` operations served by a node
        (a bulk read counts one per SID, as looped reads would)."""
        if node_idx == self.contact_node:
            self._local_ops.inc(count)
        else:
            self._remote_ops.inc(count)

    def reset_stats(self) -> None:
        self._local_base = self._local_ops.value
        self._remote_base = self._remote_ops.value

    @property
    def row_count(self) -> int:
        """Total rows across current members (replicas counted)."""
        return sum(
            self.nodes[i].row_count for i in self.membership.member_indices()
        )
