"""Live partition transfer behind ``add_node``/``remove_node``.

Once the ownership table has planned the moves and bumped the epoch, a
moving partition takes writes on the union of its old and new owners
and serves reads old-owner-first while :class:`Rebalancer` streams its
history to the new owners, commits, and has the losers shed theirs.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import TYPE_CHECKING

from repro.common.errors import NodeDownError, StorageError
from repro.core.sid import SensorId
from repro.storage.backend import ReadingBatch
from repro.storage.membership import NODE_UP, PartitionMove

if TYPE_CHECKING:
    from repro.storage.cluster import StorageCluster

logger = logging.getLogger(__name__)

# Drops every row while staying inside int64 timestamp arithmetic.
_FAR_FUTURE = 1 << 62

#: Accounting size of one streamed reading (int64 ts + int64 value);
#: `dcdb_rebalance_moved_bytes_total` counts rows at this width.
_ROW_BYTES = 16


class Rebalancer:
    """Runs one cluster's partition transfers and counts their volume."""

    def __init__(self, cluster: StorageCluster) -> None:
        self.cluster = cluster
        self.nodes = cluster.nodes
        self.membership = cluster.membership
        self.hints = cluster.hints
        self._lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        # The moved volume lives in the registry counters; only what
        # has no counter is kept here.
        self._partitions_failed = 0
        self._minimal_rows = 0
        self._moved_rows = cluster.metrics.counter(
            "dcdb_rebalance_moved_rows_total",
            "Readings streamed to new owners by rebalances",
        )
        self._moved_bytes = cluster.metrics.counter(
            "dcdb_rebalance_moved_bytes_total",
            "Bytes streamed to new owners by rebalances (16 B per reading)",
        )
        self._partitions_moved = cluster.metrics.counter(
            "dcdb_rebalance_partitions_moved_total",
            "Partition transfers committed by rebalances",
        )
        self._source_failovers = cluster.metrics.counter(
            "dcdb_rebalance_source_failovers_total",
            "Partition streams restarted from another replica after a source died",
        )
        cluster.metrics.gauge(
            "dcdb_rebalance_active",
            "Partitions currently mid-transfer (union writes, dual reads)",
        ).set_function(lambda: float(self.membership.transfers_active))

    def start(self, moves: list[PartitionMove], finish_idx: int | None = None) -> None:
        """Stream ``moves`` on a background thread, then retire node
        ``finish_idx`` (if given) once every move has committed."""
        self._drain_inflight_writes()
        thread = threading.Thread(
            target=self._run, args=(moves, finish_idx), name="dcdb-rebalance", daemon=True
        )
        with self._lock:
            self._threads = [t for t in self._threads if t.is_alive()] + [thread]
        thread.start()

    def wait(self, timeout: float | None = None) -> bool:
        deadline = None if timeout is None else time.monotonic() + timeout
        for thread in list(self._threads):
            thread.join(None if deadline is None else max(0.0, deadline - time.monotonic()))
            if thread.is_alive():
                return False
        return True

    def stats(self) -> dict[str, int]:
        return {
            "partitions_moved": int(self._partitions_moved.value),
            "partitions_failed": self._partitions_failed,
            "moved_rows": int(self._moved_rows.value),
            "moved_bytes": int(self._moved_bytes.value),
            "minimal_rows": self._minimal_rows,
            "minimal_bytes": self._minimal_rows * _ROW_BYTES,
            "source_failovers": int(self._source_failovers.value),
            "active_transfers": self.membership.transfers_active,
            "epoch": self.membership.epoch,
        }

    def seed_metadata(self, new_idx: int) -> None:
        """Copy replicated metadata, read from one member, onto a
        joining node (hinted if the joiner is down)."""
        try:
            pairs = self.cluster._metadata_read(
                lambda n: [(k, n.get_metadata(k)) for k in n.metadata_keys("")]
            )
        except StorageError:
            return  # nothing readable anywhere; nothing to seed
        self.cluster._put_metadata_on(new_idx, [(k, v) for k, v in pairs if v is not None])

    def _drain_inflight_writes(self, timeout: float = 5.0) -> None:
        """Wait out writes routed under the pre-bump epoch.

        After an epoch bump the replica cache is already cleared, but a
        write that resolved its replica set just before the bump may
        still be in flight to the old owners only.  Streaming snapshots
        the source after this barrier, so those writes are included.
        """
        cluster = self.cluster
        with cluster._inflight_idle:
            if not cluster._inflight_idle.wait_for(lambda: not cluster._inflight_writes, timeout):
                logger.warning(
                    "rebalance starts with %d writes still in flight after %.1fs",
                    cluster._inflight_writes,
                    timeout,
                )

    def _failed(self) -> None:
        with self._lock:
            self._partitions_failed += 1

    def _run(self, moves: list[PartitionMove], finish_idx: int | None) -> None:
        committed = 0
        for move in moves:
            try:
                committed += self._transfer_partition(move)
            except Exception:  # noqa: BLE001 - worker must not die silently
                logger.exception("transfer of partition %#x failed", move.partition)
                self._failed()
        if finish_idx is not None and committed == len(moves):
            self.hints.drop(finish_idx)
            self.membership.finish_remove(finish_idx)
            self.cluster.detector.deregister(finish_idx)

    def _partition_sids(self, move: PartitionMove) -> list[SensorId] | None:
        """Sensors of the moving partition, listed from a live old owner."""
        for src in move.old_replicas:
            node = self.nodes[src]
            if not node.is_up:
                continue
            try:
                return [s for s in node.sids() if self.membership.partition_of(s) == move.partition]
            except StorageError:
                continue
        return None

    def _transfer_partition(self, move: PartitionMove) -> bool:
        """Stream one partition to its new owners, then commit.

        Returns False (leaving the transfer open — union writes and
        dual reads stay in force, so nothing is lost) when no source
        replica becomes reachable within the rebalance timeout.
        """
        deadline = time.monotonic() + self.cluster.rebalance_timeout_s
        while (sids := self._partition_sids(move)) is None:
            if time.monotonic() > deadline:
                logger.warning(
                    "no reachable source for partition %#x; transfer stays open",
                    move.partition,
                )
                self._failed()
                return False
            time.sleep(0.01)
        for target in move.gaining:
            for sid in sids:
                if not self._stream_sid(move, sid, target, deadline):
                    self._failed()
                    return False
        self._reroute_hints(move)
        self.membership.commit_transfer(move.partition)
        self._partitions_moved.inc()
        # Losing replicas shed the moved rows so stale copies cannot
        # outlive the transfer; one that cannot now owes the delete as
        # a hint, ordered before whatever it is owed later (this
        # partition's history, should it move back).
        for loser in move.losing:
            if self.membership.slot_state(loser) != NODE_UP:
                continue  # a leaving node's copy dies with the node
            for sid in sids:
                self.cluster._delete_on(loser, sid, _FAR_FUTURE)
        return True

    def _stream_sid(
        self, move: PartitionMove, sid: SensorId, target: int, deadline: float
    ) -> bool:
        """Stream one sensor's history to ``target``, retrying sources.

        Chunks land through the coordinator's replica write, so a
        target that is briefly down during the cutover gets its chunks
        as hints — the same machinery that protects live writes.  If
        the source dies mid-stream the whole sensor is re-streamed from
        the next live old replica (last-write-wins dedup on the target
        makes the replay idempotent); only the final clean pass counts
        toward the theoretical-minimum accounting.
        """
        cluster = self.cluster
        attempt_sources = [s for s in move.old_replicas if s != target]
        first_try = True
        while True:
            for src in attempt_sources:
                node = self.nodes[src]
                if not node.is_up:
                    continue
                if not first_try:
                    self._source_failovers.inc()
                rows = 0
                try:
                    chunks = node.stream_rows(sid, cluster.rebalance_chunk_rows)
                    for chunk_no, chunk in enumerate(chunks):
                        hook = cluster.rebalance_fault_hook
                        if hook is not None:
                            hook(move.partition, src, target, chunk_no)
                        cluster._try_write(target, chunk)
                        rows += len(chunk)
                        self._moved_rows.inc(len(chunk))
                        self._moved_bytes.inc(len(chunk) * _ROW_BYTES)
                except StorageError as exc:
                    cluster.detector.report_failure(src, hard=isinstance(exc, NodeDownError))
                    first_try = False
                    continue
                with self._lock:
                    self._minimal_rows += rows
                return True
            if time.monotonic() > deadline:
                logger.warning("no reachable source left for %s; transfer stays open", sid)
                return False
            first_try = False
            time.sleep(0.01)

    def _reroute_hints(self, move: PartitionMove) -> None:
        """Re-home hints a losing replica holds for the moved partition.

        A hint queued for the old owner while it was down is a write
        the new owner must also see; delivering it there (before the
        transfer commits) keeps the cutover lossless even when the old
        owner never comes back.
        """
        for loser in move.losing:
            moved = self.hints.take(
                loser, lambda s: self.membership.partition_of(s) == move.partition
            )
            if moved:
                batch = ReadingBatch.concat(moved)
                for target in move.gaining:
                    self.cluster._try_write(target, batch)
