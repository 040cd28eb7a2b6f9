"""Tests for elastic membership: ownership table, failure detector,
and the cluster-level wiring (bounded replica cache, epoch
invalidation, rollup co-location).

Liveness timing here runs on a manual fake clock so phi accrual and
detection latency are asserted deterministically; the end-to-end
chaos behavior lives in ``tests/integration/test_chaos_rebalance.py``.
"""

import logging
import threading
import time

import pytest

from repro.common.errors import StorageError
from repro.core.sid import SensorId
from repro.faults import FaultyBackend
from repro.storage import cluster as cluster_module
from repro.storage.cluster import StorageCluster
from repro.storage.membership import (
    NODE_DOWN,
    NODE_REMOVED,
    NODE_SUSPECT,
    NODE_UP,
    ClusterMembership,
    FailureDetector,
)
from repro.storage.node import StorageNode
from repro.storage.partitioner import HashPartitioner, HierarchicalPartitioner
from repro.storage.rollup import rollup_sid


def sid(*codes):
    return SensorId.from_codes(list(codes))


NS = 1_000_000_000


class FakeClock:
    def __init__(self, now=0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, ns):
        self.now += ns


# -- ownership table ---------------------------------------------------------


class TestOwnershipTable:
    def make(self, n=3, replication=2, levels=2):
        part = HierarchicalPartitioner(n, levels=levels)
        return ClusterMembership(part, replication), part

    def seed(self, membership, subtrees=6):
        """Touch ``subtrees`` distinct partitions in first-seen order."""
        sids = [sid(1, i, 1) for i in range(1, subtrees + 1)]
        for s in sids:
            membership.write_replicas(s)
        return sids

    def test_static_phase_matches_partitioner(self):
        """With every node up, first-seen round-robin is the ring walk:
        the i-th new partition lands on node i % n plus its successor."""
        membership, part = self.make()
        sids = self.seed(membership)
        for i, s in enumerate(sids):
            replicas, cacheable = membership.write_replicas(s)
            assert cacheable
            assert replicas == (i % 3, (i + 1) % 3)
            assert membership.read_replicas(s) == replicas
        assert membership.epoch == 1

    def test_materialization_preserves_static_placement(self):
        """A join leaves every partition it does not move where it was."""
        membership, part = self.make()
        sids = self.seed(membership)
        static = {s: membership.write_replicas(s)[0] for s in sids}
        _, moves = membership.add_slot()
        # Partitions that did not move keep their exact replica set.
        moved = {m.partition for m in moves}
        untouched = 0
        for s in sids:
            if part.partition_key(s) in moved:
                continue
            untouched += 1
            replicas, _ = membership.write_replicas(s)
            assert replicas == static[s]
        assert untouched > 0

    def test_add_slot_balances_and_bumps_epoch(self):
        membership, part = self.make(n=3, replication=2)
        self.seed(membership, subtrees=6)
        epoch0 = membership.epoch
        new_idx, moves = membership.add_slot()
        assert new_idx == 3
        assert membership.epoch > epoch0
        assert moves, "joining a loaded cluster must move partitions"
        for move in moves:
            membership.commit_transfer(move.partition)
        counts = membership.ownership_counts()
        # 6 partitions x 2 replicas over 4 nodes -> 3 each.
        assert counts == {0: 3, 1: 3, 2: 3, 3: 3}
        assert membership.transfers_active == 0

    def test_union_writes_and_old_first_reads_during_transfer(self):
        membership, part = self.make(n=3, replication=2)
        sids = self.seed(membership, subtrees=6)
        membership.add_slot()
        moved = set(membership.pending_transfers())
        assert moved
        hit = False
        for s in sids:
            key = part.partition_key(s)
            if key not in moved:
                continue
            hit = True
            replicas, cacheable = membership.write_replicas(s)
            assert not cacheable, "mid-transfer placement must not be cached"
            reads = membership.read_replicas(s)
            entry = membership.table_snapshot()[key]
            # Union covers both old and new owners; reads try old first.
            assert set(entry) <= set(replicas)
            assert reads[0] not in set(entry) - set(reads)
            assert set(reads) == set(replicas)
        assert hit

    def test_commit_collapses_to_new_owners(self):
        membership, part = self.make(n=3, replication=2)
        sids = self.seed(membership, subtrees=6)
        _, moves = membership.add_slot()
        move = moves[0]
        membership.commit_transfer(move.partition)
        key_sid = next(
            s for s in sids if part.partition_key(s) == move.partition
        )
        replicas, cacheable = membership.write_replicas(key_sid)
        assert cacheable
        assert replicas == move.new_replicas

    def test_remove_slot_drains_and_finishes(self):
        membership, part = self.make(n=3, replication=2)
        self.seed(membership, subtrees=6)
        moves = membership.remove_slot(0)
        assert membership.slot_state(0) == "leaving"
        assert all(0 in m.old_replicas and 0 not in m.new_replicas for m in moves)
        for m in moves:
            membership.commit_transfer(m.partition)
        membership.finish_remove(0)
        assert membership.slot_state(0) == NODE_REMOVED
        assert 0 not in membership.ownership_counts()
        counts = membership.ownership_counts()
        assert sum(counts.values()) == 12  # 6 partitions x 2 replicas

    def test_remove_last_active_node_rejected(self):
        membership, part = self.make(n=1, replication=1)
        self.seed(membership, subtrees=2)
        with pytest.raises(StorageError, match="last active"):
            membership.remove_slot(0)

    def test_remove_twice_rejected(self):
        membership, part = self.make(n=3)
        self.seed(membership)
        membership.remove_slot(1)
        with pytest.raises(StorageError, match="already"):
            membership.remove_slot(1)

    def test_new_partition_first_seen_after_elastic(self):
        membership, part = self.make(n=3, replication=2)
        self.seed(membership, subtrees=3)
        _, moves = membership.add_slot()
        for m in moves:
            membership.commit_transfer(m.partition)
        fresh = sid(9, 9, 9)
        replicas, cacheable = membership.write_replicas(fresh)
        assert cacheable
        assert len(replicas) == 2
        assert set(replicas) <= set(membership.active_indices())
        # Deterministic: asking again returns the same assignment.
        again, _ = membership.write_replicas(fresh)
        assert again == replicas

    def test_epoch_listener_fires_on_every_mutation(self):
        membership, part = self.make()
        self.seed(membership)
        epochs = []
        membership.on_epoch_change(epochs.append)
        _, moves = membership.add_slot()
        for m in moves:
            membership.commit_transfer(m.partition)
        assert len(epochs) == 1 + len(moves)
        assert epochs == sorted(epochs)


# -- failure detector --------------------------------------------------------


class TestFailureDetector:
    def make(self, nodes=3, **kwargs):
        clock = FakeClock()
        detector = FailureDetector(clock=clock, interval_s=0.5, **kwargs)
        flags = [True] * nodes
        for i in range(nodes):
            detector.register(f"node{i}", lambda i=i: flags[i])
        return detector, clock, flags

    def test_all_up_initially(self):
        detector, clock, flags = self.make()
        assert detector.liveness_snapshot() == [True, True, True]
        assert [s["state"] for s in detector.states()] == [NODE_UP] * 3

    def test_detection_latency_one_probe(self):
        """A crash is condemned by the very next heartbeat round."""
        detector, clock, flags = self.make()
        detector.probe(clock())
        flags[1] = False
        clock.advance(NS // 2)
        detector.probe(clock())
        assert detector.state(1) == NODE_DOWN
        assert not detector.is_alive(1)
        assert detector.phi(1) == float("inf")
        # The healthy nodes are untouched.
        assert detector.is_alive(0) and detector.is_alive(2)

    def test_phi_accrues_with_silence(self):
        detector, clock, flags = self.make()
        # Establish a steady 0.5s cadence.
        for _ in range(8):
            clock.advance(NS // 2)
            detector.probe(clock())
        phi_fresh = detector.phi(1, clock())
        clock.advance(10 * NS)
        assert detector.phi(1, clock()) > phi_fresh
        assert detector.phi(1, clock()) > detector.phi_suspect

    def test_idle_cluster_never_condemned_without_probing(self):
        """No heartbeat traffic => no phi condemnation (read-only or
        freshly built clusters must not drift into false suspicion)."""
        detector, clock, flags = self.make()
        clock.advance(3600 * NS)
        assert detector.liveness_snapshot() == [True, True, True]
        assert [s["state"] for s in detector.states()] == [NODE_UP] * 3

    def test_soft_failures_suspect_but_stay_routable(self):
        """False-positive containment: a transient error raises
        suspicion, it does not evict the node from the read/write
        paths (only DOWN or a phi pile-up does)."""
        detector, clock, flags = self.make()
        detector.probe(clock())
        for _ in range(3):
            detector.report_failure(1)
        assert detector.state(1) == NODE_SUSPECT
        assert detector.is_alive(1), "isolated soft failures must not evict"
        # A single success clears the suspicion entirely.
        detector.report_success(1)
        assert detector.state(1) == NODE_UP
        assert detector.phi(1, clock()) < detector.phi_suspect

    def test_soft_failure_pileup_condemns_then_probe_recovers(self):
        """Consecutive unacknowledged failures eventually accrue past
        phi_down — but the node is never stranded: the next heartbeat
        that finds it up restores full liveness."""
        detector, clock, flags = self.make()
        detector.probe(clock())
        for _ in range(10):
            detector.report_failure(1)
        assert not detector.is_alive(1)
        assert detector.state(1) == NODE_SUSPECT, "soft evidence never marks DOWN"
        clock.advance(NS // 2)
        detector.probe(clock())
        assert detector.is_alive(1)
        assert detector.state(1) == NODE_UP

    def test_hard_failure_condemns_immediately(self):
        detector, clock, flags = self.make()
        detector.report_failure(1, hard=True)
        assert detector.state(1) == NODE_DOWN
        assert not detector.is_alive(1)

    def test_success_resurrects_down_node(self):
        detector, clock, flags = self.make()
        detector.report_failure(1, hard=True)
        detector.report_success(1)
        assert detector.state(1) == NODE_UP
        assert detector.is_alive(1)

    def test_deregistered_node_stays_removed(self):
        detector, clock, flags = self.make()
        detector.deregister(2)
        detector.probe(clock())
        detector.report_success(2)
        assert detector.state(2) == NODE_REMOVED
        assert not detector.is_alive(2)

    def test_states_capped_phi_for_json(self):
        detector, clock, flags = self.make()
        detector.report_failure(0, hard=True)
        states = detector.states()
        assert states[0]["phi"] == 99.0
        assert states[0]["state"] == NODE_DOWN
        assert all(isinstance(s["phi"], float) for s in states)

    def test_background_thread_starts_and_stops(self):
        detector = FailureDetector(interval_s=0.01)
        detector.register("n0", lambda: True)
        detector.start()
        detector.start()  # idempotent
        import time as _time

        deadline = _time.monotonic() + 2.0
        while detector.probes_total == 0 and _time.monotonic() < deadline:
            _time.sleep(0.005)
        detector.stop()
        assert detector.probes_total > 0
        assert detector.is_alive(0)


# -- cluster wiring ----------------------------------------------------------


def make_cluster(n=3, replication=2, partitioner=HierarchicalPartitioner, **kwargs):
    nodes = [StorageNode(f"node{i}") for i in range(n)]
    part = (
        HierarchicalPartitioner(n, levels=2)
        if partitioner is HierarchicalPartitioner
        else partitioner(n)
    )
    return StorageCluster(nodes, partitioner=part, replication=replication, **kwargs)


class TestClusterWiring:
    def test_replica_cache_bounded(self, monkeypatch):
        monkeypatch.setattr(cluster_module, "_REPLICA_CACHE_MAX", 4)
        cluster = make_cluster()
        for i in range(1, 10):
            cluster.insert(sid(1, i, 1), i, i)
        assert len(cluster._replica_cache) <= 4
        gauge = cluster.metrics.value("dcdb_cluster_replica_cache_entries")
        assert gauge == len(cluster._replica_cache)

    def test_epoch_change_clears_replica_cache(self):
        cluster = make_cluster()
        for i in range(1, 5):
            cluster.insert(sid(1, i, 1), i, i)
        assert cluster._replica_cache
        cluster.add_node(StorageNode("node3"))
        # The epoch bumps invalidated every cached placement; whatever
        # is cached now was re-derived from the current table.
        assert cluster.membership.epoch > 1
        for s, cached in list(cluster._replica_cache.items()):
            assert cached == cluster._replicas(s)
        assert cluster.metrics.value("dcdb_cluster_epoch") == cluster.membership.epoch
        cluster.close()

    def test_rollup_sid_shares_partition_with_raw(self):
        """Derived rollup series must co-locate with their raw sensor so
        a partition move carries both (tier reads stay node-local)."""
        cluster = make_cluster()
        raw = sid(1, 2, 3)
        derived = rollup_sid(raw, 1, 0)
        assert derived is not None
        key = cluster.membership.partition_of(raw)
        assert cluster.membership.partition_of(derived) == key
        assert cluster._replicas(raw) == cluster._replicas(derived)
        cluster.add_node(StorageNode("node3"))
        assert cluster._replicas(raw) == cluster._replicas(derived)
        cluster.close()

    def test_node_states_reports_detector_detail(self):
        nodes = [FaultyBackend(StorageNode(f"node{i}")) for i in range(3)]
        part = HierarchicalPartitioner(3, levels=2)
        cluster = StorageCluster(
            nodes, partitioner=part, replication=2, sleep=lambda _s: None
        )
        nodes[1].kill()
        cluster.detector.probe(0)
        states = cluster.node_states()
        assert [s["node"] for s in states] == ["node0", "node1", "node2"]
        assert states[1]["state"] == NODE_DOWN
        assert states[0]["state"] == NODE_UP
        live, total = cluster.node_liveness()
        assert (live, total) == (2, 3)
        cluster.close()

    def test_node_state_gauges_exported(self):
        cluster = make_cluster()
        families = {}
        for family in cluster.metrics.collect():
            if family.name == "dcdb_cluster_node_state":
                for sample in family.samples:
                    labels = dict(sample.labels)
                    families[(labels["node"], labels["state"])] = sample.value
        assert families[("node0", "up")] == 1.0
        assert families[("node0", "down")] == 0.0
        assert families[("node2", "suspect")] == 0.0
        cluster.close()

    def test_joiner_metadata_seeded_in_one_batch(self):
        class CountingNode(StorageNode):
            batches = 0

            def put_metadata_many(self, pairs):
                CountingNode.batches += 1
                super().put_metadata_many(pairs)

        cluster = make_cluster(n=2, replication=2)
        expected = {f"sidmap/t{i}": str(i) for i in range(40)}
        cluster.put_metadata_many(expected.items())
        joiner = CountingNode("joiner")
        cluster.add_node(joiner)
        assert CountingNode.batches == 1  # not one commit per key
        assert {k: joiner.get_metadata(k) for k in joiner.metadata_keys("")} == expected
        # A joiner that is down when it joins gets every key hinted.
        late = FaultyBackend(StorageNode("late"))
        late.kill()
        idx = cluster.add_node(late)
        late.restart()
        cluster.replay_hints(idx)
        assert {k: late.get_metadata(k) for k in late.metadata_keys("")} == expected
        cluster.close()

    def test_rebalance_waits_out_inflight_writes(self, caplog):
        entered, release = threading.Event(), threading.Event()

        class SlowNode(StorageNode):
            def insert_batch(self, items):
                entered.set()
                release.wait(5)
                return super().insert_batch(items)

        cluster = StorageCluster([SlowNode("node0")], replication=1)
        writer = threading.Thread(target=cluster.insert, args=(sid(1, 1, 1), 1, 1))
        writer.start()
        assert entered.wait(5)
        drain = cluster._rebalancer._drain_inflight_writes
        with caplog.at_level(logging.WARNING, logger="repro.storage.rebalance"):
            drain(timeout=0.05)
        assert "1 writes still in flight" in caplog.text
        # The barrier wakes when the write completes, not at its timeout.
        threading.Timer(0.05, release.set).start()
        t0 = time.monotonic()
        drain(timeout=10)
        assert time.monotonic() - t0 < 5
        writer.join(5)
        assert not writer.is_alive()
        assert cluster.row_count == 1
        cluster.close()

    @pytest.mark.parametrize(
        "partitioner", [HierarchicalPartitioner, HashPartitioner], ids=["hier", "hash"]
    )
    def test_mixed_durability_add_remove_round_trip(self, partitioner):
        """End-to-end sanity on plain nodes: grow then shrink, data and
        placement stay consistent throughout.  Hash buckets move like
        any other partition."""
        cluster = make_cluster(n=3, replication=2, partitioner=partitioner)
        items = [(sid(1, i, 1), t, t * i, 0) for i in range(1, 7) for t in range(50)]
        cluster.insert_batch(items)
        baseline = {
            s: cluster.query(s, 0, 1 << 60)[1].tolist()
            for s in cluster.sids()
        }
        idx = cluster.add_node(StorageNode("node3"))
        assert idx == 3
        stats = cluster.rebalance_stats()
        assert stats["partitions_failed"] == 0
        assert stats["moved_bytes"] <= 1.25 * max(stats["minimal_bytes"], 1)
        for s, vals in baseline.items():
            assert cluster.query(s, 0, 1 << 60)[1].tolist() == vals
        cluster.remove_node(0)
        assert cluster.membership.slot_state(0) == NODE_REMOVED
        for s, vals in baseline.items():
            assert cluster.query(s, 0, 1 << 60)[1].tolist() == vals
        # Every logical row exists exactly `replication` times — the
        # losing copies were shed, nothing was duplicated or dropped.
        assert cluster.row_count == 2 * len(items)
        cluster.close()


def flaky_members(n):
    nodes = [FaultyBackend(StorageNode(f"node{i}")) for i in range(n)]
    cluster = StorageCluster(
        nodes,
        partitioner=HierarchicalPartitioner(n, levels=2),
        replication=2,
        sleep=lambda _s: None,
    )
    items = [(sid(1, i, 1), t, t * i, 0) for i in range(1, 4) for t in range(10)]
    cluster.insert_batch(items)
    return cluster, nodes, items


class TestLosingReplicaRepair:
    """A losing replica that is down when its transfer commits sheds
    its stale copy through its hint queue, in order with its writes."""

    def test_down_loser_sheds_its_copy_after_restart(self):
        cluster, nodes, items = flaky_members(2)
        nodes[0].kill()
        cluster.add_node(FaultyBackend(StorageNode("node2")))
        nodes[0].restart()
        cluster.sids()  # one read: the repair pass
        assert cluster.row_count == cluster.replication * len(items)
        cluster.close()

    def test_moved_back_history_waits_for_the_owed_cleanup(self):
        # As below, but node0 restarts before the subtree moves back
        # and no read replays its hints: the history streamed back to
        # it by direct writes must still land after the owed cleanup.
        cluster, nodes, items = flaky_members(2)
        nodes[0].kill()
        cluster.add_node(FaultyBackend(StorageNode("node2")))
        nodes[0].restart()
        cluster.remove_node(2)
        cluster.sids()
        nodes[1].kill()
        for i in range(1, 4):
            ts, vals = cluster.query(sid(1, i, 1), 0, 1 << 60)
            assert ts.tolist() == list(range(10))
            assert vals.tolist() == [t * i for t in range(10)]
        cluster.close()

    def test_moved_back_history_survives_the_stale_copy_cleanup(self):
        # Subtree 0x10002 leaves node0 while it is down (a cleanup for
        # node0 is owed), then comes back to it (its history is owed as
        # hints).  The cleanup was owed first, so it must land first:
        # node0 ends up owning the subtree with all ten rows.
        cluster, nodes, items = flaky_members(2)
        nodes[0].kill()
        cluster.add_node(FaultyBackend(StorageNode("node2")))
        cluster.remove_node(2)
        nodes[0].restart()
        cluster.sids()
        nodes[1].kill()
        for i in range(1, 4):
            ts, vals = cluster.query(sid(1, i, 1), 0, 1 << 60)
            assert ts.tolist() == list(range(10))
            assert vals.tolist() == [t * i for t in range(10)]
        cluster.close()
