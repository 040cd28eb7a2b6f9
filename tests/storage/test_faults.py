"""The fault-injection layer and the storage failure handling it drives.

Covers the determinism contract of :class:`FaultPlan`, transparency
and fault modes of the wrappers, and the cluster's write-availability
machinery: retry with backoff, hinted handoff, replay on recovery.
Seeds used here match the chaos suite (``CHAOS_SEEDS``).
"""

import os

import pytest

from repro.common.errors import FaultInjectedError, NodeDownError, StorageError
from repro.core.sid import SensorId
from repro.faults import BrokerFaultInjector, FaultPlan, FaultyBackend
from repro.storage import MemoryBackend, StorageCluster, StorageNode
from repro.storage.partitioner import HierarchicalPartitioner

CHAOS_SEEDS = [
    int(s) for s in os.environ.get("CHAOS_SEEDS", "101,202,303,404,505").split(",")
]


def sid(*codes):
    return SensorId.from_codes(list(codes))


def flaky_cluster(n=3, replication=2, **kwargs):
    nodes = [FaultyBackend(StorageNode(f"node{i}")) for i in range(n)]
    cluster = StorageCluster(
        nodes,
        partitioner=HierarchicalPartitioner(n, levels=2),
        replication=replication,
        sleep=lambda _s: None,
        **kwargs,
    )
    return cluster, nodes


class TestFaultPlan:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_same_seed_same_stream(self, seed):
        plan_a, plan_b = FaultPlan(seed), FaultPlan(seed)
        draws_a = [plan_a.chance("x", 0.5) for _ in range(50)]
        draws_b = [plan_b.chance("x", 0.5) for _ in range(50)]
        assert draws_a == draws_b

    def test_streams_independent(self):
        plan = FaultPlan(1)
        a = [plan.stream("a").random() for _ in range(5)]
        # Consuming stream "b" must not perturb "a"'s continuation.
        plan2 = FaultPlan(1)
        _ = [plan2.stream("b").random() for _ in range(100)]
        a2 = [plan2.stream("a").random() for _ in range(5)]
        assert a == a2

    def test_different_seeds_differ(self):
        plan_a, plan_b = FaultPlan(1), FaultPlan(2)
        a = [plan_a.chance("x", 0.5) for _ in range(64)]
        b = [plan_b.chance("x", 0.5) for _ in range(64)]
        assert a != b

    def test_schedule_pops_in_time_order(self):
        plan = FaultPlan(0)
        plan.restart_at(500, "node0")
        plan.kill_at(100, "node0")
        plan.kill_at(300, "node1")
        assert [e.action for e in plan.due(300)] == ["kill", "kill"]
        assert len(plan) == 1
        assert plan.due(499) == []
        assert [e.target for e in plan.due(500)] == ["node0"]

    def test_same_instant_fires_in_insertion_order(self):
        plan = FaultPlan(0)
        plan.kill_at(100, "node0")
        plan.restart_at(100, "node0")
        assert [e.action for e in plan.due(100)] == ["kill", "restart"]

    def test_pending_is_non_destructive(self):
        plan = FaultPlan(0)
        plan.kill_at(10, "n")
        assert [e.at_ns for e in plan.pending()] == [10]
        assert len(plan) == 1


class TestFaultyBackend:
    def test_transparent_at_rate_zero(self):
        backend = FaultyBackend(MemoryBackend(), fault_rate=0.0)
        backend.insert(sid(1, 1, 1), 1, 10)
        ts, vals = backend.query(sid(1, 1, 1), 0, 10)
        assert ts.tolist() == [1] and vals.tolist() == [10]
        assert backend.faults_injected == 0

    def test_fail_next_arms_exact_count(self):
        backend = FaultyBackend(MemoryBackend())
        backend.fail_next(2)
        with pytest.raises(FaultInjectedError):
            backend.insert(sid(1, 1, 1), 1, 10)
        with pytest.raises(FaultInjectedError):
            backend.insert_batch([(sid(1, 1, 1), 2, 20, 0)])
        backend.insert(sid(1, 1, 1), 3, 30)  # third op sails through
        assert backend.faults_injected == 2

    def test_down_mode_fails_everything_until_up(self):
        backend = FaultyBackend(MemoryBackend())
        backend.kill()
        with pytest.raises(NodeDownError):
            backend.query(sid(1, 1, 1), 0, 10)
        with pytest.raises(NodeDownError):
            backend.put_metadata("k", "v")
        backend.restart()
        backend.put_metadata("k", "v")
        assert backend.get_metadata("k") == "v"

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_fault_sequence_deterministic_per_seed(self, seed):
        def run():
            backend = FaultyBackend(
                MemoryBackend(), plan=FaultPlan(seed), fault_rate=0.3
            )
            outcomes = []
            for t in range(100):
                try:
                    backend.insert(sid(1, 1, 1), t, t)
                    outcomes.append(True)
                except FaultInjectedError:
                    outcomes.append(False)
            return outcomes

        first, second = run(), run()
        assert first == second
        assert not all(first), "rate 0.3 over 100 ops must inject something"

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            FaultyBackend(MemoryBackend(), fault_rate=1.5)


class TestFaultyNode:
    def test_kill_restart_cycle(self):
        node = FaultyBackend(StorageNode("n0"))
        node.insert(sid(1, 1, 1), 1, 10)
        node.kill()
        assert not node.is_up
        with pytest.raises(NodeDownError):
            node.insert(sid(1, 1, 1), 2, 20)
        node.restart()
        ts, _ = node.query(sid(1, 1, 1), 0, 10)
        assert ts.tolist() == [1]  # pre-kill data survives the restart
        assert node.kills == 1

    def test_up_gauge_on_node_registry(self):
        node = FaultyBackend(StorageNode("n7"))
        assert node.metrics.value("dcdb_storage_node_up", {"node": "n7"}) == 1
        node.kill()
        assert node.metrics.value("dcdb_storage_node_up", {"node": "n7"}) == 0

    def test_probabilistic_faults_deterministic(self):
        def run():
            node = FaultyBackend(StorageNode("n0"), plan=FaultPlan(7), fault_rate=0.4)
            out = []
            for t in range(60):
                try:
                    node.insert(sid(1, 1, 1), t, t)
                    out.append(True)
                except FaultInjectedError:
                    out.append(False)
            return out

        assert run() == run()


class TestBrokerFaultInjector:
    def test_armed_disconnect_fires_once(self):
        injector = BrokerFaultInjector()
        injector.disconnect_client_after("p1", chunks=2)
        assert injector.on_data("p1", b"x") is None
        assert injector.on_data("p1", b"x") is None
        assert injector.on_data("p1", b"x") == "disconnect"
        assert injector.on_data("p1", b"x") is None  # one-shot
        assert injector.disconnects == 1

    def test_wildcard_target_hits_any_client(self):
        injector = BrokerFaultInjector()
        injector.disconnect_client_after(None, chunks=0)
        assert injector.on_data("whoever", b"x") == "disconnect"

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_drop_decisions_deterministic(self, seed):
        def run():
            injector = BrokerFaultInjector(plan=FaultPlan(seed), drop_rate=0.25)
            return [injector.on_data("c", b"x") for _ in range(80)]

        first, second = run(), run()
        assert first == second
        assert "drop" in first


class TestHintedHandoff:
    def test_write_with_down_replica_queues_hint(self):
        cluster, nodes = flaky_cluster(3, replication=2)
        s = sid(1, 1, 1)
        replicas = cluster.membership.read_replicas(s)
        nodes[replicas[1]].kill()
        cluster.insert(s, 1, 10)  # succeeds: one replica is live
        assert cluster.hints_pending == 1
        assert cluster.metrics.value("dcdb_storage_hints_queued_total") == 1
        # The down replica holds nothing yet; the live one has the row.
        assert nodes[replicas[1]].row_count == 0
        assert nodes[replicas[0]].row_count == 1

    def test_replay_on_restart_repairs_replica(self):
        cluster, nodes = flaky_cluster(3, replication=2)
        s = sid(1, 1, 1)
        replicas = cluster.membership.read_replicas(s)
        nodes[replicas[1]].kill()
        for t in range(20):
            cluster.insert(s, t, t)
        nodes[replicas[1]].restart()
        replayed = cluster.replay_hints()
        assert replayed == 20
        assert cluster.hints_pending == 0
        assert cluster.metrics.value("dcdb_storage_hints_replayed_total") == 20
        # The recovered replica can now serve the complete series alone.
        nodes[replicas[0]].kill()
        ts, _ = cluster.query(s, 0, 100)
        assert ts.tolist() == list(range(20))

    def test_query_piggybacks_replay(self):
        cluster, nodes = flaky_cluster(3, replication=2)
        s = sid(1, 1, 1)
        replicas = cluster.membership.read_replicas(s)
        nodes[replicas[0]].kill()
        cluster.insert(s, 1, 10)
        nodes[replicas[0]].restart()
        # No explicit replay: the read path repairs first, then serves.
        ts, _ = cluster.query(s, 0, 10)
        assert ts.tolist() == [1]
        assert cluster.hints_pending == 0
        assert nodes[replicas[0]].row_count == 1

    def test_all_replicas_down_write_raises(self):
        cluster, nodes = flaky_cluster(3, replication=2)
        s = sid(1, 1, 1)
        for idx in cluster.membership.read_replicas(s):
            nodes[idx].kill()
        with pytest.raises(StorageError):
            cluster.insert(s, 1, 10)

    def test_transient_write_fault_retried_not_hinted(self):
        node0 = FaultyWriteOnceNode("node0")
        cluster = StorageCluster(
            [node0],
            replication=1,
            max_retries=2,
            sleep=lambda _s: None,
        )
        cluster.insert_batch([(sid(1, 1, 1), 1, 1, 0)])
        assert node0.failures == 1  # first attempt failed, retry landed
        assert cluster.hints_pending == 0
        assert cluster.metrics.value("dcdb_storage_write_retries_total") == 1

    def test_hint_capacity_evicts_oldest(self):
        cluster, nodes = flaky_cluster(2, replication=2, hint_capacity=10)
        nodes[1].kill()
        measured = []
        cluster._entry_size = lambda entry: measured.append(entry) or len(entry[1])
        s = sid(1, 1, 1)
        for t in range(25):
            cluster.insert(s, t, t)
        assert cluster.hints_pending <= 11  # capacity + at most one entry
        dropped = cluster.metrics.value("dcdb_storage_hints_dropped_total")
        assert dropped >= 14
        # Queueing measures only what it evicts (a running per-node
        # count, not a re-scan of the queue per hint) ...
        assert len(measured) == dropped
        # ... and the counts still balance after overflow: every queued
        # reading is pending, dropped, or (after the restart) replayed.
        assert cluster.metrics.value("dcdb_storage_hints_queued_total") == 25
        assert cluster.hints_pending + dropped == 25
        nodes[1].restart()
        assert cluster.replay_hints() == 25 - dropped
        assert cluster.hints_pending == 0
        assert cluster.metrics.value("dcdb_storage_hints_replayed_total") == 25 - dropped

    def test_delete_reaches_a_replica_that_was_down(self):
        # Without the hinted cutoff the restarted replica still holds
        # timestamps 0-4 and serves them once its peer is gone.
        cluster, nodes = flaky_cluster(2, replication=2)
        s = sid(1, 1, 1)
        for t in range(10):
            cluster.insert(s, t, t)
        first, second = cluster.membership.read_replicas(s)
        nodes[second].kill()
        assert cluster.delete_before(s, 5) == 5
        nodes[second].restart()
        nodes[first].kill()
        ts, _ = cluster.query(s, 0, 100)
        assert ts.tolist() == [5, 6, 7, 8, 9]
        # FIFO with data hints: a late reading written *after* a delete
        # survives it on the replica that missed both.
        nodes[first].restart()
        nodes[second].kill()
        cluster.delete_before(s, 8)
        cluster.insert(s, 6, 66)
        nodes[second].restart()
        nodes[first].kill()
        ts, vals = cluster.query(s, 0, 100)
        assert ts.tolist() == [6, 8, 9] and vals.tolist() == [66, 8, 9]
        assert cluster.hints_pending == 0

    def test_metadata_hinted_and_replayed(self):
        cluster, nodes = flaky_cluster(2, replication=2)
        nodes[1].kill()
        cluster.put_metadata("k", "v")
        assert nodes[0].get_metadata("k") == "v"
        nodes[1].restart()
        cluster.replay_hints()
        assert nodes[1].get_metadata("k") == "v"

    def test_metadata_batch_reaches_a_replica_that_was_down(self):
        # One call per member: the live node gets the batch, the dead
        # one a hint per pair — queued behind the data hint it already
        # has and replayed in that order, so within the batch (and
        # against the single put that follows) the last write wins.
        cluster, nodes = flaky_cluster(2, replication=2)
        s = sid(1, 1, 1)
        nodes[1].kill()
        cluster.insert(s, 1, 10)
        cluster.put_metadata_many([("cov/a", "1"), ("cov/b", "2"), ("cov/a", "3"), ("cov/c", "4")])
        cluster.put_metadata("cov/c", "")
        cluster.insert(s, 2, 20)
        assert nodes[0].metadata_keys("cov/") == ["cov/a", "cov/b"]
        with cluster._hints_lock:
            kinds = [entry[0] for entry in cluster._hints[1]]
        assert kinds == ["data", "meta", "meta", "meta", "meta", "meta", "data"]
        nodes[1].restart()
        assert cluster.replay_hints() == 2
        assert cluster.hints_pending == 0
        assert {k: nodes[1].get_metadata(k) for k in nodes[1].metadata_keys("cov/")} == {
            "cov/a": "3",
            "cov/b": "2",
        }
        assert nodes[1].query(s, 0, 10)[1].tolist() == [10, 20]
        # Down everywhere: the batch fails like the single put does.
        nodes[0].kill()
        nodes[1].kill()
        with pytest.raises(StorageError):
            cluster.put_metadata_many([("cov/d", "5")])

    def test_replay_is_idempotent_with_partial_success(self):
        # A replica that accepted the write but whose ack was "lost":
        # the hint replays the same timestamps; dedup keeps one copy.
        cluster, nodes = flaky_cluster(2, replication=2)
        s = sid(1, 1, 1)
        cluster.insert(s, 1, 10)
        nodes[1].kill()
        cluster.insert(s, 2, 20)
        nodes[1].backend.insert(s, 2, 20)  # sneak the write in behind the proxy
        nodes[1].restart()
        cluster.replay_hints()
        ts, vals = nodes[1].query(s, 0, 10)
        assert ts.tolist() == [1, 2] and vals.tolist() == [10, 20]


class FaultyWriteOnceNode(StorageNode):
    """A node whose first insert_batch fails, then recovers."""

    def __init__(self, name):
        super().__init__(name)
        self.failures = 0

    def insert_batch(self, items):
        if self.failures == 0:
            self.failures += 1
            raise StorageError("transient write failure")
        return super().insert_batch(items)
