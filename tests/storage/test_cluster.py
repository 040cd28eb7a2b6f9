"""Tests for the distributed storage cluster."""

import threading

import pytest

from repro.common.errors import NodeDownError, StorageError
from repro.core.sid import SensorId
from repro.faults import FaultyBackend
from repro.storage import cluster as cluster_module
from repro.storage.cluster import StorageCluster
from repro.storage.node import StorageNode
from repro.storage.partitioner import HashPartitioner, HierarchicalPartitioner


def sid(*codes):
    return SensorId.from_codes(list(codes))


def make_cluster(n=3, replication=1, partitioner=None):
    nodes = [StorageNode(f"node{i}") for i in range(n)]
    part = partitioner if partitioner is not None else HierarchicalPartitioner(n, levels=2)
    return StorageCluster(nodes, partitioner=part, replication=replication)


def make_flaky_cluster(n=3, replication=2, **kwargs):
    """A cluster whose members can be killed/restarted, no retry sleeps."""
    nodes = [FaultyBackend(StorageNode(f"node{i}")) for i in range(n)]
    part = HierarchicalPartitioner(n, levels=2)
    cluster = StorageCluster(
        nodes, partitioner=part, replication=replication,
        sleep=lambda _s: None, **kwargs,
    )
    return cluster, nodes


class TestRouting:
    def test_insert_lands_on_owner(self):
        cluster = make_cluster(3)
        s = sid(1, 1, 1)
        cluster.insert(s, 1, 10)
        owner = cluster.membership.read_replicas(s)[0]
        assert cluster.nodes[owner].row_count == 1
        for i, node in enumerate(cluster.nodes):
            if i != owner:
                assert node.row_count == 0

    def test_query_roundtrips(self):
        cluster = make_cluster(3)
        s = sid(1, 2, 3)
        cluster.insert(s, 5, 50)
        ts, vals = cluster.query(s, 0, 10)
        assert ts.tolist() == [5] and vals.tolist() == [50]

    def test_batch_grouped_by_owner(self):
        cluster = make_cluster(3)
        items = [(sid(1, i, 1), t, t, 0) for i in range(1, 4) for t in range(10)]
        assert cluster.insert_batch(items) == 30
        assert cluster.row_count == 30

    def test_pinned_replica_table(self):
        """8 subtrees first seen in a fixed order on 3 nodes, RF 2: the
        i-th new subtree lands on node i % 3 and its ring successor, and
        every later read or write of the subtree resolves to that pair."""
        cluster = make_cluster(3, replication=2)
        order = [5, 2, 7, 1, 8, 3, 6, 4]
        for rack in order:
            cluster.insert(sid(1, rack, 1), 1, rack)
        table = {
            rack: cluster.membership.read_replicas(sid(1, rack, 9)) for rack in order
        }
        assert table == {
            5: (0, 1),
            2: (1, 2),
            7: (2, 0),
            1: (0, 1),
            8: (1, 2),
            3: (2, 0),
            6: (0, 1),
            4: (1, 2),
        }
        for rack, replicas in table.items():
            holders = [
                idx
                for idx, node in enumerate(cluster.nodes)
                if node.query(sid(1, rack, 1), 0, 10)[0].size
            ]
            assert tuple(sorted(holders)) == tuple(sorted(replicas))

    def test_sids_merged_across_nodes(self):
        cluster = make_cluster(3)
        sids = [sid(1, i, 1) for i in range(1, 5)]
        for s in sids:
            cluster.insert(s, 1, 1)
        assert cluster.sids() == sorted(sids)


class TestReplication:
    def test_replicas_hold_copies(self):
        cluster = make_cluster(3, replication=2)
        s = sid(1, 1, 1)
        cluster.insert(s, 1, 10)
        holders = [n for n in cluster.nodes if n.row_count == 1]
        assert len(holders) == 2

    def test_replication_capped(self):
        cluster = make_cluster(2, replication=5)
        assert cluster.replication == 2

    def test_invalid_replication_rejected(self):
        with pytest.raises(StorageError):
            make_cluster(2, replication=0)

    def test_delete_before_applies_to_replicas(self):
        cluster = make_cluster(3, replication=2)
        s = sid(1, 1, 1)
        for t in range(10):
            cluster.insert(s, t, t)
        cluster.delete_before(s, 5)
        for node in cluster.nodes:
            ts, _ = node.query(s, 0, 100)
            assert all(t >= 5 for t in ts.tolist())


class TestPrefixScan:
    def test_hierarchical_scan_touches_one_node(self):
        cluster = make_cluster(4)
        for leaf in range(1, 6):
            cluster.insert(sid(1, 1, leaf), 1, leaf)
        for leaf in range(1, 4):
            cluster.insert(sid(1, 2, leaf), 1, leaf)
        cluster.reset_stats()
        prefix = sid(1, 1).value
        results = list(cluster.query_prefix(prefix, 2, 0, 10))
        assert len(results) == 5
        # query_prefix accounts once per node touched; the hierarchical
        # partitioner confines the scan to the single owning node.
        assert cluster.local_ops + cluster.remote_ops == 1

    def test_hierarchical_vs_hash_locality(self):
        # The ablation claim: hierarchical partitioning confines a
        # subtree scan to one node; hashing fans out to all.
        for partitioner_cls, expect_single in (
            (HierarchicalPartitioner, True),
            (HashPartitioner, False),
        ):
            nodes = [StorageNode(f"n{i}") for i in range(4)]
            part = (
                partitioner_cls(4, levels=2)
                if partitioner_cls is HierarchicalPartitioner
                else partitioner_cls(4)
            )
            cluster = StorageCluster(nodes, partitioner=part)
            for leaf in range(1, 40):
                cluster.insert(sid(1, 1, leaf), 1, leaf)
            touched = set()
            original_account = cluster._account

            def tracking_account(idx):
                touched.add(idx)
                original_account(idx)

            cluster._account = tracking_account
            results = list(cluster.query_prefix(sid(1, 1).value, 2, 0, 10))
            assert len(results) == 39
            if expect_single:
                assert len(touched) == 1
            else:
                assert len(touched) == 4

    def test_scan_deduplicates_replicas(self):
        cluster = make_cluster(3, replication=3)
        cluster.insert(sid(1, 1, 1), 1, 1)
        results = list(cluster.query_prefix(sid(1, 1).value, 2, 0, 10))
        assert len(results) == 1


class TestReadFailover:
    """Regression for the "first live replica" comment: query() now
    really checks liveness instead of reading replica[0] blindly."""

    def test_query_falls_back_with_first_replica_down(self):
        cluster, nodes = make_flaky_cluster(3, replication=2)
        s = sid(1, 1, 1)
        cluster.insert(s, 5, 50)
        first = cluster.membership.read_replicas(s)[0]
        nodes[first].kill()
        ts, vals = cluster.query(s, 0, 10)  # served by the second replica
        assert ts.tolist() == [5] and vals.tolist() == [50]
        assert cluster.metrics.value("dcdb_storage_read_failovers_total") == 1

    def test_query_all_replicas_down_raises(self):
        cluster, nodes = make_flaky_cluster(3, replication=2)
        s = sid(1, 1, 1)
        cluster.insert(s, 5, 50)
        for idx in cluster.membership.read_replicas(s):
            nodes[idx].kill()
        with pytest.raises(StorageError, match="no live replica"):
            cluster.query(s, 0, 10)

    def test_direct_read_on_down_node_raises_node_down(self):
        cluster, nodes = make_flaky_cluster(2, replication=2)
        nodes[0].kill()
        with pytest.raises(NodeDownError):
            nodes[0].query(sid(1, 1, 1), 0, 10)

    def test_prefix_scan_survives_owner_down(self):
        cluster, nodes = make_flaky_cluster(4, replication=2)
        for leaf in range(1, 6):
            cluster.insert(sid(1, 1, leaf), 1, leaf)
        owner = cluster.membership.read_replicas(sid(1, 1))[0]
        nodes[owner].kill()
        results = list(cluster.query_prefix(sid(1, 1).value, 2, 0, 10))
        assert len(results) == 5  # replicas on other nodes cover the subtree

    def test_metadata_read_falls_back_from_contact(self):
        cluster, nodes = make_flaky_cluster(3, replication=2)
        cluster.put_metadata("k", "v")
        nodes[cluster.contact_node].kill()
        assert cluster.get_metadata("k") == "v"
        assert cluster.metadata_keys() == ["k"]


class TestMetadata:
    def test_metadata_replicated_everywhere(self):
        cluster = make_cluster(3)
        cluster.put_metadata("key", "value")
        for node in cluster.nodes:
            assert node.get_metadata("key") == "value"

    def test_metadata_readable_from_contact(self):
        cluster = make_cluster(3)
        cluster.put_metadata("a/b", "1")
        assert cluster.get_metadata("a/b") == "1"
        assert cluster.metadata_keys("a/") == ["a/b"]

    def test_delete_metadata(self):
        cluster = make_cluster(2)
        cluster.put_metadata("gone", "1")
        cluster.delete_metadata("gone")
        assert cluster.get_metadata("gone") is None


class TestStats:
    def test_locality_counters(self):
        cluster = make_cluster(2, partitioner=HierarchicalPartitioner(2, levels=2))
        cluster.insert(sid(1, 1, 1), 1, 1)  # first prefix -> node 0 (contact)
        cluster.insert(sid(1, 2, 1), 1, 1)  # second prefix -> node 1
        assert cluster.local_ops == 1
        assert cluster.remote_ops == 1
        cluster.reset_stats()
        assert cluster.local_ops == cluster.remote_ops == 0

    def test_mismatched_partitioner_rejected(self):
        with pytest.raises(StorageError, match="sized for"):
            StorageCluster(
                [StorageNode("a")], partitioner=HierarchicalPartitioner(3)
            )


class TestQueryMany:
    def test_matches_looped_query(self):
        cluster = make_cluster(3, replication=2)
        sids = [sid(1, i, j) for i in range(1, 4) for j in range(1, 5)]
        for k, s in enumerate(sids):
            for t in range(10):
                cluster.insert(s, t, t + k * 100)
        result = cluster.query_many(sids, 2, 7)
        assert list(result) == sids  # input order preserved
        for s in sids:
            ts, vals = cluster.query(s, 2, 7)
            assert result[s][0].tolist() == ts.tolist()
            assert result[s][1].tolist() == vals.tolist()

    def test_duplicate_and_unknown_sids(self):
        cluster = make_cluster(2)
        s = sid(1, 1, 1)
        unknown = sid(1, 2, 1)
        cluster.insert(s, 1, 10)
        result = cluster.query_many([s, s, unknown], 0, 10)
        assert list(result) == [s, unknown]  # duplicates collapse
        assert result[s][1].tolist() == [10]
        assert result[unknown][0].size == 0

    def test_failover_to_live_replica(self):
        cluster, nodes = make_flaky_cluster(3, replication=2)
        s = sid(1, 1, 1)
        cluster.insert(s, 5, 50)
        first = cluster.membership.read_replicas(s)[0]
        nodes[first].kill()
        result = cluster.query_many([s], 0, 10)
        assert result[s][0].tolist() == [5] and result[s][1].tolist() == [50]
        assert cluster.metrics.value("dcdb_storage_read_failovers_total") >= 1

    def test_all_replicas_down_raises(self):
        cluster, nodes = make_flaky_cluster(3, replication=2)
        s = sid(1, 1, 1)
        cluster.insert(s, 5, 50)
        for idx in cluster.membership.read_replicas(s):
            nodes[idx].kill()
        with pytest.raises(StorageError, match="no live replica"):
            cluster.query_many([s], 0, 10)

    def test_group_read_failure_falls_back_per_sid(self):
        cluster, nodes = make_flaky_cluster(3, replication=2)
        s = sid(1, 1, 1)
        cluster.insert(s, 5, 50)
        first = cluster.membership.read_replicas(s)[0]

        def boom(sids, start, end):
            raise StorageError("flaky bulk read")

        nodes[first].query_many = boom  # bulk path fails, query() still works
        result = cluster.query_many([s], 0, 10)
        assert result[s][1].tolist() == [50]
        assert cluster.metrics.value("dcdb_storage_read_failovers_total") >= 1


class TestReadFailoverCounting:
    """``dcdb_storage_read_failovers_total`` counts one per replica
    skipped or failed per SID, through query and query_many alike."""

    def failovers(self, cluster):
        return cluster.metrics.value("dcdb_storage_read_failovers_total")

    def test_skipped_replicas_counted_per_sid(self):
        cluster, nodes = make_flaky_cluster(3, replication=3)
        sids = [sid(1, 1, leaf) for leaf in range(1, 5)]
        for s in sids:
            cluster.insert(s, 5, 50)
        first, second, _ = cluster.membership.read_replicas(sids[0])
        nodes[first].kill()
        nodes[second].kill()
        cluster.query(sids[0], 0, 10)
        assert self.failovers(cluster) == 2
        result = cluster.query_many(sids, 0, 10)
        assert all(result[s][1].tolist() == [50] for s in sids)
        assert self.failovers(cluster) == 2 + 2 * len(sids)

    def test_failed_replica_counted_per_sid(self):
        cluster, nodes = make_flaky_cluster(3, replication=2)
        sids = [sid(1, 1, leaf) for leaf in range(1, 4)]
        for s in sids:
            cluster.insert(s, 5, 50)
        first = cluster.membership.read_replicas(sids[0])[0]
        nodes[first].fail_next(1)
        assert cluster.query(sids[0], 0, 10)[1].tolist() == [50]
        assert self.failovers(cluster) == 1
        nodes[first].fail_next(1)
        result = cluster.query_many(sids, 0, 10)
        assert all(result[s][1].tolist() == [50] for s in sids)
        assert self.failovers(cluster) == 1 + len(sids)


class TestParallelFanOut:
    def test_replicated_batch_lands_on_all_replicas(self):
        cluster = make_cluster(4, replication=2)
        items = [(sid(1, i + 1, 1), j, j, 0) for i in range(8) for j in range(50)]
        assert cluster.insert_batch(items) == 400
        assert cluster.row_count == 800  # every reading written twice
        for s in {it[0] for it in items}:
            ts, _ = cluster.query(s, 0, 1000)
            assert ts.size == 50

    def test_parallel_writes_match_sequential_queries(self):
        cluster = make_cluster(3, replication=3)
        items = [(sid(1, i, 1), t, t * i, 0) for i in range(1, 4) for t in range(20)]
        cluster.insert_batch(items)
        for i in range(1, 4):
            for node in cluster.nodes:  # replication=3: every node has all
                ts, vals = node.query(sid(1, i, 1), 0, 100)
                assert ts.size == 20
                assert vals.tolist() == [t * i for t in range(20)]

    def test_single_node_fast_path_accepts_generator(self):
        cluster = StorageCluster([StorageNode("solo")])
        count = cluster.insert_batch((sid(1, 1, t % 5), t, t, 0) for t in range(100))
        assert count == 100
        assert cluster.row_count == 100
        assert cluster.local_ops == 1  # one accounting hop for the batch

    def test_empty_batch_no_accounting(self):
        cluster = make_cluster(2)
        assert cluster.insert_batch([]) == 0
        assert cluster.local_ops == 0 and cluster.remote_ops == 0

    def test_fan_out_propagates_node_errors(self):
        cluster = make_cluster(3)

        def explode(items):
            raise StorageError("disk full")

        for node in cluster.nodes:
            node.insert_batch = explode
        items = [(sid(1, i, 1), 1, 1, 0) for i in range(1, 4)]
        with pytest.raises(StorageError, match="disk full"):
            cluster.insert_batch(items)

    def test_small_replicated_batch_never_touches_pool(self, monkeypatch):
        def no_pool():
            raise AssertionError("small batches run on the calling thread")

        monkeypatch.setattr(cluster_module, "_shared_pool", no_pool)
        cluster = make_cluster(3, replication=2)
        items = [(sid(1, i, 1), t, t, 0) for i in range(1, 4) for t in range(10)]
        assert cluster.insert_batch(items) == 30
        cluster.insert(sid(1, 1, 1), 99, 99)
        assert cluster.row_count == 62
        assert cluster.query_many([it[0] for it in items], 0, 100)[sid(1, 2, 1)][0].size == 10

    def test_large_batch_runs_largest_group_inline(self):
        cluster = make_cluster(3)
        threads = {}
        for idx, node in enumerate(cluster.nodes):
            def recording(items, node=node, idx=idx):
                threads[idx] = threading.get_ident()
                return StorageNode.insert_batch(node, items)

            node.insert_batch = recording
        sizes = {1: 300, 2: 40, 3: 20}  # subtree (1, i) -> node i - 1
        items = [
            (sid(1, i, 1), t, t, 0) for i, size in sizes.items() for t in range(size)
        ]
        assert cluster.insert_batch(items) == sum(sizes.values())
        assert threads[0] == threading.get_ident()
        assert threads[1] != threading.get_ident()
        assert threads[2] != threading.get_ident()
