"""Tests for partition-key policies and the placement they feed.

A partitioner only maps a SID to a partition key; the ownership table
(:class:`~repro.storage.membership.ClusterMembership`) turns keys into
replica sets.  Placement behaviour is therefore asserted through the
table, exactly as the cluster resolves it.
"""

import pytest
from hypothesis import given, strategies as st

from repro.core.sid import SensorId
from repro.storage.membership import ClusterMembership
from repro.storage.partitioner import HashPartitioner, HierarchicalPartitioner


def sid(*codes):
    return SensorId.from_codes(list(codes))


def table(partitioner, replication=1):
    return ClusterMembership(partitioner, replication)


def owner(membership, s):
    return membership.read_replicas(s)[0]


class TestHierarchicalPartitioner:
    def test_subtree_colocated(self):
        placement = table(HierarchicalPartitioner(4, levels=2))
        first = owner(placement, sid(1, 1, 1))
        assert owner(placement, sid(1, 1, 2)) == first
        assert owner(placement, sid(1, 1, 3, 7)) == first

    def test_different_subtrees_round_robin(self):
        placement = table(HierarchicalPartitioner(3, levels=2))
        owners = [owner(placement, sid(1, i)) for i in range(1, 7)]
        assert owners == [0, 1, 2, 0, 1, 2]

    def test_assignment_stable(self):
        placement = table(HierarchicalPartitioner(4, levels=2))
        first = owner(placement, sid(2, 3, 1))
        for i in range(10):
            owner(placement, sid(5, 6 + i, 7))  # churn other subtrees
        assert owner(placement, sid(2, 3, 9)) == first

    def test_node_for_prefix_at_partition_depth(self):
        """A prefix query routes to its subtree's owner via prefix_key."""
        part = HierarchicalPartitioner(4, levels=2)
        placement = table(part)
        first = owner(placement, sid(1, 2, 3))
        key = part.prefix_key(sid(1, 2).value, 2)
        assert key == part.partition_key(sid(1, 2, 3))
        assert placement.primary_for_partition(key) == first

    def test_node_for_prefix_deeper_than_partition(self):
        part = HierarchicalPartitioner(4, levels=2)
        placement = table(part)
        first = owner(placement, sid(1, 2, 3))
        key = part.prefix_key(sid(1, 2, 3).value, 3)
        assert placement.primary_for_partition(key) == first

    def test_node_for_prefix_shallower_returns_none(self):
        part = HierarchicalPartitioner(4, levels=2)
        owner(table(part), sid(1, 2, 3))
        assert part.prefix_key(sid(1).value, 1) is None

    def test_unknown_prefix_returns_none(self):
        part = HierarchicalPartitioner(4, levels=2)
        key = part.prefix_key(sid(9, 9).value, 2)
        assert table(part).primary_for_partition(key) is None

    def test_replicas_walk_ring(self):
        placement = table(HierarchicalPartitioner(4, levels=1), replication=3)
        owner(placement, sid(7))  # first-seen -> node 0
        replicas = placement.read_replicas(sid(1, 1))
        assert replicas == (1, 2, 3)
        assert placement.read_replicas(sid(2)) == (2, 3, 0)

    def test_replication_capped_at_cluster_size(self):
        placement = table(HierarchicalPartitioner(2, levels=1), replication=5)
        assert len(placement.read_replicas(sid(1))) == 2

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            HierarchicalPartitioner(0)
        with pytest.raises(ValueError):
            HierarchicalPartitioner(2, levels=0)

    def test_known_partitions(self):
        """The table holds one entry per subtree touched."""
        placement = table(HierarchicalPartitioner(4, levels=2))
        owner(placement, sid(1, 1, 1))
        owner(placement, sid(1, 1, 2))
        owner(placement, sid(1, 2, 1))
        assert len(placement.table_snapshot()) == 2

    def test_overreplication_deduplicates_ring_walk(self):
        """replication > num_nodes must yield each node exactly once,
        primary first, never a duplicate index (a duplicate would make
        the cluster double-write one member and skew quorum counts)."""
        for n in (1, 2, 3):
            for repl in (n, n + 1, n + 5, 64):
                placement = table(HierarchicalPartitioner(n, levels=1), repl)
                owner(placement, sid(3))  # move sid(1, 7) off node 0
                replicas = placement.read_replicas(sid(1, 7))
                assert len(replicas) == n
                assert sorted(replicas) == list(range(n))
                assert replicas[0] == 1 % n

    def test_first_seen_round_robin_is_order_dependent_but_stable(self):
        """Assignment is first-seen round-robin: the arrival order of
        *new* subtrees decides placement, and replaying the same order
        reproduces it exactly."""
        order = [sid(1, 1), sid(2, 1), sid(3, 1), sid(4, 1), sid(5, 1)]
        a = table(HierarchicalPartitioner(3, levels=1))
        b = table(HierarchicalPartitioner(3, levels=1))
        for s in order:
            owner(a, s)
        for s in reversed(order):
            owner(b, s)
        assert [owner(a, s) for s in order] == [0, 1, 2, 0, 1]
        assert [owner(b, s) for s in reversed(order)] == [0, 1, 2, 0, 1]
        # Same SIDs, different arrival order -> different owners; each
        # table still answers consistently forever after.
        assert [owner(b, s) for s in order] == [1, 0, 2, 1, 0]
        assert a.table_snapshot() != b.table_snapshot()
        assert [owner(a, s) for s in order] == [0, 1, 2, 0, 1]

    def test_partition_key_is_prefix(self):
        part = HierarchicalPartitioner(3, levels=2)
        assert part.partition_key(sid(1, 2, 3)) == sid(1, 2, 3).prefix(2)
        assert part.partition_key(sid(1, 2, 9)) == part.partition_key(sid(1, 2, 3))
        assert part.partition_key(sid(1, 3, 3)) != part.partition_key(sid(1, 2, 3))

    def test_known_assignments_snapshot_is_copy(self):
        """table_snapshot() hands out a copy, not the live table."""
        placement = table(HierarchicalPartitioner(3, levels=1))
        owner(placement, sid(1, 1))
        snap = placement.table_snapshot()
        snap[999] = (9,)
        assert 999 not in placement.table_snapshot()


class TestHashPartitioner:
    def test_deterministic(self):
        part = HashPartitioner(5)
        s = sid(3, 4, 5)
        assert part.partition_key(s) == part.partition_key(s)

    def test_in_range(self):
        part = HashPartitioner(7)
        for i in range(1, 100):
            assert 0 <= part.partition_key(sid(1, i)) < 7

    def test_subtree_scatters(self):
        # The ablation's point: hashing does NOT co-locate subtrees.
        placement = table(HashPartitioner(8))
        owners = {owner(placement, sid(1, 1, i)) for i in range(1, 200)}
        assert len(owners) > 1

    def test_reasonable_balance(self):
        placement = table(HashPartitioner(4))
        counts = [0] * 4
        for i in range(1, 2001):
            counts[owner(placement, sid(i % 50 + 1, i))] += 1
        assert min(counts) > 2000 / 4 * 0.7

    def test_prefix_never_single_node(self):
        part = HashPartitioner(4)
        assert part.prefix_key(sid(1, 1).value, 2) is None

    @given(st.lists(st.integers(min_value=1, max_value=0xFFFF), min_size=1, max_size=8))
    def test_owner_in_range_property(self, codes):
        placement = table(HashPartitioner(5))
        assert 0 <= owner(placement, SensorId.from_codes(codes)) < 5
