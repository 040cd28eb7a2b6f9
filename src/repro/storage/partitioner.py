"""Partition-key policies for the distributed store.

Paper section 4.3: *"We exploit this feature by leveraging the
hierarchical SIDs as partition keys for Cassandra: using a
partitioning algorithm that maps a sub-tree in the sensor hierarchy to
a particular database server allows for storing a sensor's reading on
the nearest server and thus to avoid network traffic."*

A partitioner is a key function and nothing else: it maps a SID to the
partition it belongs to.  Which nodes hold a partition is decided in
one place, the cluster's ownership table
(:class:`~repro.storage.membership.ClusterMembership`), which assigns
partitions to replica sets round-robin in first-seen order and moves
them when members join or leave.

:class:`HierarchicalPartitioner` reproduces the paper's policy — the
top ``levels`` fields of the SID are the key, so an entire subtree
(e.g. one cluster's racks) is co-located and hierarchy-scoped queries
touch a single server.

:class:`HashPartitioner` is the conventional alternative (Cassandra's
default Murmur3-style token ring, here FNV-1a): each sensor hashes
into one of ``num_nodes`` buckets, so buckets balance uniformly but a
subtree's sensors scatter across all nodes.  It exists as the ablation
baseline for ``benchmarks/test_ablation_partitioning.py``, which
quantifies exactly the cross-node traffic the paper's design avoids.
"""

from __future__ import annotations

import abc

from repro.core.sid import SensorId


class Partitioner(abc.ABC):
    """Maps a SID to the key of the partition that holds it."""

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 1:
            raise ValueError("need at least one storage node")
        self.num_nodes = num_nodes

    @abc.abstractmethod
    def partition_key(self, sid: SensorId) -> int:
        """Stable partition identity of ``sid``."""

    def prefix_key(self, prefix_value: int, prefix_levels: int) -> int | None:
        """The one partition a query prefix lies in, or None.

        None means the sensors under the prefix may span several
        partitions, so a subtree scan must fan out.
        """
        return None


class HierarchicalPartitioner(Partitioner):
    """Subtree placement on SID prefixes (the paper's policy).

    The top ``levels`` SID fields form the partition key; the
    ownership table hands distinct prefixes to nodes in first-seen
    order, which matches how an administrator statically pins subtrees
    (one cluster's Collect Agent writes to its nearest Storage Backend).
    """

    def __init__(self, num_nodes: int, levels: int = 2) -> None:
        super().__init__(num_nodes)
        if levels < 1:
            raise ValueError("prefix must keep at least one level")
        self.levels = levels

    def partition_key(self, sid: SensorId) -> int:
        """The top ``levels`` SID fields — one subtree, one partition."""
        return sid.prefix(self.levels)

    def prefix_key(self, prefix_value: int, prefix_levels: int) -> int | None:
        """A prefix at or below the partition depth names one subtree.

        This is the query-routing optimization of paper section 4.3
        ("the same logic is applied for queries").
        """
        if prefix_levels < self.levels:
            return None
        return SensorId(prefix_value).prefix(self.levels)


def _fnv1a_64(value: int) -> int:
    """FNV-1a over the 16 big-endian bytes of a 128-bit value."""
    h = 0xCBF29CE484222325
    for byte in value.to_bytes(16, "big"):
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


class HashPartitioner(Partitioner):
    """Uniform hash placement (the ablation baseline).

    Every sensor hashes independently into one of ``num_nodes``
    buckets, so reads of a subtree fan out to all nodes — balanced,
    but with none of the locality the hierarchical policy provides.
    """

    def partition_key(self, sid: SensorId) -> int:
        return _fnv1a_64(sid.value) % self.num_nodes
