"""Ablation: hierarchical SID-prefix partitioning vs hash partitioning.

Paper section 4.3: the hierarchical partitioner "allows for storing a
sensor's reading on the nearest server and thus to avoid network
traffic.  The same logic is applied for queries to minimize network
traffic between the database servers by directing them directly to the
respective server."

This bench loads the same deployment (4 clusters' sensor subtrees onto
4 storage nodes) under both partitioners and measures:

* insert locality — the fraction of writes that leave the contact
  (nearest) node when each cluster writes through its own coordinator;
* query fan-out — storage nodes touched by a subtree query.
"""

import pytest

from conftest import emit, format_table
from repro.core.sid import SidMapper
from repro.storage.cluster import StorageCluster
from repro.storage.membership import ClusterMembership
from repro.storage.node import StorageNode
from repro.storage.partitioner import HashPartitioner, HierarchicalPartitioner

CLUSTERS = 4
NODES_PER_CLUSTER = 32
SENSORS_PER_NODE = 16
READINGS = 10


def build(partitioner_name: str):
    nodes = [StorageNode(f"sb{i}") for i in range(CLUSTERS)]
    if partitioner_name == "hierarchical":
        partitioner = HierarchicalPartitioner(CLUSTERS, levels=1)
    else:
        partitioner = HashPartitioner(CLUSTERS)
    mapper = SidMapper()
    # Pre-register each cluster's subtree so cluster k's sensors share
    # the level-0 component "clusterK".
    sids = {
        cluster: [
            mapper.sid_for_topic(f"/cluster{cluster}/node{n}/s{s}")
            for n in range(NODES_PER_CLUSTER)
            for s in range(SENSORS_PER_NODE)
        ]
        for cluster in range(CLUSTERS)
    }
    return nodes, partitioner, mapper, sids


def run(partitioner_name: str):
    nodes, partitioner, mapper, sids = build(partitioner_name)
    # One cluster, one placement table.  Each cluster writes through a
    # coordinator near its own backend, modelled by moving the contact
    # node: with hierarchical placement, cluster k's subtree lands on
    # the node assigned to its prefix -> contact that node.
    coordinator = StorageCluster(nodes, partitioner=partitioner)
    local = remote = 0
    for cluster in range(CLUSTERS):
        coordinator.contact_node = (
            coordinator.membership.read_replicas(sids[cluster][0])[0]
            if partitioner_name == "hierarchical"
            else cluster
        )
        coordinator.reset_stats()
        coordinator.insert_batch(
            (sid, t, t, 0) for sid in sids[cluster] for t in range(READINGS)
        )
        local += coordinator.local_ops
        remote += coordinator.remote_ops
    # Query fan-out: scan one cluster's subtree.
    coordinator.contact_node = 0
    touched = set()
    original = coordinator._account
    coordinator._account = lambda idx: (touched.add(idx), original(idx))
    results = list(
        coordinator.query_prefix(sids[1][0].prefix(1), 1, 0, READINGS + 1)
    )
    assert len(results) == NODES_PER_CLUSTER * SENSORS_PER_NODE
    return local, remote, len(touched)


def test_partitioning_locality(benchmark):
    h_local, h_remote, h_touched = benchmark.pedantic(
        run, args=("hierarchical",), rounds=1, iterations=1
    )
    x_local, x_remote, x_touched = run("hash")
    rows = [
        ["hierarchical", h_local, h_remote, f"{h_remote / (h_local + h_remote):.0%}", h_touched],
        ["hash", x_local, x_remote, f"{x_remote / (x_local + x_remote):.0%}", x_touched],
    ]
    emit(
        "Ablation: storage partitioning policies (4 clusters x 512 sensors)",
        format_table(
            ["Partitioner", "Local ops", "Remote ops", "Remote fraction", "Nodes per subtree query"],
            rows,
        ),
    )
    # Hierarchical: all writes stay on the nearest server; a subtree
    # query touches exactly one node.
    assert h_remote == 0
    assert h_touched == 1
    # Hash: most writes leave the contact node; queries fan out to all.
    assert x_remote / (x_local + x_remote) > 0.5
    assert x_touched == CLUSTERS


def test_hash_balances_better_under_skew(benchmark):
    """The trade-off hashing buys: balance under skewed subtree sizes."""

    def run_skewed():
        mapper = SidMapper()
        # One huge subtree, three tiny ones.
        sids = [mapper.sid_for_topic(f"/big/n{i}/s") for i in range(1000)]
        sids += [mapper.sid_for_topic(f"/tiny{k}/n0/s") for k in range(3)]
        out = {}
        for name, partitioner in (
            ("hierarchical", HierarchicalPartitioner(4, levels=1)),
            ("hash", HashPartitioner(4)),
        ):
            placement = ClusterMembership(partitioner, replication=1)
            counts = [0, 0, 0, 0]
            for sid in sids:
                counts[placement.read_replicas(sid)[0]] += 1
            out[name] = max(counts) / (sum(counts) / 4)
        return out

    imbalance = benchmark(run_skewed)
    emit(
        "Ablation note: load imbalance (max/mean rows per node) under skew",
        [f"{k}: {v:.2f}x" for k, v in imbalance.items()],
    )
    assert imbalance["hash"] < 1.5
    assert imbalance["hierarchical"] > 2.0  # the skew lands on one node
