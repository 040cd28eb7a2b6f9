"""Ablation: storage replication factor.

The paper picks Cassandra for "its data distribution mechanism that
allows us to distribute a single database over multiple server nodes
... either for redundancy, scalability, or both" (section 3.3).  This
bench quantifies the redundancy half of that trade: write
amplification and real ingest cost as the replication factor grows,
and the availability it buys (a subtree remains readable from a
surviving replica).
"""

import pytest

from conftest import emit, format_table
from repro.core.sid import SensorId
from repro.storage.cluster import StorageCluster
from repro.storage.node import StorageNode
from repro.storage.partitioner import HierarchicalPartitioner

SIDS = [SensorId.from_codes([1, i, 1]) for i in range(1, 33)]
BATCH = [(SIDS[i % 32], i // 32, i, 0) for i in range(4_000)]


def ingest(replication: int):
    nodes = [StorageNode(f"n{i}") for i in range(3)]
    cluster = StorageCluster(
        nodes,
        partitioner=HierarchicalPartitioner(3, levels=2),
        replication=replication,
    )
    cluster.insert_batch(BATCH)
    return cluster


def test_replication_write_amplification(benchmark):
    rows = []
    clusters = {}
    for rf in (1, 2, 3):
        cluster = ingest(rf)
        clusters[rf] = cluster
        rows.append([f"RF={rf}", cluster.row_count, f"{cluster.row_count / len(BATCH):.1f}x"])
    benchmark.pedantic(ingest, args=(2,), rounds=3, iterations=1)
    emit(
        "Ablation: replication factor vs stored rows (4k readings, 3 nodes)",
        format_table(["Config", "Total rows", "Write amplification"], rows),
    )
    assert clusters[1].row_count == len(BATCH)
    assert clusters[2].row_count == 2 * len(BATCH)
    assert clusters[3].row_count == 3 * len(BATCH)


def test_replication_survives_node_loss(benchmark):
    def run():
        cluster = ingest(2)
        # "Lose" the primary of a subtree: blank the owning node and
        # read from the surviving replica ring position.
        victim_sid = SIDS[0]
        owner = cluster.membership.read_replicas(victim_sid)[0]
        cluster.nodes[owner] = StorageNode(f"n{owner}-replaced")
        # Reads walk the replica list; with the primary empty the
        # second replica still holds everything.
        replicas = cluster.membership.read_replicas(victim_sid)
        survivor = cluster.nodes[replicas[1]]
        ts, vals = survivor.query(victim_sid, 0, 10**9)
        return ts.size

    readings_per_sensor = len(BATCH) // 32
    assert benchmark(run) == readings_per_sensor


def test_rf1_loses_data_on_node_loss(benchmark):
    def run():
        cluster = ingest(1)
        victim_sid = SIDS[0]
        owner = cluster.membership.read_replicas(victim_sid)[0]
        cluster.nodes[owner] = StorageNode(f"n{owner}-replaced")
        ts, _ = cluster.query(victim_sid, 0, 10**9)
        return ts.size

    assert benchmark(run) == 0  # the redundancy argument, negatively
