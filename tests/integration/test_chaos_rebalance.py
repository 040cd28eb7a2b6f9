"""Chaos acceptance for elastic membership: live grow/shrink mid-ingest.

The scenarios double a 3-node cluster to 6 (and drain a member back
out) while the simulated pipeline keeps ingesting, with a
:class:`~repro.faults.RebalanceFaultInjector` killing a streaming
source at an exact chunk boundary.  The invariants under test:

* **zero acked-reading loss** — every reading the agent acked exists
  afterwards, through joins, leaves and a mid-stream source crash;
* **bit-identical reads** — queries over the pre-rebalance window
  return exactly the same series before, during and after the moves;
* **bounded transfer cost** — bytes streamed stay within 1.25x the
  theoretical minimum even with one forced source failover;
* **detection behavior** — a killed source is condemned by operation
  feedback alone (zero additional heartbeat rounds), and a healthy
  run never produces a false suspicion or a spurious read failover.
"""

import os

import pytest

from repro.faults import FaultPlan, FaultyBackend, RebalanceFaultInjector
from repro.simulation.simcluster import SimClusterConfig, SimulatedCluster
from repro.storage.membership import NODE_DOWN, NODE_REMOVED, NODE_UP
from repro.storage.node import StorageNode

CHAOS_SEEDS = [
    int(s) for s in os.environ.get("CHAOS_SEEDS", "101,202,303,404,505").split(",")
]

FAR = 1 << 62


def build_sim(seed, *, hosts=6, sensors=8):
    """3 storage nodes, replication 2, one partition per host subtree.

    ``topic_prefix="/sim"`` makes the default 2-level partitioner key
    on (sim, hostN) — six partitions, so joins actually spread load.
    """
    return SimulatedCluster(
        SimClusterConfig(
            hosts=hosts,
            sensors_per_host=sensors,
            interval_ms=1000,
            storage_nodes=3,
            replication=2,
            topic_prefix="/sim",
            fault_plan=FaultPlan(seed),
            trace_sample_every=0,
        )
    )


def fingerprint(cluster, start, end):
    """Bit-exact snapshot of every series over [start, end]."""
    return {
        s.hex(): (ts.tolist(), vals.tolist())
        for s in sorted(cluster.sids(), key=lambda s: s.value)
        for ts, vals in [cluster.query(s, start, end)]
    }


def drain_hints(cluster, rounds=10):
    for _ in range(rounds):
        if cluster.hints_pending == 0:
            return
        cluster.replay_hints()


class TestGrowClusterMidIngest:
    """3 -> 6 nodes while ingesting, with a source killed mid-stream."""

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_double_cluster_with_source_kill(self, seed):
        sim = build_sim(seed)
        cluster = sim.backend
        for _ in range(10):
            sim.run(1.0)
        assert sim.agent.writer.lost == 0

        # False-positive gate: ten seconds of healthy probed ingest
        # must leave every node UP and never fail over a read.
        assert [s["state"] for s in cluster.node_states()] == [NODE_UP] * 3
        assert cluster.metrics.value("dcdb_storage_read_failovers_total") == 0

        t0 = sim.clock()
        before = fingerprint(cluster, 0, t0)
        assert len(before) == sim.total_sensors

        # First join: blocking, with the injector killing the stream's
        # source after it shipped one chunk.  Small chunks force every
        # sensor through multiple chunk boundaries.
        cluster.rebalance_chunk_rows = 4
        injector = RebalanceFaultInjector(cluster)
        injector.kill_source_after(chunks=1, proxies=sim.flaky_nodes)
        idx3 = len(cluster.nodes)
        node3 = FaultyBackend(
            StorageNode(f"node{idx3}", clock=sim.clock), plan=sim.fault_plan
        )
        sim.flaky_nodes.append(node3)
        probes_before = cluster.detector.probes_total
        cluster.add_node(node3, wait=True)

        assert [f["kind"] for f in injector.fired] == ["kill-source"]
        victim = injector.fired[0]["source"]
        # Detection latency: the crash was condemned purely by the
        # failed stream's operation feedback — not one heartbeat round
        # ran between the kill and the verdict.
        assert cluster.detector.probes_total == probes_before
        assert cluster.detector.state(victim) == NODE_DOWN
        stats = cluster.rebalance_stats()
        assert stats["partitions_failed"] == 0
        assert stats["source_failovers"] >= 1

        # Dual-read correctness with a replica down: the pre-join
        # window reads back bit-identically.
        assert fingerprint(cluster, 0, t0) == before

        sim.restart_node(victim)
        drain_hints(cluster)

        # Two more joins while ingest keeps flowing (wait=False): the
        # mid-transfer window must serve the same bytes.
        for _ in range(2):
            sim.add_storage_node(wait=False)
            sim.run(1.0)
            assert fingerprint(cluster, 0, t0) == before
            assert cluster.rebalance_wait(timeout=60.0)
        for _ in range(3):
            sim.run(1.0)
        sim.drain()
        drain_hints(cluster)
        total_seconds = 15

        # Zero acked loss: everything the agent acked is readable.
        expected = sim.expected_readings(total_seconds)
        assert sim.agent.readings_stored == expected
        assert sim.agent.writer.lost == 0
        stored = sum(
            cluster.query(s, 0, FAR)[0].size for s in cluster.sids()
        )
        assert stored == expected
        assert fingerprint(cluster, 0, t0) == before

        # Bulk reads agree with the per-SID path across the new table.
        sids = cluster.sids()
        bulk = cluster.query_many(sids, 0, t0)
        for s in sids:
            ts, vals = cluster.query(s, 0, t0)
            assert bulk[s][0].tolist() == ts.tolist()
            assert bulk[s][1].tolist() == vals.tolist()

        # Topology settled: 6 members, balanced ownership, transfer
        # cost within 1.25x of the theoretical minimum despite the
        # forced re-stream.
        assert cluster.membership.num_slots == 6
        assert len(cluster.membership.member_indices()) == 6
        assert cluster.membership.transfers_active == 0
        counts = cluster.membership.ownership_counts()
        assert sum(counts.values()) == 12  # 6 partitions x replication 2
        assert max(counts.values()) <= 3
        stats = cluster.rebalance_stats()
        assert stats["partitions_failed"] == 0
        assert stats["moved_bytes"] <= 1.25 * stats["minimal_bytes"]
        assert cluster.hints_pending == 0
        assert [s["state"] for s in cluster.node_states()] == [NODE_UP] * 6
        assert cluster.metrics.value("dcdb_cluster_epoch") == float(
            cluster.membership.epoch
        )
        sim.stop()
        cluster.close()


class TestRemoveNodeDrains:
    """A member leaves mid-ingest; its data survives it."""

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", CHAOS_SEEDS[:2])
    def test_drain_preserves_every_acked_reading(self, seed):
        sim = build_sim(seed)
        cluster = sim.backend
        for _ in range(10):
            sim.run(1.0)
        t0 = sim.clock()
        before = fingerprint(cluster, 0, t0)

        sim.remove_storage_node(0, wait=False)
        sim.run(1.0)
        assert fingerprint(cluster, 0, t0) == before
        assert cluster.rebalance_wait(timeout=60.0)
        assert cluster.membership.slot_state(0) == NODE_REMOVED

        for _ in range(2):
            sim.run(1.0)
        sim.drain()
        drain_hints(cluster)
        total_seconds = 13

        expected = sim.expected_readings(total_seconds)
        assert sim.agent.readings_stored == expected
        assert sim.agent.writer.lost == 0
        stored = sum(cluster.query(s, 0, FAR)[0].size for s in cluster.sids())
        assert stored == expected
        assert fingerprint(cluster, 0, t0) == before

        # The leaver is out of every replica set and the detector.
        assert 0 not in cluster.membership.ownership_counts()
        assert cluster.node_liveness() == (2, 2)
        states = cluster.node_states()
        assert states[0]["state"] == NODE_REMOVED
        assert [s["state"] for s in states[1:]] == [NODE_UP] * 2
        stats = cluster.rebalance_stats()
        assert stats["partitions_failed"] == 0
        assert stats["moved_bytes"] <= 1.25 * stats["minimal_bytes"]
        assert cluster.hints_pending == 0
        sim.stop()
        cluster.close()


class TestInjectedChunkError:
    """A transient injected error on one exact chunk only retries."""

    @pytest.mark.slow
    def test_fail_chunk_is_survivable_and_soft(self, seed=CHAOS_SEEDS[0]):
        sim = build_sim(seed, hosts=4, sensors=6)
        cluster = sim.backend
        for _ in range(8):
            sim.run(1.0)
        t0 = sim.clock()
        before = fingerprint(cluster, 0, t0)
        cluster.rebalance_chunk_rows = 4
        injector = RebalanceFaultInjector(cluster)
        injector.fail_chunk(1)
        idx = sim.add_storage_node(wait=True)
        assert [f["kind"] for f in injector.fired] == ["fail-chunk"]
        # Soft failure: suspicion only — the source stays a member and
        # the stream completed from a replica without loss.
        victim = injector.fired[0]["source"]
        assert cluster.detector.state(victim) in (NODE_UP, "suspect")
        assert cluster.detector.is_alive(victim)
        stats = cluster.rebalance_stats()
        assert stats["partitions_failed"] == 0
        assert fingerprint(cluster, 0, t0) == before
        assert len(cluster.membership.member_indices()) == 4
        sim.stop()
        cluster.close()
