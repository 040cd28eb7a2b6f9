"""Seeded chaos suite: kill/restart, flaky flushes, broker disconnects.

Every scenario is driven by a :class:`~repro.faults.FaultPlan` so one
seed fully determines the fault schedule.  The committed seeds (also
the default of the ``make chaos`` target) can be overridden with
``CHAOS_SEEDS=1,2,3``; a failing seed then reproduces bit-for-bit.
"""

import os
import time

import pytest

from repro.common.errors import TransportError
from repro.common.timeutil import NS_PER_SEC
from repro.core.collectagent import BatchingWriter, RollupConfig, WriterConfig
from repro.core.sid import SensorId
from repro.faults import BrokerFaultInjector, FaultPlan, FaultyBackend
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient
from repro.observability import parse_prometheus_text, render_prometheus
from repro.observability.metrics import merge_snapshots
from repro.simulation.simcluster import SimClusterConfig, SimulatedCluster
from repro.storage import MemoryBackend
from repro.storage.rollup import (
    ROLLUP_TIERS,
    aggregate_buckets,
    is_rollup_sid,
    rollup_sid,
)

CHAOS_SEEDS = [
    int(s) for s in os.environ.get("CHAOS_SEEDS", "101,202,303,404,505").split(",")
]


def ingest_with_node_outage(seed, seconds=50):
    """The acceptance scenario: ~10k readings with a mid-run node kill.

    Returns the cluster sim (stopped, fully drained, hints replayed)
    plus the set of killed-node indices for callers to poke at.
    """
    plan = FaultPlan(seed)
    plan.kill_at(10 * NS_PER_SEC, "node1")
    plan.restart_at(30 * NS_PER_SEC, "node1")
    sim = SimulatedCluster(
        SimClusterConfig(
            hosts=4,
            sensors_per_host=50,
            interval_ms=1000,
            storage_nodes=3,
            replication=2,
            fault_plan=plan,
        )
    )
    for _ in range(seconds):
        sim.run(1.0)
    # Drain any leftover hints for nodes that are up again.
    for _ in range(10):
        if sim.backend.hints_pending == 0:
            break
        sim.backend.replay_hints()
    return sim


class TestKillRestartMidIngest:
    """Replication=2, one replica killed mid-ingest of 10k readings,
    restarted later: zero reading loss on either replica."""

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_zero_loss_and_hint_replay(self, seed):
        sim = ingest_with_node_outage(seed)
        cluster = sim.backend
        expected = sim.expected_readings(50)
        assert expected == 10_000
        assert sim.agent.readings_stored == expected
        assert sim.agent.writer.lost == 0

        # Hints were queued for the dead replica and replayed on rejoin.
        assert cluster.metrics.value("dcdb_storage_hints_queued_total") > 0
        assert cluster.metrics.value(
            "dcdb_storage_hints_replayed_total"
        ) == cluster.metrics.value("dcdb_storage_hints_queued_total")
        assert cluster.hints_pending == 0

        # Every replica holds every sensor's complete series — read the
        # raw nodes underneath the fault proxies so verification itself
        # cannot fail over and mask a hole.
        raw_nodes = [proxy.backend for proxy in sim.flaky_nodes]
        sids = raw_nodes[0].sids()
        for node in raw_nodes[1:]:
            sids = sorted(set(sids) | set(node.sids()))
        assert len(sids) == sim.total_sensors
        per_sensor = expected // sim.total_sensors
        for s in sids:
            for idx in cluster.membership.read_replicas(s):
                ts, _ = raw_nodes[idx].query(s, 0, 2**63 - 1)
                assert ts.size == per_sensor, (
                    f"replica node{idx} of {s} holds {ts.size}/{per_sensor}"
                )

    @pytest.mark.slow
    def test_failover_counters_visible_on_metrics_exposition(self):
        sim = ingest_with_node_outage(CHAOS_SEEDS[0], seconds=15)
        # Query while node1 is still down (killed at t=10s, restart at 30s)
        # so the read path actually fails over.
        s = SensorId.from_codes([0, 0, 0])
        for cand in sim.backend.sids():
            if 1 in sim.backend.membership.read_replicas(cand):
                s = cand
                break
        sim.backend.query(s, 0, 2**63 - 1)
        text = render_prometheus(
            merge_snapshots(r.collect() for r in sim.agent.metrics_registries())
        )
        families = parse_prometheus_text(text)
        assert "dcdb_storage_hints_queued_total" in families
        assert "dcdb_storage_hints_replayed_total" in families
        assert "dcdb_storage_read_failovers_total" in families
        assert "dcdb_storage_write_retries_total" in families
        assert "dcdb_storage_hints_pending" in families
        assert "dcdb_storage_node_up" in families

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_same_seed_reproduces_identical_run(self, seed):
        def fingerprint():
            sim = ingest_with_node_outage(seed, seconds=35)
            cluster = sim.backend
            return (
                sim.agent.readings_stored,
                sim.agent.writer.lost,
                cluster.metrics.value("dcdb_storage_hints_queued_total"),
                cluster.metrics.value("dcdb_storage_hints_replayed_total"),
                cluster.metrics.value("dcdb_storage_write_retries_total"),
                tuple(proxy.backend.row_count for proxy in sim.flaky_nodes),
                tuple(proxy.kills for proxy in sim.flaky_nodes),
            )

        assert fingerprint() == fingerprint()


class TestRollupSurvivesNodeOutage:
    """A storage node dies mid-rollup-flush and rejoins later: rollup
    series are ordinary series, so hinted handoff recovers them like
    raw data, and the sealed tiers show no gap versus recomputing the
    aggregates from raw."""

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", CHAOS_SEEDS[:2])
    def test_rollups_recover_via_hinted_handoff(self, seed):
        plan = FaultPlan(seed)
        plan.kill_at(10 * NS_PER_SEC, "node1")
        plan.restart_at(30 * NS_PER_SEC, "node1")
        sim = SimulatedCluster(
            SimClusterConfig(
                hosts=2,
                sensors_per_host=10,
                interval_ms=1000,
                storage_nodes=3,
                replication=2,
                fault_plan=plan,
                rollup_config=RollupConfig(),
            )
        )
        for _ in range(50):
            sim.run(1.0)
        sim.agent.rollup.flush()
        for _ in range(10):
            if sim.backend.hints_pending == 0:
                break
            sim.backend.replay_hints()
        cluster = sim.backend
        assert cluster.metrics.value("dcdb_storage_hints_queued_total") > 0
        assert cluster.hints_pending == 0
        raw_sids = [s for s in cluster.sids() if not is_rollup_sid(s)]
        assert len(raw_sids) == sim.total_sensors
        bucket_ns = ROLLUP_TIERS[0].bucket_ns
        for sid in raw_sids:
            coverage = sim.agent.rollup.coverage(sid, 0)
            assert coverage is not None
            lo, hi = coverage
            assert hi - lo >= 3 * bucket_ns  # sealing progressed through the outage
            raw_ts, raw_vals = cluster.query(sid, lo, hi - 1)
            starts, mins, maxs, sums, counts = aggregate_buckets(
                raw_ts, raw_vals, bucket_ns
            )
            for field_index, expect in enumerate((mins, maxs, sums, counts)):
                fsid = rollup_sid(sid, 0, field_index)
                got_ts, got_vals = cluster.query(fsid, lo, hi - 1)
                assert got_ts.tolist() == starts.tolist(), f"gap in {fsid}"
                assert got_vals.tolist() == expect.tolist()
        # Both replicas of a rollup series hold it fully after replay —
        # read the raw nodes underneath the fault proxies directly.
        raw_nodes = [proxy.backend for proxy in sim.flaky_nodes]
        fsid = rollup_sid(raw_sids[0], 0, 3)
        replicas = cluster.membership.read_replicas(fsid)
        sizes = [
            raw_nodes[idx].query(fsid, 0, 2**63 - 1)[0].size for idx in replicas
        ]
        assert sizes[0] == sizes[1] > 0


class TestFlakyBackendDuringFlush:
    """The writer re-queues failed flush batches: a backend that fails
    probabilistically loses nothing as long as it eventually accepts."""

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_zero_loss_through_flaky_flushes(self, seed):
        inner = MemoryBackend()
        backend = FaultyBackend(inner, plan=FaultPlan(seed), fault_rate=0.2)
        writer = BatchingWriter(
            backend,
            WriterConfig(
                max_batch=50,
                poll_interval_s=0.001,
                flush_retries=1000,
                retry_backoff_s=0.0,
            ),
        )
        sid = SensorId.from_codes([1, 2, 3])
        total = 2000
        for t in range(total):
            writer.put([(sid, t, t, 0)])
        writer.stop()  # drain-on-stop must persist every staged reading
        assert inner.count(sid, 0, total) == total
        assert backend.faults_injected > 0
        assert writer.requeued > 0
        assert writer.lost == 0

    def test_flush_outage_recovers_when_backend_returns(self):
        inner = MemoryBackend()
        backend = FaultyBackend(inner)
        writer = BatchingWriter(
            backend,
            WriterConfig(
                max_batch=10,
                poll_interval_s=0.001,
                flush_retries=10_000,
                retry_backoff_s=0.0,
            ),
        )
        sid = SensorId.from_codes([1, 2, 3])
        backend.kill()
        for t in range(100):
            writer.put([(sid, t, t, 0)])
        time.sleep(0.05)  # flush loop spins against the dead backend
        assert inner.count(sid, 0, 1000) == 0
        backend.restart()
        assert writer.drain(10.0)
        assert inner.count(sid, 0, 1000) == 100
        writer.stop()


class TestBrokerDisconnectMidPublish:
    """The broker drops a publisher's socket mid-stream; the publisher
    reconnects and re-sends, and no payload is lost end to end."""

    @pytest.mark.slow
    def test_publisher_survives_injected_disconnect(self):
        injector = BrokerFaultInjector()
        broker = MQTTBroker("127.0.0.1", 0, fault_injector=injector)
        broker.start()
        try:
            received = set()
            watcher = MQTTClient("chaos-watch", port=broker.port)
            watcher.connect()
            watcher.subscribe("/chaos/#", lambda t, p: received.add(bytes(p)))

            # CONNECT is the first chunk; cut the cord a few PUBLISHes in.
            injector.disconnect_client_after("chaos-pub", chunks=5)
            publisher = MQTTClient("chaos-pub", port=broker.port)
            publisher.connect()
            payloads = [f"m{i}".encode() for i in range(20)]
            for payload in payloads:
                for attempt in range(5):
                    try:
                        publisher.publish(
                            "/chaos/t", payload, qos=1, wait_ack=True, timeout=2.0
                        )
                        break
                    except (TransportError, OSError, TimeoutError):
                        publisher.disconnect()
                        publisher = MQTTClient("chaos-pub", port=broker.port)
                        publisher.connect()
                else:
                    pytest.fail(f"payload {payload!r} never acked")

            assert injector.disconnects == 1
            deadline = time.monotonic() + 5
            while received != set(payloads) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert received == set(payloads)
            publisher.disconnect()
            watcher.disconnect()
        finally:
            broker.stop()

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_probabilistic_drops_are_per_seed_deterministic(self, seed):
        def decisions():
            injector = BrokerFaultInjector(plan=FaultPlan(seed), drop_rate=0.1)
            return [injector.on_data("c", b"chunk") for _ in range(200)]

        assert decisions() == decisions()


class TestBrokerBounceMidRun:
    """The broker process itself bounces (stop, restart on the same
    port) while an auto-reconnecting publisher is mid-run, with the
    injection seam additionally severing the publisher's socket before
    the bounce.  QoS-1 queue-and-replay must deliver every payload at
    least once across both broker incarnations — zero loss."""

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_zero_loss_across_bounce(self, seed):
        received = set()

        def hook(client_id, publish):
            received.add(bytes(publish.payload))

        injector = BrokerFaultInjector(plan=FaultPlan(seed))
        broker = MQTTBroker("127.0.0.1", 0, fault_injector=injector)
        broker.add_publish_hook(hook)
        broker.start()
        port = broker.port
        publisher = MQTTClient(
            "bounce-pub", port=port, keepalive=0, reconnect_min_delay_s=0.05
        )
        publisher.connect()
        payloads = [f"bounce-{seed}-{i}".encode() for i in range(60)]
        try:
            # Injected cut a few chunks in (CONNECT is the first), then
            # a full broker bounce mid-run: two distinct outages.
            injector.disconnect_client_after("bounce-pub", chunks=4)
            for i, payload in enumerate(payloads):
                publisher.publish("/bounce/t", payload, qos=1)
                if i == 30:
                    broker.stop()
                    broker = MQTTBroker("127.0.0.1", port, fault_injector=injector)
                    broker.add_publish_hook(hook)
                    broker.start()
                time.sleep(0.005)
            deadline = time.monotonic() + 20
            while received != set(payloads) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert received == set(payloads), (
                f"lost {sorted(set(payloads) - received)}"
            )
            assert injector.disconnects == 1
            assert publisher.reconnects >= 2  # seam cut + bounce
        finally:
            publisher.disconnect()
            broker.stop()
