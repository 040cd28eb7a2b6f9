"""Tests for the simulated-deployment helper."""

import pytest

from repro.simulation.simcluster import SimClusterConfig, SimulatedCluster
from repro.storage import MemoryBackend, StorageCluster


class TestSimulatedCluster:
    def test_default_topology(self):
        sim = SimulatedCluster(SimClusterConfig(hosts=2, sensors_per_host=5))
        assert sim.total_sensors == 10
        assert sim.run(3) == sim.expected_readings(3) == 30

    def test_subsecond_interval(self):
        sim = SimulatedCluster(
            SimClusterConfig(hosts=1, sensors_per_host=4, interval_ms=250)
        )
        assert sim.run(2) == 2 * 4 * 4  # four cycles per second

    def test_repeated_runs_accumulate(self):
        sim = SimulatedCluster(SimClusterConfig(hosts=1, sensors_per_host=3))
        sim.run(5)
        sim.run(5)
        assert sim.agent.metrics.value("dcdb_agent_readings_stored_total") == 30

    def test_multi_node_storage_with_replication(self):
        sim = SimulatedCluster(
            SimClusterConfig(
                hosts=4, sensors_per_host=10, storage_nodes=2, replication=2
            )
        )
        sim.run(5)
        assert isinstance(sim.backend, StorageCluster)
        assert len(sim.backend.nodes) == 2
        # Replication 2 over 2 nodes: every reading twice.
        assert sim.backend.row_count == 2 * sim.agent.metrics.value("dcdb_agent_readings_stored_total")

    def test_memory_backend_flag(self):
        sim = SimulatedCluster(
            SimClusterConfig(hosts=1, sensors_per_host=2, use_memory_backend=True)
        )
        assert isinstance(sim.backend, MemoryBackend)
        sim.run(2)
        assert len(sim.backend.sids()) == 2

    def test_all_sensor_series_complete(self):
        sim = SimulatedCluster(SimClusterConfig(hosts=3, sensors_per_host=4))
        sim.run(10)
        for sid in sim.backend.sids():
            ts, _ = sim.backend.query(sid, 0, 1 << 62)
            assert ts.size == 10


class TestOneBroker:
    def test_run_reaches_the_agent_through_the_production_broker(self, monkeypatch):
        """A simulation step is framed by the Pushers' clients, decoded
        by ``StreamDecoder.feed`` and dispatched by
        ``MQTTBroker._on_packets``: one hook call per group cycle."""
        from repro.mqtt.broker import MQTTBroker
        from repro.mqtt.packets import StreamDecoder

        calls = {"feed": 0, "on_packets": []}
        feed, on_packets = StreamDecoder.feed, MQTTBroker._on_packets

        def counting_feed(self, data):
            calls["feed"] += 1
            return feed(self, data)

        def counting_on_packets(self, conn, packets):
            calls["on_packets"].append(len(packets))
            return on_packets(self, conn, packets)

        monkeypatch.setattr(StreamDecoder, "feed", counting_feed)
        monkeypatch.setattr(MQTTBroker, "_on_packets", counting_on_packets)
        sim = SimulatedCluster(SimClusterConfig(hosts=2, sensors_per_host=5))
        setup = list(calls["on_packets"])  # CONNECTs and metadata announcements
        assert sim.broker.port is None
        assert sim.broker.transport_threads == 0
        assert sim.run(3) == 30
        assert calls["on_packets"][len(setup) :] == [5] * (2 * 3)
        assert calls["feed"] > len(calls["on_packets"])  # CONNACKs fed client-side
        sim.stop()
