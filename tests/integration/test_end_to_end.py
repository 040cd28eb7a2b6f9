"""Full-stack integration: Pusher -> TCP broker/Collect Agent -> storage -> libDCDB.

This is the paper's Figure 2 data flow exercised over real sockets and
real sampling threads, then queried through the user-facing API.
"""

import socket
import time

import pytest

from repro.common.timeutil import NS_PER_SEC, SimClock
from repro.core.collectagent import CollectAgent
from repro.core.pusher import Pusher, PusherConfig
from repro.libdcdb.api import DCDBClient, SensorConfig
from repro.libdcdb.virtualsensors import VirtualSensorDef
from repro.mqtt import packets as pkt
from repro.mqtt.client import MQTTClient
from repro.mqtt.broker import MQTTBroker
from repro.storage import MemoryBackend, SqliteBackend, StorageCluster, StorageNode
from repro.storage.partitioner import HierarchicalPartitioner


class TestTcpPipeline:
    def test_threaded_pusher_to_tcp_agent(self):
        backend = MemoryBackend()
        agent = CollectAgent(backend, port=0)
        agent.start()
        try:
            client = MQTTClient("e2e-pusher", port=agent.port)
            pusher = Pusher(
                PusherConfig(mqtt_prefix="/e2e/node0", threads=2), client=client
            )
            pusher.load_plugin("tester", "group g { interval 100\n numSensors 4 }")
            pusher.start_plugin("tester")
            pusher.start()
            try:
                deadline = time.monotonic() + 10.0
                while agent.metrics.value("dcdb_agent_readings_stored_total") < 20 and time.monotonic() < deadline:
                    time.sleep(0.05)
                assert agent.metrics.value("dcdb_agent_readings_stored_total") >= 20
            finally:
                pusher.stop()
            # Query what was collected through libDCDB.
            dcdb = DCDBClient(backend)
            topics = dcdb.topics("/e2e")
            assert len(topics) == 4
            ts, values = dcdb.query(topics[0], 0, (1 << 62))
            assert ts.size >= 5
            # Synchronized sampling: timestamps are 100ms-aligned.
            assert all(t % 100_000_000 == 0 for t in ts.tolist())
        finally:
            agent.stop()

    def test_agent_rejects_subscribers(self):
        backend = MemoryBackend()
        agent = CollectAgent(backend, port=0)
        agent.start()
        try:
            with socket.create_connection(("127.0.0.1", agent.port), timeout=3.0) as sock:
                sock.sendall(pkt.Connect(client_id="consumer", keepalive=0).encode())
                sock.sendall(pkt.Subscribe(packet_id=1, topics=(("/#", 0),)).encode())
                decoder, packets = pkt.StreamDecoder(), []
                while len(packets) < 2:
                    data = sock.recv(64)
                    assert data, "the agent closed the session"
                    packets += decoder.feed(data)
            assert packets == [pkt.ConnAck(), pkt.SubAck(1, (pkt.SUBACK_FAILURE,))]
        finally:
            agent.stop()


class TestClusterPipeline:
    def test_pushers_to_distributed_storage(self):
        # Three pushers (three "racks"), two storage nodes, replication 2.
        nodes = [StorageNode("sb0"), StorageNode("sb1")]
        cluster = StorageCluster(
            nodes, partitioner=HierarchicalPartitioner(2, levels=2), replication=2
        )
        broker = MQTTBroker(port=None)
        agent = CollectAgent(cluster, broker=broker)
        clock = SimClock(0)
        pushers = []
        for rack in range(3):
            pusher = Pusher(
                PusherConfig(mqtt_prefix=f"/sys/rack{rack}/node0"),
                client=MQTTClient(f"p{rack}", broker=broker),
                clock=clock,
            )
            pusher.load_plugin("tester", "group g { interval 1000\n numSensors 10 }")
            pusher.client.connect()
            pusher.start_plugin("tester")
            pushers.append(pusher)
        for pusher in pushers:
            pusher.advance_to(30 * NS_PER_SEC)
        assert agent.metrics.value("dcdb_agent_readings_stored_total") == 3 * 10 * 30
        # Replication: every reading lives on both nodes.
        assert nodes[0].row_count + nodes[1].row_count == 2 * agent.metrics.value("dcdb_agent_readings_stored_total")
        # Every sensor readable with full history.
        dcdb = DCDBClient(cluster)
        for rack in range(3):
            ts, _ = dcdb.query(f"/sys/rack{rack}/node0/g/s0", 0, 60 * NS_PER_SEC)
            assert ts.size == 30

    def test_virtual_sensor_over_live_data(self):
        broker = MQTTBroker(port=None)
        backend = MemoryBackend()
        agent = CollectAgent(backend, broker=broker)
        clock = SimClock(0)
        pusher = Pusher(
            PusherConfig(mqtt_prefix="/vs/node0"),
            client=MQTTClient("p", broker=broker),
            clock=clock,
        )
        pusher.load_plugin(
            "tester",
            "group power { interval 1000\n numSensors 4\n generator constant\n startValue 250 }",
        )
        pusher.client.connect()
        pusher.start_plugin("tester")
        pusher.advance_to(60 * NS_PER_SEC)
        dcdb = DCDBClient(backend)
        for i in range(4):
            dcdb.set_sensor_config(
                SensorConfig(topic=f"/vs/node0/power/s{i}", unit="W")
            )
        dcdb.define_virtual_sensor(
            VirtualSensorDef(
                name="node_power", expression="sum(</vs/node0/power>)", unit="W"
            )
        )
        ts, values = dcdb.query("/virtual/node_power", NS_PER_SEC, 59 * NS_PER_SEC)
        assert values[0] == pytest.approx(1000.0, abs=0.01)


class TestSqlitePipeline:
    def test_full_stack_with_sqlite_backend(self, tmp_path):
        # The backend-swap claim (paper section 5.1) end to end: the
        # identical pipeline against SQLite, with data surviving reopen.
        path = str(tmp_path / "monitor.db")
        backend = SqliteBackend(path)
        broker = MQTTBroker(port=None)
        agent = CollectAgent(backend, broker=broker)
        clock = SimClock(0)
        pusher = Pusher(
            PusherConfig(mqtt_prefix="/sq/n0"),
            client=MQTTClient("p", broker=broker),
            clock=clock,
        )
        pusher.load_plugin("tester", "group g { interval 1000\n numSensors 3 }")
        pusher.client.connect()
        pusher.start_plugin("tester")
        pusher.advance_to(10 * NS_PER_SEC)
        agent.stop()
        backend.close()
        reopened = SqliteBackend(path)
        dcdb = DCDBClient(reopened)
        ts, _ = dcdb.query("/sq/n0/g/s0", 0, 60 * NS_PER_SEC)
        assert ts.size == 10
        reopened.close()


class TestRuntimeReconfiguration:
    def test_reload_mid_collection(self):
        broker = MQTTBroker(port=None)
        backend = MemoryBackend()
        agent = CollectAgent(backend, broker=broker)
        clock = SimClock(0)
        pusher = Pusher(
            PusherConfig(mqtt_prefix="/rl/n0"),
            client=MQTTClient("p", broker=broker),
            clock=clock,
        )
        pusher.load_plugin("tester", "group g { interval 1000\n numSensors 2 }")
        pusher.client.connect()
        pusher.start_plugin("tester")
        pusher.advance_to(5 * NS_PER_SEC)
        clock.set(5 * NS_PER_SEC)
        assert agent.metrics.value("dcdb_agent_readings_stored_total") == 10
        # Seamless reload to a larger configuration (paper section 5.3);
        # the restarted groups schedule after the current time.
        pusher.reload_plugin("tester", "group g { interval 1000\n numSensors 6 }")
        pusher.advance_to(10 * NS_PER_SEC)
        assert agent.metrics.value("dcdb_agent_readings_stored_total") == 10 + 5 * 6
        assert len(agent.topics()) == 6
