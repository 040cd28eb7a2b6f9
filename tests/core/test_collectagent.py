"""Tests for the Collect Agent ingest path."""

import pytest

from repro.common.errors import StorageError
from repro.common.timeutil import NS_PER_SEC
from repro.core import payload as payload_mod
from repro.core.collectagent import CollectAgent
from repro.core.sensor import SensorReading
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient
from repro.mqtt.packets import Publish
from repro.storage import MemoryBackend, StorageNode


def make_agent():
    broker = MQTTBroker(port=None)
    backend = MemoryBackend()
    agent = CollectAgent(backend, broker=broker)
    client = MQTTClient("pusher", broker=broker)
    client.connect()
    return agent, backend, client


def publish_reading(client, topic, timestamp, value):
    client.publish(topic, payload_mod.encode_reading(timestamp, value))


class TestIngest:
    def test_reading_stored_under_sid(self):
        agent, backend, client = make_agent()
        publish_reading(client, "/sys/r0/n0/power", 1000, 250)
        sid = agent.sid_of("/sys/r0/n0/power")
        ts, vals = backend.query(sid, 0, 10_000)
        assert ts.tolist() == [1000] and vals.tolist() == [250]

    def test_multi_reading_payload(self):
        agent, backend, client = make_agent()
        readings = [SensorReading(i, i * 2) for i in range(1, 6)]
        client.publish("/s/a", payload_mod.encode_readings(readings))
        assert agent.metrics.value("dcdb_agent_readings_stored_total") == 5

    def test_topic_sid_mapping_persisted(self):
        agent, backend, client = make_agent()
        publish_reading(client, "/sys/r0/n0/power", 1, 1)
        stored_hex = backend.get_metadata("sidmap/sys/r0/n0/power")
        assert stored_hex == agent.sid_of("/sys/r0/n0/power").hex()

    def test_mapping_persisted_once(self):
        agent, backend, client = make_agent()
        publish_reading(client, "/s/a", 1, 1)
        first = backend.get_metadata("sidmap/s/a")
        publish_reading(client, "/s/a", 2, 2)
        assert backend.get_metadata("sidmap/s/a") == first

    def test_failed_mapping_write_is_retried_by_the_next_message(self):
        # The topic->SID mapping is persisted before the mapper installs
        # the topic, so a failed write leaves it unknown and the next
        # message registers it again.
        broker = MQTTBroker(port=None)
        backend = StorageNode()
        real = backend.put_metadata_many
        failures = [1]

        def put_metadata_many(pairs):
            pairs = list(pairs)
            if failures and any(key.startswith("sidmap") for key, _ in pairs):
                failures.pop()
                raise StorageError("metadata write failed")
            real(pairs)

        backend.put_metadata_many = put_metadata_many
        agent = CollectAgent(backend, broker=broker)
        client = MQTTClient("pusher", broker=broker)
        client.connect()
        with pytest.raises(StorageError):
            agent._on_publish("pusher", [Publish("/a/b/c", payload_mod.encode_reading(1, 1))])
        publish_reading(client, "/a/b/c", 2, 2)
        assert agent.metrics.value("dcdb_agent_readings_stored_total") == 1
        assert backend.get_metadata("sidmap/a/b/c") == agent.sid_of("/a/b/c").hex()

    def test_malformed_payload_counted(self):
        agent, backend, client = make_agent()
        client.publish("/s/bad", b"\x01\x02\x03")  # not a 16-byte multiple
        assert agent.metrics.value("dcdb_agent_decode_errors_total") == 1
        assert agent.metrics.value("dcdb_agent_readings_stored_total") == 0

    def test_empty_payload_ignored(self):
        agent, backend, client = make_agent()
        client.publish("/s/empty", b"")
        assert agent.metrics.value("dcdb_agent_readings_stored_total") == 0
        assert agent.metrics.value("dcdb_agent_decode_errors_total") == 0

    def test_too_deep_topic_counted_as_error(self):
        agent, backend, client = make_agent()
        deep = "/" + "/".join(f"l{i}" for i in range(9))
        client.publish(deep, payload_mod.encode_reading(1, 1))
        assert agent.metrics.value("dcdb_agent_decode_errors_total") == 1

    def test_ttl_applied(self):
        broker = MQTTBroker(port=None)
        clock = lambda: 0  # noqa: E731 - frozen clock
        backend = MemoryBackend(clock=lambda: now[0])
        now = [0]
        agent = CollectAgent(backend, broker=broker, default_ttl_s=10)
        client = MQTTClient("p", broker=broker)
        client.connect()
        publish_reading(client, "/s/t", 1 * NS_PER_SEC, 5)
        sid = agent.sid_of("/s/t")
        now[0] = 5 * NS_PER_SEC
        assert backend.query(sid, 0, 100 * NS_PER_SEC)[0].size == 1
        now[0] = 12 * NS_PER_SEC
        assert backend.query(sid, 0, 100 * NS_PER_SEC)[0].size == 0


class TestCache:
    def test_latest_reading_cached(self):
        agent, backend, client = make_agent()
        publish_reading(client, "/s/a", 1, 10)
        publish_reading(client, "/s/a", 2, 20)
        assert agent.latest("/s/a") == SensorReading(2, 20)

    def test_unknown_topic_latest_none(self):
        agent, _, _ = make_agent()
        assert agent.latest("/never") is None

    def test_cached_topics_sorted(self):
        agent, backend, client = make_agent()
        publish_reading(client, "/s/b", 1, 1)
        publish_reading(client, "/s/a", 1, 1)
        assert agent.topics() == ["/s/a", "/s/b"]

    def test_cache_of(self):
        agent, backend, client = make_agent()
        publish_reading(client, "/s/a", 1, 1)
        assert agent.recent("/s/a") == [SensorReading(1, 1)]
        assert agent.recent("/nope") is None

    def test_restarted_agent_answers_for_stored_topics(self):
        """A new agent on the same store has seen no message yet, but
        its topics, latest and recent readings come from the store."""
        backend = StorageNode("n0")
        broker = MQTTBroker(port=None)
        CollectAgent(backend, broker=broker)
        client = MQTTClient("pusher", broker=broker)
        client.connect()
        publish_reading(client, "/x/y/z", 5, 50)
        restarted = CollectAgent(backend, broker=MQTTBroker(port=None))
        assert restarted.topics() == ["/x/y/z"]
        assert restarted.latest("/x/y/z") == SensorReading(5, 50)
        assert restarted.recent("/x/y/z") == [SensorReading(5, 50)]
        assert restarted.latest("/x/y") is None and restarted.recent("/x/y") is None


class TestStatus:
    def test_status_counters(self):
        agent, backend, client = make_agent()
        publish_reading(client, "/s/a", 1, 1)
        publish_reading(client, "/s/b", 1, 1)
        status = agent.status()
        assert status["readingsStored"] == 2
        assert status["knownSensors"] == 2
        assert status["messagesReceived"] == 2
        assert status["decodeErrors"] == 0
