"""Tests for sensor-metadata auto-publish (Pusher -> Collect Agent)."""

import json

import pytest

from repro.common.timeutil import NS_PER_SEC, SimClock
from repro.core.collectagent import CollectAgent
from repro.core.pusher import Pusher, PusherConfig
from repro.libdcdb.api import DCDBClient
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient
from repro.storage import MemoryBackend

CONFIG = """
group power {
    interval 1000
    sensor p0 {
        mqttsuffix /p0
        unit W
        scale 10
        integrable true
    }
}
"""



def make_stack():
    broker = MQTTBroker(port=None)
    backend = MemoryBackend()
    agent = CollectAgent(backend, broker=broker)
    pusher = Pusher(
        PusherConfig(mqtt_prefix="/md/n0"),
        client=MQTTClient("p", broker=broker),
        clock=SimClock(0),
    )
    return pusher, agent, backend


class TestAnnouncement:
    def test_announce_persists_sensor_config(self):
        pusher, agent, backend = make_stack()
        pusher.load_plugin("tester", "group g { interval 1000\n numSensors 1 }")
        pusher.client.connect()
        sent = pusher.announce_metadata()
        assert sent == 1
        assert agent.metrics.value("dcdb_agent_metadata_announcements_total") == 1
        config = DCDBClient(backend).sensor_config("/md/n0/g/s0")
        assert config.topic == "/md/n0/g/s0"

    def test_announced_unit_and_scale_applied_on_query(self):
        pusher, agent, backend = make_stack()
        # Use the mini config with explicit unit/scale via the tester
        # plugin's explicit sensor block support.
        pusher.load_plugin(
            "tester",
            """
            group power {
                interval 1000
                sensor p0 {
                    mqttsuffix /p0
                    unit W
                    scale 10
                    integrable true
                }
            }
            """,
        )
        pusher.client.connect()
        pusher.announce_metadata()
        pusher.start_plugin("tester")
        pusher.advance_to(5 * NS_PER_SEC)
        dcdb = DCDBClient(backend)
        config = dcdb.sensor_config("/md/n0/p0")
        assert config.unit == "W"
        assert config.scale == 10.0
        assert config.integrable is True
        # Queries decode with the announced scale automatically.
        ts, values = dcdb.query("/md/n0/p0", 0, 10 * NS_PER_SEC)
        raw_ts, raw = dcdb.query_raw("/md/n0/p0", 0, 10 * NS_PER_SEC)
        assert values.tolist() == pytest.approx((raw / 10.0).tolist())

    def test_metadata_not_stored_as_readings(self):
        pusher, agent, backend = make_stack()
        pusher.load_plugin("tester", "group g { interval 1000\n numSensors 2 }")
        pusher.client.connect()
        pusher.announce_metadata()
        assert agent.metrics.value("dcdb_agent_readings_stored_total") == 0
        assert backend.sids() == []

    def test_malformed_announcement_counted(self):
        pusher, agent, backend = make_stack()
        pusher.client.connect()
        pusher.client.publish("$DCDB/metadata/x", b"this is not json")
        assert agent.metrics.value("dcdb_agent_decode_errors_total") == 1

    def test_topic_mismatch_rejected(self):
        pusher, agent, backend = make_stack()
        pusher.client.connect()
        document = json.dumps({"topic": "/somewhere/else"}).encode()
        pusher.client.publish("$DCDB/metadata/md/n0/s", document)
        assert agent.metrics.value("dcdb_agent_decode_errors_total") == 1
        assert agent.metrics.value("dcdb_agent_metadata_announcements_total") == 0

    def test_wildcard_consumers_do_not_see_system_topics(self):
        # Metadata travels on a $-prefixed topic, which MQTT excludes
        # from wildcard subscriptions.
        from repro.mqtt.topics import topic_matches

        assert not topic_matches("#", "$DCDB/metadata/md/n0/s")

    def test_threaded_start_announces_automatically(self):
        import time

        broker = MQTTBroker(port=None)
        backend = MemoryBackend()
        agent = CollectAgent(backend, broker=broker)
        pusher = Pusher(
            PusherConfig(mqtt_prefix="/auto/n0"),
            client=MQTTClient("p", broker=broker),
        )
        pusher.load_plugin("tester", "group g { interval 100\n numSensors 3 }")
        pusher.start_plugin("tester")
        pusher.start()
        try:
            deadline = time.monotonic() + 5
            while agent.metrics.value("dcdb_agent_metadata_announcements_total") < 3 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert agent.metrics.value("dcdb_agent_metadata_announcements_total") == 3
        finally:
            pusher.stop()
