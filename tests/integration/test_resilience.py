"""Resilience: the monitoring pipeline survives component failures."""

import time

import pytest

from repro.common.timeutil import NS_PER_SEC
from repro.core.collectagent import CollectAgent
from repro.core.pusher import Pusher, PusherConfig
from repro.mqtt.client import MQTTClient
from repro.storage import MemoryBackend


class TestAgentRestart:
    def test_pusher_survives_agent_outage_and_reconnects(self):
        """Kill the Collect Agent mid-run; the Pusher keeps sampling,
        reconnects once the agent returns, and data flow resumes."""
        backend = MemoryBackend()
        agent = CollectAgent(backend, port=0)
        agent.start()
        port = agent.port
        client = MQTTClient("resilient-pusher", port=port, keepalive=1)
        pusher = Pusher(
            PusherConfig(mqtt_prefix="/res/n0", broker_port=port), client=client
        )
        # Fast reconnect for the test.
        pusher.RECONNECT_BACKOFF_NS = int(0.2 * NS_PER_SEC)
        pusher.load_plugin("tester", "group g { interval 100\n numSensors 2 }")
        pusher.start_plugin("tester")
        pusher.start()
        try:
            deadline = time.monotonic() + 10
            while agent.metrics.value("dcdb_agent_readings_stored_total") < 4 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert agent.metrics.value("dcdb_agent_readings_stored_total") >= 4

            # --- outage -------------------------------------------------
            agent.stop()
            time.sleep(0.6)
            collected = pusher.metrics.get("dcdb_pusher_readings_collected_total")
            collected_during_outage = collected.value
            time.sleep(0.4)
            # Sampling continued throughout the outage.
            assert collected.value > collected_during_outage
            assert pusher.metrics.value("dcdb_pusher_publish_failures_total") > 0

            # --- recovery: new agent on the same port -------------------
            backend2 = MemoryBackend()
            agent2 = CollectAgent(backend2, port=port)
            agent2.start()
            try:
                deadline = time.monotonic() + 15
                while agent2.metrics.value("dcdb_agent_readings_stored_total") < 4 and time.monotonic() < deadline:
                    time.sleep(0.05)
                assert agent2.metrics.value("dcdb_agent_readings_stored_total") >= 4
                assert pusher.metrics.value("dcdb_pusher_reconnects_total") >= 1
                # Metadata was re-announced on reconnect.
                assert agent2.metrics.value("dcdb_agent_metadata_announcements_total") >= 2
            finally:
                agent2.stop()
        finally:
            pusher.stop()

    def test_reconnect_attempts_rate_limited(self):
        """With no agent at all, reconnects are bounded by the backoff."""
        client = MQTTClient("lonely", port=1)
        pusher = Pusher(PusherConfig(mqtt_prefix="/lonely"), client=client)
        pusher.RECONNECT_BACKOFF_NS = 3600 * NS_PER_SEC  # one per hour
        pusher.load_plugin("tester", "group g { interval 100\n numSensors 1 }")
        pusher.start_plugin("tester")
        # Force failures by publishing through a dead client: ten
        # cycles of the one-sensor group, one message each.
        group = pusher.plugins["tester"].groups[0]
        assert pusher.advance_to(group.next_due_ns + 9 * group.interval_ns) == 10
        assert pusher.metrics.value("dcdb_pusher_publish_failures_total") == 10
        # Only the first failure triggered a connect attempt (which
        # itself failed against port 1); the rest were suppressed.
        assert pusher.metrics.value("dcdb_pusher_reconnects_total") == 0
