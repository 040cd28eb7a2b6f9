"""Tests for the Pusher and Collect Agent RESTful APIs over HTTP."""

import pytest

from repro.common.httpjson import http_json
from repro.common.timeutil import NS_PER_SEC, SimClock
from repro.core import payload as payload_mod
from repro.core.collectagent import CollectAgent
from repro.core.collectagent.restapi import CollectAgentRestApi
from repro.core.pusher import Pusher, PusherConfig
from repro.core.pusher.restapi import PusherRestApi
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient
from repro.storage import MemoryBackend


@pytest.fixture
def stack():
    broker = MQTTBroker(port=None)
    backend = MemoryBackend()
    agent = CollectAgent(backend, broker=broker)
    clock = SimClock(0)
    pusher = Pusher(
        PusherConfig(mqtt_prefix="/api/h0"),
        client=MQTTClient("p0", broker=broker),
        clock=clock,
    )
    pusher.load_plugin("tester", "group g0 { interval 1000\n numSensors 3 }")
    pusher.client.connect()
    pusher.start_plugin("tester")
    pusher.advance_to(5 * NS_PER_SEC)
    with PusherRestApi(pusher) as papi, CollectAgentRestApi(agent) as aapi:
        yield pusher, agent, papi, aapi


def url(api, path):
    return f"http://127.0.0.1:{api.port}{path}"


class TestPusherApi:
    def test_status(self, stack):
        pusher, _, papi, _ = stack
        status, body = http_json("GET", url(papi, "/status"))
        assert status == 200
        assert body["readingsCollected"] == 15
        assert body["plugins"]["tester"]["sensors"] == 3

    def test_plugins_listing(self, stack):
        _, _, papi, _ = stack
        _, body = http_json("GET", url(papi, "/plugins"))
        assert body["tester"]["groups"][0]["intervalMs"] == 1000

    def test_sensor_inventory(self, stack):
        _, _, papi, _ = stack
        _, body = http_json("GET", url(papi, "/plugins/tester/sensors"))
        topics = {s["topic"] for s in body}
        assert topics == {f"/api/h0/g0/s{i}" for i in range(3)}
        assert all(s["latest"] is not None for s in body)

    def test_sensor_inventory_unknown_plugin(self, stack):
        _, _, papi, _ = stack
        status, _ = http_json("GET", url(papi, "/plugins/ghost/sensors"))
        assert status == 404

    def test_cache_endpoint(self, stack):
        _, _, papi, _ = stack
        status, body = http_json(
            "GET", url(papi, "/cache?topic=/api/h0/g0/s0")
        )
        assert status == 200
        assert len(body) == 5
        assert body[-1]["timestamp"] == 5 * NS_PER_SEC

    def test_cache_missing_topic_param(self, stack):
        _, _, papi, _ = stack
        status, _ = http_json("GET", url(papi, "/cache"))
        assert status == 400

    def test_average_endpoint(self, stack):
        _, _, papi, _ = stack
        status, body = http_json(
            "GET", url(papi, "/average?topic=/api/h0/g0/s0")
        )
        assert status == 200
        assert body["average"] == pytest.approx(2.0)  # values 0..4

    def test_cache_answers_every_reading_exactly(self, stack):
        _, _, papi, _ = stack
        _, cache = http_json("GET", url(papi, "/cache?topic=/api/h0/g0/s1"))
        assert cache == [{"timestamp": k * NS_PER_SEC, "value": k} for k in range(1, 6)]
        _, body = http_json("GET", url(papi, "/average?topic=/api/h0/g0/s1&window_ms=1000"))
        assert body == {"average": 4.5}
        _, sensors = http_json("GET", url(papi, "/plugins/tester/sensors"))
        assert sensors[1] == {
            "name": "g0_s1",
            "topic": "/api/h0/g0/s1",
            "unit": "count",
            "group": "g0",
            "latest": {"timestamp": 5 * NS_PER_SEC, "value": 5},
        }

    def test_stop_start_via_api(self, stack):
        pusher, _, papi, _ = stack
        http_json("POST", url(papi, "/plugins/tester/stop"), body={})
        assert not pusher.plugins["tester"].running
        http_json("POST", url(papi, "/plugins/tester/start"), body={})
        assert pusher.plugins["tester"].running

    def test_reload_via_api(self, stack):
        pusher, _, papi, _ = stack
        import urllib.request

        request = urllib.request.Request(
            url(papi, "/plugins/tester/reload"),
            data=b"group g0 { interval 1000\n numSensors 7 }",
            method="POST",
        )
        with urllib.request.urlopen(request) as response:
            assert response.status == 200
        assert pusher.plugins["tester"].sensor_count == 7


class TestAgentApi:
    def test_status(self, stack):
        _, agent, _, aapi = stack
        status, body = http_json("GET", url(aapi, "/status"))
        assert status == 200
        assert body["readingsStored"] == 15

    def test_topics(self, stack):
        _, _, _, aapi = stack
        _, body = http_json("GET", url(aapi, "/topics"))
        assert len(body) == 3

    def test_latest(self, stack):
        _, _, _, aapi = stack
        status, body = http_json(
            "GET", url(aapi, "/latest?topic=/api/h0/g0/s1")
        )
        assert status == 200
        assert body["timestamp"] == 5 * NS_PER_SEC

    def test_latest_unknown_topic(self, stack):
        _, _, _, aapi = stack
        status, _ = http_json("GET", url(aapi, "/latest?topic=/ghost"))
        assert status == 404

    def test_query_from_storage(self, stack):
        _, _, _, aapi = stack
        status, body = http_json(
            "GET",
            url(aapi, f"/query?topic=/api/h0/g0/s0&start=0&end={10 * NS_PER_SEC}"),
        )
        assert status == 200
        assert len(body["timestamps"]) == 5

    def test_cache_endpoint(self, stack):
        _, _, _, aapi = stack
        status, body = http_json("GET", url(aapi, "/cache?topic=/api/h0/g0/s2"))
        assert status == 200 and len(body) == 5


class TestAgentAnalyticsEndpoints:
    def test_no_manager_404(self, stack):
        _, _, _, aapi = stack
        status, _ = http_json("GET", url(aapi, "/analytics"))
        assert status == 404
        status, _ = http_json("GET", url(aapi, "/alarms"))
        assert status == 404

    def test_analytics_status_and_alarms(self):
        from repro.analytics import AnalyticsManager, ThresholdAlarm
        from repro.core.collectagent.restapi import CollectAgentRestApi
        from repro.core.sensor import SensorReading
        from repro.mqtt.broker import MQTTBroker
        from repro.storage import MemoryBackend

        broker = MQTTBroker(port=None)
        agent = CollectAgent(MemoryBackend(), broker=broker)
        manager = AnalyticsManager()
        manager.add_operator(ThresholdAlarm("cap", ["/p/#"], high=100))
        manager.attach_to_agent(agent)
        agent.analytics = manager
        manager.feed("/p/n0", SensorReading(NS_PER_SEC, 500))
        with CollectAgentRestApi(agent) as api:
            status, body = http_json("GET", url(api, "/analytics"))
            assert status == 200
            assert body["operators"][0]["name"] == "cap"
            status, alarms = http_json("GET", url(api, "/alarms?limit=10"))
            assert status == 200
            assert len(alarms) == 1
            assert alarms[0]["operator"] == "cap"
            assert alarms[0]["value"] == 1
