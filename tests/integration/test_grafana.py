"""Tests for the Grafana JSON data source."""

import json
import urllib.request

import numpy as np
import pytest

from repro.common.httpjson import http_json
from repro.common.timeutil import NS_PER_SEC, SimClock
from repro.core.collectagent import CollectAgent
from repro.core.pusher import Pusher, PusherConfig
from repro.grafana import GrafanaDataSource
from repro.libdcdb.api import DCDBClient, SensorConfig
from repro.libdcdb.virtualsensors import VirtualSensorDef
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient
from repro.storage import MemoryBackend


@pytest.fixture
def datasource():
    broker = MQTTBroker(port=None)
    backend = MemoryBackend()
    agent = CollectAgent(backend, broker=broker)
    pusher = Pusher(
        PusherConfig(mqtt_prefix="/g/rack0/node0"),
        client=MQTTClient("p", broker=broker),
        clock=SimClock(0),
    )
    pusher.load_plugin(
        "tester",
        "group power { interval 1000\n numSensors 2\n generator constant\n startValue 300 }",
    )
    pusher.client.connect()
    pusher.start_plugin("tester")
    pusher.advance_to(120 * NS_PER_SEC)
    client = DCDBClient(backend)
    for i in range(2):
        client.set_sensor_config(
            SensorConfig(topic=f"/g/rack0/node0/power/s{i}", unit="W")
        )
    client.define_virtual_sensor(
        VirtualSensorDef(
            name="rack_power", expression="sum(</g/rack0>)", unit="W"
        )
    )
    with GrafanaDataSource(client) as ds:
        yield ds


def post(ds, path, payload):
    request = urllib.request.Request(
        f"http://127.0.0.1:{ds.port}{path}",
        data=json.dumps(payload).encode(),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return response.status, json.loads(response.read())


class TestDataSource:
    def test_health(self, datasource):
        status, body = http_json("GET", f"http://127.0.0.1:{datasource.port}/")
        assert status == 200 and body["status"] == "ok"

    def test_search_lists_metrics(self, datasource):
        status, body = post(datasource, "/search", {"target": "/g"})
        assert status == 200
        assert "/g/rack0/node0/power/s0" in body

    def test_search_includes_virtual_sensors(self, datasource):
        _, body = post(datasource, "/search", {"target": "/virtual"})
        assert "/virtual/rack_power" in body

    def test_query_series(self, datasource):
        status, body = post(
            datasource,
            "/query",
            {
                "range": {"from_ns": 0, "to_ns": 200 * NS_PER_SEC},
                "targets": [{"target": "/g/rack0/node0/power/s0"}],
            },
        )
        assert status == 200
        series = body[0]
        assert series["target"] == "/g/rack0/node0/power/s0"
        assert len(series["datapoints"]) == 120
        value, ts_ms = series["datapoints"][0]
        assert value == 300.0
        assert ts_ms == 1000  # epoch ms

    def test_query_downsamples_to_max_points(self, datasource):
        _, body = post(
            datasource,
            "/query",
            {
                "range": {"from_ns": 0, "to_ns": 200 * NS_PER_SEC},
                "targets": [{"target": "/g/rack0/node0/power/s0"}],
                "maxDataPoints": 10,
            },
        )
        assert len(body[0]["datapoints"]) <= 12

    def test_query_virtual_sensor(self, datasource):
        _, body = post(
            datasource,
            "/query",
            {
                "range": {"from_ns": NS_PER_SEC, "to_ns": 100 * NS_PER_SEC},
                "targets": [{"target": "/virtual/rack_power"}],
            },
        )
        points = body[0]["datapoints"]
        assert points and points[0][0] == pytest.approx(600.0, abs=0.01)

    def test_query_unknown_topic_reports_error(self, datasource):
        _, body = post(
            datasource,
            "/query",
            {
                "range": {"from_ns": 0, "to_ns": 10},
                "targets": [{"target": "/ghost"}],
            },
        )
        assert body[0]["datapoints"] == []
        assert "error" in body[0]

    def test_multiple_targets(self, datasource):
        _, body = post(
            datasource,
            "/query",
            {
                "range": {"from_ns": 0, "to_ns": 200 * NS_PER_SEC},
                "targets": [
                    {"target": "/g/rack0/node0/power/s0"},
                    {"target": "/g/rack0/node0/power/s1"},
                ],
            },
        )
        assert len(body) == 2

    def test_hierarchy_drilldown(self, datasource):
        # The paper's Figure 3 drop-down navigation.
        status, body = http_json(
            "GET", f"http://127.0.0.1:{datasource.port}/hierarchy?prefix="
        )
        assert body == ["g"]
        _, body = http_json(
            "GET", f"http://127.0.0.1:{datasource.port}/hierarchy?prefix=/g/rack0"
        )
        assert body == ["node0"]
        _, body = http_json(
            "GET",
            f"http://127.0.0.1:{datasource.port}/hierarchy?prefix=/g/rack0/node0/power",
        )
        assert body == ["s0", "s1"]


class TestDatapointsFromColumns:
    """The response is shaped from whole columns; its bytes must equal
    the per-point ``[float(v), int(t // 1e6)]`` formula on a raw, a
    tier-served and a virtual-sensor query."""

    TOPICS = ["/g/rack0/node0/power", "/g/rack0/node1/power"]

    @pytest.fixture
    def served(self):
        from repro.core.sid import SensorId
        from repro.storage.rollup import RollupEngine

        backend = MemoryBackend()
        engine = RollupEngine(backend)
        client = DCDBClient(backend)
        rng = np.random.default_rng(27)
        ts = np.arange(0, 7300, dtype=np.int64) * NS_PER_SEC + 123_456
        for i, topic in enumerate(self.TOPICS):
            sid = SensorId.from_codes([1, 1, i + 1])
            backend.put_metadata(f"sidmap{topic}", sid.hex())
            # Scale 0.001: physical values are non-trivial floats.
            client.set_sensor_config(SensorConfig(topic=topic, unit="W", scale=0.001))
            values = 150_000 + np.cumsum(rng.integers(-400, 401, ts.size))
            items = [(sid, int(t), int(v), 0) for t, v in zip(ts, values)]
            backend.insert_batch(items)
            engine.observe(items)
        client.define_virtual_sensor(
            VirtualSensorDef(name="rack_power", expression="sum(</g/rack0>)", unit="W")
        )
        with GrafanaDataSource(client) as ds:
            yield ds, client

    @staticmethod
    def _raw_body(ds, payload):
        request = urllib.request.Request(
            f"http://127.0.0.1:{ds.port}/query",
            data=json.dumps(payload).encode(),
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request) as response:
            return response.read()

    @staticmethod
    def _per_point(series):
        return json.dumps(
            [
                {
                    "target": topic,
                    "datapoints": [
                        [float(v), int(t // 1_000_000)]
                        for t, v in zip(timestamps.tolist(), values.tolist())
                    ],
                }
                for topic, (timestamps, values) in series
            ]
        ).encode("utf-8")

    def test_raw_query_bytes(self, served):
        ds, client = served
        start, end = 100 * NS_PER_SEC, 700 * NS_PER_SEC
        body = self._raw_body(
            ds, {"range": {"from_ns": start, "to_ns": end}, "targets": [{"target": t} for t in self.TOPICS]}
        )
        assert client.plan_aggregate(self.TOPICS[0], start, end, 1000).tier_index is None
        expected = self._per_point([(t, client.query(t, start, end)) for t in self.TOPICS])
        assert body == expected

    def test_tier_served_query_bytes(self, served):
        ds, client = served
        start, end = 0, 7200 * NS_PER_SEC
        payload = {
            "range": {"from_ns": start, "to_ns": end},
            "targets": [{"target": t} for t in self.TOPICS],
            "maxDataPoints": 100,
        }
        body = self._raw_body(ds, payload)
        assert client.plan_aggregate(self.TOPICS[0], start, end, 100).tier_index is not None
        series = client.query_aggregate_many(self.TOPICS, start, end, "avg", 100)
        assert body == self._per_point([(t, series[t]) for t in self.TOPICS])

    def test_virtual_sensor_query_bytes(self, served):
        ds, client = served
        start, end = 10 * NS_PER_SEC, 400 * NS_PER_SEC
        topic = "/virtual/rack_power"
        body = self._raw_body(ds, {"range": {"from_ns": start, "to_ns": end}, "targets": [{"target": topic}]})
        assert body == self._per_point([(topic, client.query(topic, start, end))])
