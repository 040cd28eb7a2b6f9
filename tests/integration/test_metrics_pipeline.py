"""End-to-end observability: trace stamps, /metrics scrapes, dcdbmon.

Boots the in-process pipeline (Pusher -> memory-pipe broker -> CollectAgent ->
storage) and asserts that

* one reading produces pipeline-latency stamps at every hop,
* both REST APIs expose a valid Prometheus ``/metrics`` document with
  at least one counter, gauge and histogram,
* the dcdbmon plugin round-trips framework metrics through MQTT into
  storage, where libDCDB can query them like any other sensor.
"""

from __future__ import annotations

import pytest

from repro.common.httpjson import http_json, http_text
from repro.common.timeutil import NS_PER_SEC, SimClock
from repro.core.collectagent import CollectAgent
from repro.core.collectagent.restapi import CollectAgentRestApi
from repro.core.pusher import Pusher, PusherConfig
from repro.core.pusher.restapi import PusherRestApi
from repro.libdcdb import DCDBClient
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient
from repro.observability import PIPELINE_METRIC, parse_prometheus_text
from repro.storage import MemoryBackend
from repro.storage.cluster import StorageCluster
from repro.storage.node import StorageNode

TESTER_CONFIG = "group g0 { interval 1000\n numSensors 4 }"


def _run_pipeline(pipeline, seconds: float = 5.0) -> None:
    pipeline.load_and_start("tester", TESTER_CONFIG)
    pipeline.run(seconds)


class TestTraceStamps:
    def test_every_hop_stamped(self, pipeline):
        _run_pipeline(pipeline)
        pusher_reg = pipeline.pusher.metrics
        agent_reg = pipeline.agent.metrics
        for registry, hop in (
            (pusher_reg, "collect"),
            (pusher_reg, "publish"),
            (agent_reg, "dispatch"),
            (agent_reg, "insert"),
            (agent_reg, "commit"),
        ):
            count = registry.value(PIPELINE_METRIC, {"hop": hop})
            assert count > 0, f"hop {hop!r} never stamped"

    def test_agent_and_hub_share_registry(self, pipeline):
        assert pipeline.agent.metrics is pipeline.broker.metrics

    def test_status_reports_latency_percentiles(self, pipeline):
        _run_pipeline(pipeline)
        pusher_latency = pipeline.pusher.status()["latency"]
        assert pusher_latency["collect"]["count"] > 0
        assert pusher_latency["collect"]["p95"] is not None
        agent_latency = pipeline.agent.status()["latency"]
        for hop in ("dispatch", "insert", "commit"):
            assert agent_latency[hop]["count"] > 0

    def test_sampling_knob_disables_tracing(self):
        clock = SimClock(0)
        broker = MQTTBroker(port=None, trace_sample_every=0)
        backend = MemoryBackend()
        agent = CollectAgent(backend, broker=broker, trace_sample_every=0)
        pusher = Pusher(
            PusherConfig(mqtt_prefix="/t/h0", trace_sample_every=0),
            client=MQTTClient("p0", broker=broker),
            clock=clock,
        )
        pusher.load_plugin("tester", TESTER_CONFIG)
        pusher.client.connect()
        pusher.start_plugin("tester")
        pusher.advance_to(5 * NS_PER_SEC)
        assert pusher.metrics.value(PIPELINE_METRIC) == 0.0
        assert agent.metrics.value(PIPELINE_METRIC) == 0.0
        # The pipeline itself still runs.
        assert pusher.metrics.value("dcdb_pusher_readings_collected_total") > 0


class TestMetricsEndpoints:
    def test_pusher_metrics_scrape(self, pipeline):
        _run_pipeline(pipeline)
        with PusherRestApi(pipeline.pusher) as api:
            status, text, content_type = http_text(
                "GET", f"http://127.0.0.1:{api.port}/metrics"
            )
        assert status == 200
        assert content_type.startswith("text/plain")
        families = parse_prometheus_text(text)
        kinds = {meta["type"] for meta in families.values()}
        assert {"counter", "gauge", "histogram"} <= kinds
        assert families[PIPELINE_METRIC]["type"] == "histogram"
        assert 'hop="publish"' in text

    def test_agent_metrics_scrape_includes_storage(self, pipeline):
        _run_pipeline(pipeline)
        with CollectAgentRestApi(pipeline.agent) as api:
            status, text, _ = http_text(
                "GET", f"http://127.0.0.1:{api.port}/metrics"
            )
        assert status == 200
        families = parse_prometheus_text(text)
        assert families["dcdb_agent_readings_stored_total"]["samples"] == 1
        assert families["dcdb_broker_messages_received_total"]["samples"] == 1
        assert families[PIPELINE_METRIC]["type"] == "histogram"

    def test_agent_scrape_merges_cluster_node_registries(self):
        broker = MQTTBroker(port=None)
        nodes = [StorageNode("n0"), StorageNode("n1")]
        backend = StorageCluster(nodes=nodes)
        agent = CollectAgent(backend, broker=broker)
        pusher = Pusher(
            PusherConfig(mqtt_prefix="/t/h0"),
            client=MQTTClient("p0", broker=broker),
            clock=SimClock(0),
        )
        pusher.load_plugin("tester", TESTER_CONFIG)
        pusher.client.connect()
        pusher.start_plugin("tester")
        pusher.advance_to(5 * NS_PER_SEC)
        with CollectAgentRestApi(agent) as api:
            status, text, _ = http_text(
                "GET", f"http://127.0.0.1:{api.port}/metrics"
            )
        assert status == 200
        families = parse_prometheus_text(text)
        assert families["dcdb_cluster_local_ops_total"]["samples"] >= 1
        assert 'node="n0"' in text or 'node="n1"' in text

    def test_json_format(self, pipeline):
        _run_pipeline(pipeline)
        with PusherRestApi(pipeline.pusher) as api:
            status, doc = http_json(
                "GET", f"http://127.0.0.1:{api.port}/metrics?format=json"
            )
        assert status == 200
        hist = doc[PIPELINE_METRIC]
        assert hist["type"] == "histogram"
        sample = next(
            s for s in hist["samples"] if s["labels"] == {"hop": "publish"}
        )
        assert sample["count"] > 0
        assert sample["p95"] is not None

    def test_http_requests_counted_in_exposition(self, pipeline):
        with PusherRestApi(pipeline.pusher) as api:
            base = f"http://127.0.0.1:{api.port}"
            http_json("GET", f"{base}/status")
            _, text, _ = http_text("GET", f"{base}/metrics")
        assert 'route="/status"' in text
        assert "dcdb_http_request_duration_seconds" in text


class TestDcdbmonRoundTrip:
    DCDBMON_CONFIG = """
    group self {
        interval 1000
        sensor storeTotal {
            mqttsuffix /self/storeTotal
            metric dcdb_pusher_readings_collected_total
            stat value
        }
        sensor pubLatencyP95 {
            mqttsuffix /self/pubLatencyP95
            metric dcdb_pipeline_latency_seconds
            labels hop=publish
            stat p95
            scale 1000000
            unit s
        }
    }
    """

    def test_metrics_flow_into_storage(self, pipeline):
        pipeline.load_and_start("tester", TESTER_CONFIG)
        pipeline.load_and_start("dcdbmon", self.DCDBMON_CONFIG)
        pipeline.run(10)
        client = DCDBClient(pipeline.backend)
        topic = "/test/host0/self/storeTotal"
        assert topic in client.topics()
        ts, values = client.query_raw(topic, 0, 120 * NS_PER_SEC)
        assert ts.size >= 5
        # The tester plugin collects 4 readings/s; the self-monitoring
        # series must be growing alongside it.
        assert values[-1] > values[0]

    def test_default_catalogue_when_no_sensors_configured(self, pipeline):
        pipeline.load_and_start("tester", TESTER_CONFIG)
        pipeline.load_and_start("dcdbmon", "group self { interval 1000 }")
        pipeline.run(5)
        client = DCDBClient(pipeline.backend)
        topics = client.topics()
        assert "/test/host0/messagesPublished" in topics
        assert "/test/host0/publishLatencyP95" in topics

    def test_unattached_group_counts_read_error(self):
        from repro.core.pusher.registry import create_configurator

        configurator = create_configurator("dcdbmon")
        plugin = configurator.read_config("group g { interval 1000 }")
        group = plugin.groups[0]
        assert group.read(NS_PER_SEC) is None
        assert group.read_errors == 1

    def test_failed_reload_keeps_old_plugin_running(self, pipeline):
        """A bad reload must not tear down the running plugin."""
        from repro.common.errors import ConfigError
        from repro.plugins.dcdbmon import DEFAULT_SENSORS

        pipeline.load_and_start("dcdbmon", "group self { interval 1000 }")
        with pytest.raises(ConfigError, match="unknown stat"):
            pipeline.pusher.reload_plugin(
                "dcdbmon",
                "group self { interval 1000\n sensor s { metric m\n stat p42 } }",
            )
        plugin = pipeline.pusher.plugins["dcdbmon"]
        assert plugin.running
        assert plugin.sensor_count == len(DEFAULT_SENSORS)

    def test_bad_stat_rejected(self):
        from repro.common.errors import ConfigError
        from repro.core.pusher.registry import create_configurator

        with pytest.raises(ConfigError, match="unknown stat"):
            create_configurator("dcdbmon").read_config(
                "group g { interval 1000\n"
                " sensor s { metric m\n stat p42 } }"
            )
