"""Tests for the NVML (GPU) plugin."""

import pytest

from repro.common.errors import ConfigError, PluginError
from repro.common.timeutil import NS_PER_SEC, SimClock
from repro.core.pusher import Pusher, PusherConfig
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient
from repro.plugins.nvml import METRICS, SyntheticNvmlSource


def make_pusher():
    broker = MQTTBroker(port=None)
    pusher = Pusher(
        PusherConfig(mqtt_prefix="/gpu/h0"),
        client=MQTTClient("p", broker=broker),
        clock=SimClock(0),
    )
    pusher.client.connect()
    return pusher, broker


class TestSyntheticSource:
    def test_busy_and_idle_points_reached(self):
        source = SyntheticNvmlSource(gpus=1, period_s=100.0, duty=0.5)
        samples = [
            source.read(0, "utilization", t * NS_PER_SEC) for t in range(0, 100, 5)
        ]
        assert max(samples) > 90
        assert min(samples) < 10

    def test_power_between_operating_points(self):
        source = SyntheticNvmlSource(gpus=2)
        for t in range(0, 240, 10):
            value = source.read(1, "power", t * NS_PER_SEC)
            assert SyntheticNvmlSource.IDLE["power"] <= value <= SyntheticNvmlSource.BUSY["power"]

    def test_gpus_phase_shifted(self):
        source = SyntheticNvmlSource(gpus=4, period_s=120.0)
        t = 10 * NS_PER_SEC
        values = {source.read(g, "utilization", t) for g in range(4)}
        assert len(values) > 1  # not all GPUs in the same phase

    def test_unknown_gpu_raises(self):
        source = SyntheticNvmlSource(gpus=2)
        with pytest.raises(PluginError):
            source.read(5, "power", 0)

    def test_unknown_metric_raises(self):
        source = SyntheticNvmlSource(gpus=1)
        with pytest.raises(PluginError):
            source.read(0, "fan_speed", 0)

    def test_deterministic(self):
        a = SyntheticNvmlSource(gpus=1).read(0, "temperature", 42 * NS_PER_SEC)
        b = SyntheticNvmlSource(gpus=1).read(0, "temperature", 42 * NS_PER_SEC)
        assert a == b


class TestNvmlPlugin:
    def test_sensor_fanout_all_metrics(self):
        pusher, _ = make_pusher()
        plugin = pusher.load_plugin("nvml", "group gpus { interval 1000\n gpus 0-3 }")
        assert plugin.sensor_count == 4 * len(METRICS)

    def test_metric_subset(self):
        pusher, _ = make_pusher()
        plugin = pusher.load_plugin(
            "nvml",
            "group gpus { interval 1000\n gpus 0-1\n metrics power,utilization }",
        )
        assert plugin.sensor_count == 4

    def test_collection_and_topics(self):
        pusher, broker = make_pusher()
        topics = []
        broker.add_publish_hook(lambda cid, ps: topics.extend(p.topic for p in ps))
        pusher.load_plugin(
            "nvml", "group gpus { interval 1000\n gpus 0\n metrics power }"
        )
        pusher.start_plugin("nvml")
        pusher.advance_to(2 * NS_PER_SEC)
        assert topics == ["/gpu/h0/gpu0/power"] * 2
        sensor = pusher.sensor_by_topic("/gpu/h0/gpu0/power")
        assert sensor.metadata.unit == "mW"
        assert sensor.cache.latest().value >= SyntheticNvmlSource.IDLE["power"]

    def test_default_gpus_from_device_count(self):
        pusher, _ = make_pusher()
        plugin = pusher.load_plugin(
            "nvml", "group gpus { interval 1000\n metrics temperature }"
        )
        assert plugin.sensor_count == SyntheticNvmlSource().device_count()

    def test_gpu_beyond_count_rejected(self):
        pusher, _ = make_pusher()
        with pytest.raises(ConfigError, match="beyond device count"):
            pusher.load_plugin("nvml", "group gpus { gpus 0-15 }")

    def test_unknown_metric_rejected(self):
        pusher, _ = make_pusher()
        with pytest.raises(ConfigError, match="unknown metric"):
            pusher.load_plugin("nvml", "group gpus { gpus 0\n metrics hashrate }")

    def test_source_factory_swap(self):
        from repro.plugins.nvml import NvmlConfigurator

        class OneHotGpu:
            def device_count(self):
                return 1

            def read(self, gpu, metric, t_ns):
                return 12345

        old = NvmlConfigurator.source_factory
        NvmlConfigurator.source_factory = OneHotGpu
        try:
            pusher, _ = make_pusher()
            pusher.load_plugin(
                "nvml", "group gpus { interval 1000\n gpus 0\n metrics power }"
            )
            pusher.start_plugin("nvml")
            pusher.advance_to(NS_PER_SEC)
            sensor = pusher.plugins["nvml"].groups[0].sensors[0]
            assert sensor.cache.latest().value == 12345
        finally:
            NvmlConfigurator.source_factory = old
