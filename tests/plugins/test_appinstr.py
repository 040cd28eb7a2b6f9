"""Tests for the application-instrumentation plugin."""

import threading

import pytest

from repro.common.errors import ConfigError
from repro.common.timeutil import NS_PER_SEC, SimClock
from repro.core.pusher import Pusher, PusherConfig
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient
from repro.plugins.appinstr import Counter, Gauge, InstrumentRegistry


@pytest.fixture
def registry():
    reg = InstrumentRegistry.named("testreg")
    reg.clear()
    return reg


def make_pusher():
    broker = MQTTBroker(port=None)
    pusher = Pusher(
        PusherConfig(mqtt_prefix="/app/job42"),
        client=MQTTClient("p", broker=broker),
        clock=SimClock(0),
    )
    pusher.client.connect()
    return pusher, broker


class TestInstruments:
    def test_counter_increments(self, registry):
        counter = registry.counter("iters")
        counter.inc()
        counter.inc(5)
        assert counter.read() == 6

    def test_counter_rejects_negative(self, registry):
        with pytest.raises(ValueError):
            registry.counter("c").inc(-1)

    def test_gauge_scaling(self, registry):
        gauge = registry.gauge("residual", scale=1000.0)
        gauge.set(0.125)
        assert gauge.read() == 125

    def test_idempotent_creation(self, registry):
        assert registry.counter("c") is registry.counter("c")
        assert registry.gauge("g") is registry.gauge("g")

    def test_kind_conflict_rejected(self, registry):
        registry.counter("x")
        with pytest.raises(ConfigError, match="exists as a counter"):
            registry.gauge("x")

    def test_thread_safe_increments(self, registry):
        counter = registry.counter("parallel")

        def worker():
            for _ in range(10_000):
                counter.inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.read() == 80_000

    def test_named_registries_isolated(self):
        a = InstrumentRegistry.named("iso_a")
        b = InstrumentRegistry.named("iso_b")
        a.counter("only_in_a")
        assert b.get("only_in_a") is None


class TestAppInstrPlugin:
    def test_export_all_mode_picks_up_new_instruments(self, registry):
        pusher, _ = make_pusher()
        pusher.load_plugin(
            "appinstr", "group app { interval 1000\n registry testreg }"
        )
        pusher.start_plugin("appinstr")
        registry.counter("iters").inc(100)
        pusher.advance_to(NS_PER_SEC)
        # New instrument registered mid-run is discovered next cycle.
        registry.gauge("residual", scale=100.0).set(0.5)
        pusher.advance_to(2 * NS_PER_SEC)
        group = pusher.plugins["appinstr"].groups[0]
        assert {s.instrument_name for s in group.sensors} == {"iters", "residual"}

    def test_counters_publish_deltas(self, registry):
        counter = registry.counter("events")
        pusher, broker = make_pusher()
        pusher.load_plugin(
            "appinstr", "group app { interval 1000\n registry testreg }"
        )
        pusher.start_plugin("appinstr")
        counter.inc(10)
        pusher.advance_to(NS_PER_SEC)  # seeds the delta
        counter.inc(25)
        pusher.advance_to(2 * NS_PER_SEC)
        sensor = pusher.sensor_by_topic("/app/job42/app/events")
        assert sensor.cache.latest().value == 25

    def test_gauges_publish_raw(self, registry):
        gauge = registry.gauge("load", scale=1.0)
        pusher, _ = make_pusher()
        pusher.load_plugin(
            "appinstr", "group app { interval 1000\n registry testreg }"
        )
        pusher.start_plugin("appinstr")
        gauge.set(7)
        pusher.advance_to(NS_PER_SEC)
        sensor = pusher.sensor_by_topic("/app/job42/app/load")
        assert sensor.cache.latest().value == 7

    def test_explicit_sensor_selection(self, registry):
        registry.counter("wanted")
        registry.counter("unwanted")
        pusher, _ = make_pusher()
        plugin = pusher.load_plugin(
            "appinstr",
            """
            group app {
                interval 1000
                registry testreg
                sensor wanted { instrument wanted
                                mqttsuffix /wanted
                                delta true }
            }
            """,
        )
        assert plugin.sensor_count == 1
        pusher.start_plugin("appinstr")
        pusher.advance_to(2 * NS_PER_SEC)
        assert plugin.groups[0].read_errors == 0

    def test_missing_explicit_instrument_is_runtime_error(self, registry):
        pusher, _ = make_pusher()
        pusher.load_plugin(
            "appinstr",
            """
            group app {
                interval 1000
                registry testreg
                sensor ghost { instrument never_created }
            }
            """,
        )
        pusher.start_plugin("appinstr")
        pusher.advance_to(NS_PER_SEC)
        assert pusher.plugins["appinstr"].groups[0].read_errors == 1

    def test_end_to_end_application_loop(self, registry):
        """An 'application' instruments itself; data lands in storage."""
        from repro.core.collectagent import CollectAgent
        from repro.libdcdb.api import DCDBClient
        from repro.storage import MemoryBackend

        broker = MQTTBroker(port=None)
        backend = MemoryBackend()
        agent = CollectAgent(backend, broker=broker)
        clock = SimClock(0)
        pusher = Pusher(
            PusherConfig(mqtt_prefix="/app/job43"),
            client=MQTTClient("p", broker=broker),
            clock=clock,
        )
        pusher.load_plugin(
            "appinstr", "group solver { interval 1000\n registry testreg }"
        )
        pusher.client.connect()
        pusher.start_plugin("appinstr")
        iters = registry.counter("iterations")
        residual = registry.gauge("residual", scale=1e6)
        # Simulated solver: 50 iterations/s, residual shrinking.
        for second in range(1, 11):
            iters.inc(50)
            residual.set(1.0 / second)
            pusher.advance_to(second * NS_PER_SEC)
        dcdb = DCDBClient(backend)
        ts, deltas = dcdb.query("/app/job43/solver/iterations", 0, 20 * NS_PER_SEC)
        assert deltas.tolist() == [50.0] * (ts.size)
        r_ts, r_vals = dcdb.query_raw("/app/job43/solver/residual", 0, 20 * NS_PER_SEC)
        assert r_vals[0] > r_vals[-1]  # converging
