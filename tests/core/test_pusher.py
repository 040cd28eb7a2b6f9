"""Tests for the Pusher daemon: sampling, publishing, lifecycle."""

import time

import pytest

from repro.common.errors import ConfigError
from repro.common.timeutil import NS_PER_SEC, SimClock
from repro.core.pusher import Pusher, PusherConfig
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient

TESTER_5 = "group g0 { interval 1000\n numSensors 5 }"


def received(broker):
    """PUBLISH packets ``broker`` has accepted."""
    return broker.metrics.value("dcdb_broker_messages_received_total")


def collected(pusher):
    """Readings ``pusher`` has collected."""
    return pusher.metrics.value("dcdb_pusher_readings_collected_total")


def make_pusher(broker=None, clock=None, **config_kwargs):
    broker = broker if broker is not None else MQTTBroker(port=None)
    clock = clock if clock is not None else SimClock(0)
    pusher = Pusher(
        PusherConfig(mqtt_prefix="/t/h0", **config_kwargs),
        client=MQTTClient("p0", broker=broker),
        clock=clock,
    )
    return pusher, broker, clock


class TestPluginLifecycle:
    def test_load_and_start(self):
        pusher, broker, _ = make_pusher()
        plugin = pusher.load_plugin("tester", TESTER_5)
        assert plugin.sensor_count == 5
        assert not plugin.running
        pusher.client.connect()
        pusher.start_plugin("tester")
        assert plugin.running

    def test_duplicate_load_rejected(self):
        pusher, _, _ = make_pusher()
        pusher.load_plugin("tester", TESTER_5)
        with pytest.raises(ConfigError, match="already loaded"):
            pusher.load_plugin("tester", TESTER_5)

    def test_alias_allows_two_instances(self):
        pusher, _, _ = make_pusher()
        pusher.load_plugin("tester", TESTER_5, plugin_alias="t1")
        pusher.load_plugin("tester", TESTER_5, plugin_alias="t2")
        assert pusher.sensor_count == 10

    def test_unload(self):
        pusher, _, _ = make_pusher()
        pusher.load_plugin("tester", TESTER_5)
        pusher.unload_plugin("tester")
        assert pusher.sensor_count == 0
        with pytest.raises(ConfigError, match="not loaded"):
            pusher.stop_plugin("tester")

    def test_stop_plugin_halts_collection(self):
        pusher, _, clock = make_pusher()
        pusher.load_plugin("tester", TESTER_5)
        pusher.client.connect()
        pusher.start_plugin("tester")
        pusher.advance_to(3 * NS_PER_SEC)
        before = collected(pusher)
        pusher.stop_plugin("tester")
        pusher.advance_to(6 * NS_PER_SEC)
        assert collected(pusher) == before

    def test_reload_swaps_configuration(self):
        pusher, _, _ = make_pusher()
        pusher.load_plugin("tester", TESTER_5)
        pusher.client.connect()
        pusher.start_plugin("tester")
        plugin = pusher.reload_plugin("tester", "group g0 { interval 1000\n numSensors 9 }")
        assert plugin.sensor_count == 9
        assert plugin.running  # was running, stays running
        pusher.advance_to(NS_PER_SEC)
        assert collected(pusher) == 9

    @pytest.mark.parametrize("send_mode", ["continuous", "burst"])
    def test_reload_sends_pending_readings(self, send_mode):
        """A reload is seamless: readings queued below minValues (or
        awaiting the burst flush) are published, not dropped."""
        pusher, broker, _ = make_pusher(send_mode=send_mode)
        messages = []
        broker.add_publish_hook(lambda _cid, packets: messages.extend(packets))
        config = "group g0 { interval 1000\n minValues 5\n numSensors 2 }"
        pusher.load_plugin("tester", config)
        pusher.client.connect()
        pusher.start_plugin("tester")
        pusher.advance_to(3 * NS_PER_SEC)
        assert (collected(pusher), pusher.status()["pendingReadings"]) == (6, 6)
        pusher.reload_plugin("tester", config)
        pusher.flush()
        assert pusher.status()["pendingReadings"] == 0
        assert [m.topic for m in messages] == ["/t/h0/g0/s0", "/t/h0/g0/s1"]
        published = sum(len(m.payload) // 16 for m in messages)
        assert collected(pusher) == published
        assert pusher.status()["publishFailures"] == 0

    def test_unknown_plugin_name(self):
        pusher, _, _ = make_pusher()
        with pytest.raises(ConfigError, match="unknown plugin"):
            pusher.load_plugin("does_not_exist", "")


class TestSteppedSampling:
    def test_aligned_cycles(self):
        pusher, broker, _ = make_pusher()
        pusher.load_plugin("tester", TESTER_5)
        pusher.client.connect()
        pusher.start_plugin("tester")
        cycles = pusher.advance_to(10 * NS_PER_SEC)
        assert cycles == 10
        assert collected(pusher) == 50
        assert received(broker) == 50

    def test_topics_carry_prefix(self):
        pusher, broker, _ = make_pusher()
        topics = []
        broker.add_publish_hook(lambda cid, ps: topics.extend(p.topic for p in ps))
        pusher.load_plugin("tester", TESTER_5)
        pusher.client.connect()
        pusher.start_plugin("tester")
        pusher.advance_to(NS_PER_SEC)
        assert sorted(topics) == [f"/t/h0/g0/s{i}" for i in range(5)]

    def test_reading_timestamps_are_interval_aligned(self):
        pusher, broker, _ = make_pusher()
        payloads = []
        broker.add_publish_hook(lambda cid, ps: payloads.extend(p.payload for p in ps))
        pusher.load_plugin("tester", "group g0 { interval 250\n numSensors 1 }")
        pusher.client.connect()
        pusher.start_plugin("tester")
        pusher.advance_to(NS_PER_SEC)
        from repro.core.payload import decode_readings

        timestamps = [decode_readings(p)[0].timestamp for p in payloads]
        assert timestamps == [250_000_000, 500_000_000, 750_000_000, 1_000_000_000]

    def test_mixed_intervals_ordered(self):
        pusher, broker, _ = make_pusher()
        pusher.load_plugin("tester", "group fast { interval 500\n numSensors 1 }\ngroup slow { interval 1000\n numSensors 1 }")
        pusher.client.connect()
        pusher.start_plugin("tester")
        cycles = pusher.advance_to(2 * NS_PER_SEC)
        assert cycles == 4 + 2

    def test_min_values_batching(self):
        pusher, broker, _ = make_pusher()
        pusher.load_plugin(
            "tester", "group g0 { interval 1000\n minValues 3\n numSensors 1 }"
        )
        pusher.client.connect()
        pusher.start_plugin("tester")
        pusher.advance_to(2 * NS_PER_SEC)
        assert received(broker) == 0  # below threshold
        pusher.advance_to(3 * NS_PER_SEC)
        assert received(broker) == 1  # three readings in one message
        from repro.core.payload import decode_readings

    def test_min_values_is_per_group(self):
        # A group's cycle publishes only that group's ready sensors: a
        # minValues 1 group must not flush a minValues 10 group early.
        pusher, broker, _ = make_pusher()
        messages = []
        broker.add_publish_hook(lambda cid, ps: messages.extend((p.topic, p.payload) for p in ps))
        pusher.load_plugin(
            "tester",
            "group slow { interval 1000\n minValues 10\n numSensors 1 }\n"
            "group fast { interval 1000\n minValues 1\n numSensors 1 }",
        )
        pusher.client.connect()
        pusher.start_plugin("tester")
        pusher.advance_to(10 * NS_PER_SEC)
        from repro.core.payload import decode_readings

        slow = [decode_readings(p) for t, p in messages if t == "/t/h0/slow/s0"]
        assert [len(readings) for readings in slow] == [10]
        assert sum(t == "/t/h0/fast/s0" for t, _ in messages) == 10

    def test_sensor_cache_fills(self):
        pusher, _, _ = make_pusher()
        pusher.load_plugin("tester", TESTER_5)
        pusher.client.connect()
        pusher.start_plugin("tester")
        pusher.advance_to(5 * NS_PER_SEC)
        sensor = pusher.sensor_by_topic("/t/h0/g0/s0")
        assert len(sensor.cache) == 5


class TestSendModes:
    def test_burst_mode_defers_until_flush(self):
        pusher, broker, _ = make_pusher(send_mode="burst")
        pusher.load_plugin("tester", TESTER_5)
        pusher.client.connect()
        pusher.start_plugin("tester")
        pusher.advance_to(10 * NS_PER_SEC)
        assert received(broker) == 0
        sent = pusher.flush()
        assert sent == 5  # one message per sensor, 10 readings each
        assert received(broker) == 5

    def test_burst_payload_batches_readings(self):
        pusher, broker, _ = make_pusher(send_mode="burst")
        payloads = []
        broker.add_publish_hook(lambda cid, ps: payloads.extend(p.payload for p in ps))
        pusher.load_plugin("tester", "group g0 { interval 1000\n numSensors 1 }")
        pusher.client.connect()
        pusher.start_plugin("tester")
        pusher.advance_to(10 * NS_PER_SEC)
        pusher.flush()
        from repro.core.payload import decode_readings

        assert len(decode_readings(payloads[0])) == 10

    def test_invalid_send_mode_rejected(self):
        with pytest.raises(ConfigError):
            PusherConfig(send_mode="sideways")


class TestThreadedMode:
    def test_real_time_collection(self):
        # Real wall-clock mode: a fast group on real threads.
        broker = MQTTBroker(port=None)
        pusher = Pusher(
            PusherConfig(mqtt_prefix="/rt/h0", threads=2),
            client=MQTTClient("rt", broker=broker),
        )
        pusher.load_plugin("tester", "group g0 { interval 50\n numSensors 3 }")
        pusher.start_plugin("tester")
        pusher.start()
        try:
            deadline = time.monotonic() + 5.0
            while received(broker) < 9 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert received(broker) >= 9
        finally:
            pusher.stop()

    def test_stop_flushes_pending(self):
        broker = MQTTBroker(port=None)
        pusher = Pusher(
            PusherConfig(mqtt_prefix="/rt/h1", send_mode="burst"),
            client=MQTTClient("rt1", broker=broker),
        )
        pusher.load_plugin("tester", "group g0 { interval 50\n numSensors 1 }")
        pusher.start_plugin("tester")
        pusher.start()
        time.sleep(0.3)
        pusher.stop()
        assert received(broker) >= 1

    def test_status_snapshot(self):
        pusher, _, _ = make_pusher()
        pusher.load_plugin("tester", TESTER_5)
        status = pusher.status()
        assert status["plugins"]["tester"]["sensors"] == 5
        assert status["running"] is False


class TestFailureCounters:
    def test_publish_failures_and_reconnects_in_status(self):
        class DeadClient:
            connected = False

            def connect(self):
                raise OSError("no broker")

            def close(self):
                pass

            def publish_many(self, *a, **k):
                raise OSError("no broker")

        pusher = Pusher(PusherConfig(mqtt_prefix="/dead"), client=DeadClient(), clock=SimClock(0))
        pusher.load_plugin("tester", "group g { interval 1000\n numSensors 1 }")
        pusher.start_plugin("tester")
        pusher.advance_to(NS_PER_SEC)  # one cycle: one message attempted
        status = pusher.status()
        assert status["publishFailures"] == 1
        assert status["reconnects"] == 0
