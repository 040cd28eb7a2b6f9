"""Tests for the streaming analytics layer."""

import pytest

from repro.analytics import (
    Aggregator,
    AnalyticsManager,
    EmaSmoother,
    MovingAverage,
    RateOfChange,
    StreamOperator,
    ThresholdAlarm,
    ZScoreDetector,
)
from repro.analytics.operator import OutputReading, sanitize_suffix
from repro.common.errors import ConfigError
from repro.common.timeutil import NS_PER_SEC, SimClock
from repro.core.sensor import SensorReading


def feed_series(operator, topic, values, t0=NS_PER_SEC, step=NS_PER_SEC):
    out = []
    for i, value in enumerate(values):
        out.extend(operator.process(topic, SensorReading(t0 + i * step, value)))
    return out


class TestOperatorBase:
    def test_pattern_matching(self):
        op = MovingAverage("ma", ["/hpc/+/power", "/fac/#"])
        assert op.matches("/hpc/n0/power")
        assert op.matches("/fac/cooling/flow")
        assert not op.matches("/hpc/n0/temp")

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError):
            MovingAverage("bad/name", ["/x"])

    def test_invalid_pattern_rejected(self):
        from repro.common.errors import TransportError

        with pytest.raises(TransportError):
            MovingAverage("ma", ["/a/#/b"])

    def test_sanitize_suffix(self):
        assert sanitize_suffix("/hpc/rack0/node1/power") == "hpc_rack0_node1_power"


class TestMovingAverage:
    def test_emits_after_window_fills(self):
        op = MovingAverage("ma", ["/s"], window=3)
        out = feed_series(op, "/s", [10, 20, 30, 40])
        assert len(out) == 2
        assert out[0].reading.value == 20  # mean(10,20,30)
        assert out[1].reading.value == 30  # mean(20,30,40)

    def test_per_sensor_state(self):
        op = MovingAverage("ma", ["/a", "/b"], window=2)
        feed_series(op, "/a", [1, 3])
        out = feed_series(op, "/b", [10, 30])
        assert out[0].reading.value == 20

    def test_invalid_window(self):
        with pytest.raises(ConfigError):
            MovingAverage("ma", ["/s"], window=0)

    def test_reset(self):
        op = MovingAverage("ma", ["/s"], window=2)
        feed_series(op, "/s", [1, 2])
        op.reset()
        assert feed_series(op, "/s", [5]) == []


class TestEmaSmoother:
    def test_smoothing(self):
        op = EmaSmoother("ema", ["/s"], alpha=0.5)
        out = feed_series(op, "/s", [100, 0, 0])
        assert [o.reading.value for o in out] == [50, 25]

    def test_alpha_bounds(self):
        with pytest.raises(ConfigError):
            EmaSmoother("e", ["/s"], alpha=0.0)
        with pytest.raises(ConfigError):
            EmaSmoother("e", ["/s"], alpha=1.5)


class TestRateOfChange:
    def test_rate_units_per_second(self):
        op = RateOfChange("rate", ["/energy"])
        out = feed_series(op, "/energy", [1000, 1500, 2500])
        assert [o.reading.value for o in out] == [500, 1000]

    def test_non_monotonic_time_skipped(self):
        op = RateOfChange("rate", ["/s"])
        op.process("/s", SensorReading(2 * NS_PER_SEC, 10))
        assert op.process("/s", SensorReading(NS_PER_SEC, 20)) == []

    def test_scale(self):
        op = RateOfChange("rate", ["/s"], scale=1000.0)
        out = feed_series(op, "/s", [0, 1])
        assert out[0].reading.value == 1000


class TestAggregator:
    def test_sum_per_bucket(self):
        op = Aggregator("total", ["/rack/+/power"], output="rack_power", func="sum")
        t = NS_PER_SEC
        assert op.process("/rack/n0/power", SensorReading(t, 100)) == []
        assert op.process("/rack/n1/power", SensorReading(t, 150)) == []
        out = op.process("/rack/n0/power", SensorReading(2 * t, 110))
        assert len(out) == 1
        assert out[0].suffix == "rack_power"
        assert out[0].reading.value == 250
        assert out[0].reading.timestamp == 2 * t

    def test_last_value_per_sensor_wins_in_bucket(self):
        op = Aggregator("a", ["/s/#"], func="sum", bucket_ns=10 * NS_PER_SEC)
        op.process("/s/x", SensorReading(NS_PER_SEC, 1))
        op.process("/s/x", SensorReading(2 * NS_PER_SEC, 5))
        out = op.flush()
        assert out[0].reading.value == 5

    @pytest.mark.parametrize("func,expected", [("avg", 20), ("min", 10), ("max", 30)])
    def test_functions(self, func, expected):
        op = Aggregator("a", ["/s/#"], func=func)
        t = NS_PER_SEC
        op.process("/s/a", SensorReading(t, 10))
        op.process("/s/b", SensorReading(t, 30))
        out = op.flush()
        assert out[0].reading.value == expected

    def test_unknown_func_rejected(self):
        with pytest.raises(ConfigError):
            Aggregator("a", ["/s"], func="median")

    def test_sealed_flag_marks_partial_buckets(self):
        op = Aggregator("a", ["/s/#"], func="sum")
        t = NS_PER_SEC
        op.process("/s/a", SensorReading(t, 1))
        sealed = op.process("/s/a", SensorReading(2 * t, 2))
        assert sealed[0].sealed  # closed by a later reading
        partial = op.flush()
        assert partial and not partial[0].sealed  # force-emitted open bucket

    def test_emit_partial_false_suppresses_open_bucket(self):
        op = Aggregator("a", ["/s/#"], func="sum", emit_partial=False)
        op.process("/s/a", SensorReading(NS_PER_SEC, 1))
        assert op.flush() == []
        # State was discarded, not carried into the next bucket.
        assert op.process("/s/a", SensorReading(2 * NS_PER_SEC, 2)) == []


class TestZScoreDetector:
    def test_flags_outlier(self):
        op = ZScoreDetector("z", ["/s"], window=10, threshold=4.0)
        out = feed_series(op, "/s", [100, 102, 98, 101, 99, 100, 101, 99, 500])
        anomalies = [o for o in out if o.alarm]
        assert len(anomalies) == 1
        assert anomalies[0].reading.value == 1
        assert "sigma" in anomalies[0].message

    def test_steady_signal_quiet(self):
        op = ZScoreDetector("z", ["/s"], window=10)
        out = feed_series(op, "/s", [100, 101, 99, 100, 101, 99, 100, 101, 99, 100])
        assert out == []

    def test_anomaly_not_absorbed_into_stats(self):
        op = ZScoreDetector("z", ["/s"], window=8, threshold=4.0)
        feed_series(op, "/s", [100, 101, 99, 100, 101])
        first = feed_series(op, "/s", [500])
        second = feed_series(op, "/s", [500])
        assert first and second  # still anomalous the second time

    def test_window_validation(self):
        with pytest.raises(ConfigError):
            ZScoreDetector("z", ["/s"], window=2)


class TestThresholdAlarm:
    def test_raise_and_clear_with_hysteresis(self):
        op = ThresholdAlarm("power_cap", ["/p"], high=1000, low=900)
        out = feed_series(op, "/p", [800, 950, 1100, 1050, 950, 880])
        assert [(o.reading.value, o.alarm) for o in out] == [(1, True), (0, True)]

    def test_no_flapping_between_thresholds(self):
        op = ThresholdAlarm("a", ["/p"], high=100, low=90)
        out = feed_series(op, "/p", [120, 95, 120, 95, 120])
        # Raised once at 120; values between low/high do not clear.
        assert len(out) == 1

    def test_invalid_thresholds(self):
        with pytest.raises(ConfigError):
            ThresholdAlarm("a", ["/p"], high=100, low=200)


class TestManager:
    def test_routing_by_pattern(self):
        manager = AnalyticsManager()
        manager.add_operator(MovingAverage("ma", ["/hpc/#"], window=1))
        out = manager.feed("/hpc/n0/power", SensorReading(1, 10))
        assert out[0][0] == "/analytics/ma/hpc_n0_power_avg"
        assert manager.feed("/other", SensorReading(1, 10)) == []

    def test_no_feedback_loops(self):
        manager = AnalyticsManager()
        manager.add_operator(MovingAverage("ma", ["#"], window=1))
        out = manager.feed("/analytics/ma/somesensor_avg", SensorReading(1, 10))
        assert out == []

    def test_duplicate_operator_rejected(self):
        manager = AnalyticsManager()
        manager.add_operator(MovingAverage("ma", ["/s"], window=1))
        with pytest.raises(ValueError):
            manager.add_operator(EmaSmoother("ma", ["/s"]))

    def test_remove_operator(self):
        manager = AnalyticsManager()
        manager.add_operator(MovingAverage("ma", ["/s"], window=1))
        assert manager.remove_operator("ma") is True
        assert manager.remove_operator("ma") is False

    def test_failing_operator_isolated(self):
        class Broken(StreamOperator):
            def process(self, topic, reading):
                raise RuntimeError("boom")

        manager = AnalyticsManager()
        manager.add_operator(Broken("broken", ["#"]))
        manager.add_operator(MovingAverage("ma", ["#"], window=1))
        out = manager.feed("/s", SensorReading(1, 5))
        assert len(out) == 1  # the healthy operator still ran

    def test_alarm_log(self):
        manager = AnalyticsManager()
        manager.add_operator(ThresholdAlarm("cap", ["/p"], high=10))
        manager.feed("/p", SensorReading(NS_PER_SEC, 50))
        assert len(manager.alarms) == 1
        event = manager.alarms[0]
        assert event.operator == "cap" and event.topic == "/p" and event.value == 1

    def test_status(self):
        manager = AnalyticsManager()
        manager.add_operator(MovingAverage("ma", ["/s"], window=1))
        manager.feed("/s", SensorReading(1, 5))
        status = manager.status()
        assert status["readingsProcessed"] == 1
        assert status["outputsEmitted"] == 1
        assert status["operators"][0]["name"] == "ma"


class TestDaemonIntegration:
    def test_attached_to_agent_stores_derived_sensors(self):
        from repro.core.collectagent import CollectAgent
        from repro.core.pusher import Pusher, PusherConfig
        from repro.libdcdb.api import DCDBClient
        from repro.mqtt.broker import MQTTBroker
        from repro.mqtt.client import MQTTClient
        from repro.storage import MemoryBackend

        broker = MQTTBroker(port=None)
        backend = MemoryBackend()
        agent = CollectAgent(backend, broker=broker)
        manager = AnalyticsManager()
        manager.add_operator(
            Aggregator("nodepower", ["/an/n0/g/#"], output="total", func="sum")
        )
        manager.attach_to_agent(agent)
        pusher = Pusher(
            PusherConfig(mqtt_prefix="/an/n0"),
            client=MQTTClient("p", broker=broker),
            clock=SimClock(0),
        )
        pusher.load_plugin(
            "tester",
            "group g { interval 1000\n numSensors 4\n generator constant\n startValue 100 }",
        )
        pusher.client.connect()
        pusher.start_plugin("tester")
        pusher.advance_to(10 * NS_PER_SEC)
        # Derived sensor is stored and queryable via libDCDB.
        dcdb = DCDBClient(backend)
        ts, values = dcdb.query("/analytics/nodepower/total", 0, 20 * NS_PER_SEC)
        assert ts.size == 9  # buckets close when the next one opens
        assert values.tolist() == [400.0] * 9

    def test_attached_to_pusher_publishes_derived_sensors(self):
        from repro.core.collectagent import CollectAgent
        from repro.core.pusher import Pusher, PusherConfig
        from repro.mqtt.broker import MQTTBroker
        from repro.mqtt.client import MQTTClient
        from repro.storage import MemoryBackend

        broker = MQTTBroker(port=None)
        backend = MemoryBackend()
        agent = CollectAgent(backend, broker=broker)
        pusher = Pusher(
            PusherConfig(mqtt_prefix="/pp/n0"),
            client=MQTTClient("p", broker=broker),
            clock=SimClock(0),
        )
        pusher.load_plugin("tester", "group g { interval 1000\n numSensors 1 }")
        manager = AnalyticsManager()
        manager.add_operator(EmaSmoother("sm", ["/pp/n0/#"], alpha=0.5))
        manager.attach_to_pusher(pusher)
        pusher.client.connect()
        pusher.start_plugin("tester")
        pusher.advance_to(5 * NS_PER_SEC)
        # Raw + smoothed both reached the agent.
        topics = agent.topics()
        assert "/pp/n0/g/s0" in topics
        assert "/analytics/sm/pp_n0_g_s0_ema" in topics
        smoothed = agent.recent("/analytics/sm/pp_n0_g_s0_ema")
        assert len(smoothed) == 4  # EMA starts from the second sample


class TestAggregatorPropertyBased:
    """Aggregator sums per bucket match a direct oracle."""

    def test_random_streams_vs_oracle(self):
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=60, deadline=None)
        @given(
            events=st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=3),   # sensor id
                    st.integers(min_value=1, max_value=20),  # bucket (s)
                    st.integers(min_value=-100, max_value=100),
                ),
                min_size=1,
                max_size=60,
            )
        )
        def run(events):
            # Aggregator consumes events in time order (monotonic
            # buckets), like synchronized sensors produce them.
            events = sorted(events, key=lambda e: e[1])
            op = Aggregator("agg", ["/p/#"], func="sum", bucket_ns=NS_PER_SEC)
            emitted = {}
            for sensor, bucket, value in events:
                ts = bucket * NS_PER_SEC + 1  # strictly inside bucket
                for out in op.process(f"/p/s{sensor}", SensorReading(ts, value)):
                    emitted[out.reading.timestamp // NS_PER_SEC - 1] = (
                        out.reading.value
                    )
            for out in op.flush():
                emitted[out.reading.timestamp // NS_PER_SEC - 1] = out.reading.value
            # Oracle: last value per (sensor, bucket), summed per bucket.
            last = {}
            for sensor, bucket, value in events:
                last[(sensor, bucket)] = value
            oracle = {}
            for (sensor, bucket), value in last.items():
                oracle[bucket] = oracle.get(bucket, 0) + value
            assert emitted == oracle

        run()
