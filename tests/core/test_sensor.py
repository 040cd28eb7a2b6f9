"""Tests for the sensor data model and cache."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.timeutil import NS_PER_SEC
from repro.core.pusher.plugin import PluginSensor, SensorGroup
from repro.core.sensor import SensorCache, SensorMetadata, SensorReading


class TestSensorReading:
    def test_ordering_by_timestamp(self):
        assert SensorReading(1, 100) < SensorReading(2, 0)

    def test_scaled(self):
        assert SensorReading(0, 45000).scaled(1000.0) == 45.0

    def test_scaled_identity(self):
        assert SensorReading(0, 7).scaled(1.0) == 7.0


class TestSensorMetadata:
    def test_physical_round_trip(self):
        meta = SensorMetadata(name="t", scale=100.0)
        raw = meta.from_physical(45.67)
        assert meta.to_physical(SensorReading(0, raw)) == pytest.approx(45.67)

    def test_defaults(self):
        meta = SensorMetadata(name="s")
        assert meta.unit == "count"
        assert meta.publish is True
        assert meta.delta is False


class TestSensorCache:
    def test_store_and_latest(self):
        cache = SensorCache()
        cache.store(([1], [10]))
        cache.store(([2], [20]))
        assert cache.latest() == SensorReading(2, 20)

    def test_empty_latest(self):
        assert SensorCache().latest() is None

    def test_eviction_by_age(self):
        cache = SensorCache(maxage_ns=10 * NS_PER_SEC)
        for i in range(30):
            cache.store(([i * NS_PER_SEC], [i]))
        readings = cache.snapshot()
        # Window is [latest - 10s, latest]: timestamps 19..29.
        assert readings[0].timestamp == 19 * NS_PER_SEC
        assert len(readings) == 11

    def test_two_minute_default_window(self):
        cache = SensorCache()
        assert cache.maxage_ns == 120 * NS_PER_SEC

    def test_view_range(self):
        cache = SensorCache()
        for i in range(10):
            cache.store(([i], [i * 10]))
        view = cache.view(3, 6)
        assert [r.timestamp for r in view] == [3, 4, 5, 6]

    def test_average_all(self):
        cache = SensorCache()
        for v in (10, 20, 30):
            cache.store(([v], [v]))
        assert cache.average() == 20.0

    def test_average_window(self):
        cache = SensorCache()
        for i in range(10):
            cache.store(([i * NS_PER_SEC], [i]))
        # Last 2 seconds: values 7, 8, 9.
        assert cache.average(2 * NS_PER_SEC) == 8.0

    def test_average_empty(self):
        assert SensorCache().average() is None

    def test_len(self):
        cache = SensorCache()
        assert len(cache) == 0
        cache.store(([1], [1]))
        assert len(cache) == 1

    def test_invalid_maxage_rejected(self):
        with pytest.raises(ValueError):
            SensorCache(maxage_ns=0)

    @given(st.lists(st.integers(min_value=0, max_value=10**12), min_size=1, max_size=60))
    def test_window_invariant_property(self, timestamps):
        cache = SensorCache(maxage_ns=1000)
        for t in sorted(timestamps):
            cache.store(([t], [0]))
        readings = cache.snapshot()
        newest = readings[-1].timestamp
        assert all(newest - r.timestamp <= 1000 for r in readings)
        # The newest reading always survives.
        assert readings[-1].timestamp == max(timestamps)


class ScriptedGroup(SensorGroup):
    raws: list = []

    def read_raw(self, timestamp):
        return self.raws[: len(self.sensors)]


cycle_histories = st.fixed_dictionaries(
    {
        "interval": st.sampled_from([100, 250, 1000]),
        # Max ages, one per sensor, as (intervals, extra ns): multiples
        # of the interval or not.
        "windows": st.lists(
            st.tuples(st.integers(0, 12), st.sampled_from([0, 1, 99])).filter(any),
            min_size=1,
            max_size=3,
        ),
        "delta": st.lists(st.booleans(), min_size=3, max_size=3),
        # Per cycle: the gap since the last one, in intervals, and a raw
        # value per sensor (small, so delta counters reset often).
        "cycles": st.lists(
            st.tuples(st.integers(1, 3), st.lists(st.integers(0, 9), min_size=3, max_size=3)),
            max_size=40,
        ),
        # Before which cycle a plain sensor with a one interval longer
        # window joins (the ring grows), if any.
        "late": st.one_of(st.none(), st.integers(0, 39)),
    }
)


class TestCycleCache:
    """A group's cycle ring answers as a per-sensor SensorCache fed the
    same readings, limited to the cycles the ring holds."""

    @settings(max_examples=150, deadline=None)
    @given(history=cycle_histories)
    def test_ring_views_equal_per_sensor_caches(self, history):
        interval = history["interval"]
        windows = [k * interval + extra for k, extra in history["windows"]]
        group = ScriptedGroup("g", interval)
        sensors = []
        for i, window in enumerate(windows):
            sensor = PluginSensor(f"s{i}", f"/s{i}", cache_maxage_ns=window)
            sensor.metadata.delta = history["delta"][i]
            group.add_sensor(sensor)
            sensors.append(sensor)
        references = [SensorCache(maxage_ns=window) for window in windows]
        last, t, stamps = {}, 0, []
        for cycle, (gap, raws) in enumerate(history["cycles"]):
            if cycle == history["late"]:
                window = max(windows) + interval
                sensors.append(PluginSensor("late", "/late", cache_maxage_ns=window))
                group.add_sensor(sensors[-1])
                references.append(SensorCache(maxage_ns=window))
            t += gap * interval
            stamps.append(t)
            group.raws = raws[: len(windows)] + [raws[0] + 100]
            group.read(t)
            for i, raw in enumerate(group.raws[: len(sensors)]):
                value = raw
                if i < len(windows) and history["delta"][i]:  # the per-reading delta rule
                    previous, last[i] = last.get(i), raw
                    if previous is None or raw < previous:
                        continue
                    value = raw - previous
                references[i].store(([t], [value]))
        held = stamps[-group.cache.slots :]
        for sensor, reference in zip(sensors, references):
            expected = [r for r in reference.snapshot() if held and r.timestamp >= held[0]]
            if expected and expected[-1].timestamp == stamps[-1]:
                # Read in the newest cycle: the ring holds its whole window.
                assert expected == reference.snapshot()
            limited = SensorCache(maxage_ns=sensor.cache.maxage_ns)
            limited.store(([r.timestamp for r in expected], [r.value for r in expected]))
            cache = sensor.cache
            assert cache.snapshot() == limited.snapshot()
            assert cache.latest() == limited.latest()
            assert len(cache) == len(limited)
            assert cache.view(stamps[0] if stamps else 0, t // 2) == limited.view(
                stamps[0] if stamps else 0, t // 2
            )
            for window in (None, interval, 2 * interval + 1):
                assert cache.average(window) == limited.average(window)
            assert cache.memory_bytes == 9 * group.cache.slots

    def test_slots_cover_the_window(self):
        group = SensorGroup("g", interval_ns=100)
        group.add_sensor(PluginSensor("s", "/s", cache_maxage_ns=250))
        assert group.cache.slots == 4  # ceil(250 / 100) + 1
        group.add_sensor(PluginSensor("t", "/t", cache_maxage_ns=1000))
        assert group.cache.slots == 11
