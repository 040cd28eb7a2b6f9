"""Figure 6: Pusher CPU load and memory usage on SuperMUC-NG nodes.

Paper: across the 25 tester configurations, (a) average per-core CPU
load peaks at ~3 % in the most intensive configuration (10 000 sensors
at 100 ms = 100 000 readings/s); (b) memory usage depends on both
sensors and interval through the cache contents, peaking at ~350 MB
and staying well below 50 MB for production-like configurations
(<= 1000 sensors).

Shape assertions: those anchors plus monotonicity in rate and the
cache-driven memory structure.  A second test validates the memory
model's mechanism against the Pusher's real cache (a group's cycle ring).
"""

import pytest

from conftest import emit, format_table
from repro.simulation.architectures import SKYLAKE
from repro.simulation.resources import ResourceModel

INTERVALS_MS = (100, 250, 500, 1000, 10_000)
SENSORS = (10, 100, 1000, 5000, 10_000)


def run_fig6():
    model = ResourceModel(SKYLAKE)
    cpu = {
        (i, s): model.cpu_load_measured(s, i) for i in INTERVALS_MS for s in SENSORS
    }
    mem = {
        (i, s): model.memory_measured(s, i) for i in INTERVALS_MS for s in SENSORS
    }
    return cpu, mem


def test_fig6_shape(benchmark):
    cpu, mem = benchmark(run_fig6)
    for title, data, unit in (
        ("Figure 6a: average per-core CPU load [%]", cpu, "%"),
        ("Figure 6b: average memory usage [MB]", mem, "MB"),
    ):
        rows = [
            [f"{interval} ms"] + [f"{data[(interval, s)]:.2f}" for s in SENSORS]
            for interval in INTERVALS_MS
        ]
        emit(title, format_table(["Interval"] + [str(s) for s in SENSORS], rows))
    # CPU anchors: ~3% at the hottest cell; <1% at rate <= 1000/s.
    assert cpu[(100, 10_000)] == pytest.approx(3.0, abs=0.5)
    assert cpu[(1000, 1000)] < 1.0
    # Memory anchors: ~350 MB hottest; < 50 MB for typical production
    # configurations (<= 1000 sensors at >= 1 s sampling).
    assert mem[(100, 10_000)] == pytest.approx(350.0, abs=40.0)
    for interval in (1000, 10_000):
        for sensors in (10, 100, 1000):
            assert mem[(interval, sensors)] < 50.0
    # Memory decreases when the same sensors sample more slowly
    # (fewer cached readings per window).
    assert mem[(100, 10_000)] > mem[(1000, 10_000)] > mem[(10_000, 10_000)]


def test_fig6_memory_mechanism_matches_sensor_cache(benchmark):
    """The model's memory slope mirrors the real cache's growth."""
    from repro.common.timeutil import NS_PER_SEC
    from repro.core.pusher.plugin import PluginSensor, SensorGroup

    class OneSensor(SensorGroup):
        def read_raw(self, timestamp):
            return [1]

    def fill(interval_ms: int) -> int:
        step = interval_ms * 1_000_000
        group = OneSensor("g", interval_ns=step)
        sensor = PluginSensor("s", "/s", cache_maxage_ns=120 * NS_PER_SEC)
        group.add_sensor(sensor)
        # Fill well past the window to reach steady state.
        for cycle in range(1, 2 * (120_000 // interval_ms) + 1):
            group.read(cycle * step)
        return len(sensor.cache)

    steady_1000 = benchmark(fill, 1000)
    steady_100 = fill(100)
    # Cache population scales inversely with the interval: 10x faster
    # sampling -> ~10x more cached readings (the Figure 6b mechanism).
    assert steady_100 == pytest.approx(10 * steady_1000, rel=0.05)
