"""Tests for the plugin base classes: sensors, groups, configurators."""

import numpy as np
import pytest

from repro.common.errors import ConfigError, PluginError
from repro.common.proptree import PropertyTree
from repro.common.timeutil import NS_PER_SEC
from repro.core.pusher.plugin import (
    ConfiguratorBase,
    Entity,
    PluginSensor,
    SensorGroup,
)
from repro.core.sensor import SensorReading


class CountingGroup(SensorGroup):
    """Test double returning the cycle number for every sensor."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.cycles = 0

    def read_raw(self, timestamp):
        self.cycles += 1
        return [self.cycles * 10 + i for i in range(len(self.sensors))]


class FailingGroup(SensorGroup):
    def read_raw(self, timestamp):
        raise PluginError("device unreachable")


class WrongArityGroup(SensorGroup):
    def read_raw(self, timestamp):
        return [1, 2, 3]  # regardless of sensor count


class ScriptedGroup(SensorGroup):
    """Test double returning the next scripted raw column per read."""

    def __init__(self, script, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.script = iter(script)

    def read_raw(self, timestamp):
        return next(self.script)


def scripted(script, delta=False):
    group = ScriptedGroup(script, "g")
    sensor = PluginSensor("s", "/s")
    sensor.metadata.delta = delta
    group.add_sensor(sensor)
    return group, sensor


def published(cycle):
    """The (index, value) pairs a cycle queues for publication."""
    return [(int(i), int(cycle.values[i])) for i in np.flatnonzero(cycle.keep)]


class TestPluginSensor:
    def test_plain_processing_caches(self):
        group, sensor = scripted([[42]])
        assert published(group.read(100)) == [(0, 42)]
        assert sensor.cache.latest() == SensorReading(100, 42)

    def test_delta_first_sample_suppressed(self):
        group, _ = scripted([[1000], [1500]], delta=True)
        assert published(group.read(1)) == []
        assert published(group.read(2)) == [(0, 500)]

    def test_delta_counter_wrap_suppressed(self):
        group, _ = scripted([[1000], [50], [80]], delta=True)
        group.read(1)
        assert published(group.read(2)) == []  # wrapped/reset
        assert published(group.read(3)) == [(0, 30)]

    def test_reset_delta(self):
        group, _ = scripted([[1000], [2000]], delta=True)
        group.read(1)
        group.start()
        assert published(group.read(2)) == []  # re-seeding

    def test_sensor_outside_a_group_caches_nothing(self):
        sensor = PluginSensor("s", "/s")
        assert sensor.cache.latest() is None
        assert len(sensor.cache) == 0


class TestSensorGroup:
    def _group(self, n=3, **kwargs):
        group = CountingGroup("g", **kwargs)
        for i in range(n):
            group.add_sensor(PluginSensor(f"s{i}", f"/s{i}"))
        return group

    def test_collective_read(self):
        group = self._group()
        assert published(group.read(1000)) == [(0, 10), (1, 11), (2, 12)]

    def test_unpublished_sensor_excluded(self):
        group = self._group()
        group.sensors[1].metadata.publish = False
        group.start()  # flags are read on add_sensor and start
        assert published(group.read(1000)) == [(0, 10), (2, 12)]
        # Still cached: the REST API answers for it.
        assert group.sensors[1].cache.latest() == SensorReading(1000, 11)

    def test_read_error_counted_not_raised(self):
        group = FailingGroup("g")
        group.add_sensor(PluginSensor("s", "/s"))
        assert group.read(1) is None
        assert group.read_errors == 1

    def test_wrong_arity_counted(self):
        group = WrongArityGroup("g")
        group.add_sensor(PluginSensor("s", "/s"))
        assert group.read(1) is None
        assert group.read_errors == 1

    def test_interval_propagates_to_sensors(self):
        group = self._group(interval_ns=5 * NS_PER_SEC)
        assert all(s.metadata.interval_ns == 5 * NS_PER_SEC for s in group.sensors)

    def test_schedule_alignment(self):
        group = self._group(interval_ns=NS_PER_SEC)
        assert group.schedule_after(int(2.3 * NS_PER_SEC)) == 3 * NS_PER_SEC

    def test_invalid_interval_rejected(self):
        with pytest.raises(ConfigError):
            SensorGroup("g", interval_ns=0)

    def test_start_resets_deltas(self):
        group = self._group()
        group.sensors[0].metadata.delta = True
        group.start()
        group.read(1)
        group.start()
        assert published(group.read(2))[0][0] == 1  # sensor 0 re-seeds

    def test_unencodable_raw_values_fail_alone(self):
        group, _ = scripted([[1 << 63], [2.5], [7]])
        for t in (1, 2):
            cycle = group.read(t)
            assert published(cycle) == [(0, 0)] and cycle.bad.tolist() == [True]
        assert group.read(3).bad is None

    def test_delta_beyond_int64_uses_exact_arithmetic(self):
        # A 64-bit counter past int64 still gives its (small) delta.
        group, sensor = scripted([[1 << 63], [(1 << 63) + 5], [3]], delta=True)
        assert published(group.read(1)) == []
        cycle = group.read(2)
        assert published(cycle) == [(0, 5)] and cycle.bad is None
        assert published(group.read(3)) == []  # a reset
        assert sensor.cache.snapshot() == [SensorReading(2, 5)]

    def test_delta_wrapping_int64_is_bad_or_a_reset(self):
        group, _ = scripted([[-(1 << 62) * 2], [(1 << 62)], [-(1 << 62) * 2]], delta=True)
        group.read(1)
        assert group.read(2).bad.tolist() == [True]  # +3 * 2**62: outside int64
        assert published(group.read(3)) == []  # negative: a reset


class MiniConfigurator(ConfiguratorBase):
    """A minimal concrete configurator for framework testing."""

    plugin_name = "mini"
    entity_key = "host"

    def build_group(self, name, config, entity):
        group = CountingGroup(entity=entity, **self.group_common(name, config))
        for sensor in self.sensors_from(config):
            group.add_sensor(sensor)
        return group

    def build_entity(self, name, config):
        entity = Entity(name)
        entity.addr = config.get("addr")
        return entity


class TestConfigurator:
    def test_builds_groups_and_sensors(self):
        plugin = MiniConfigurator().read_config(
            """
            group g0 {
                interval 500
                sensor a { mqttsuffix /a  unit W  scale 10 }
                sensor b { mqttsuffix /b  delta true }
            }
            """
        )
        assert len(plugin.groups) == 1
        group = plugin.groups[0]
        assert group.interval_ns == 500 * 1_000_000
        assert group.sensors[0].metadata.unit == "W"
        assert group.sensors[0].metadata.scale == 10.0
        assert group.sensors[1].metadata.delta is True

    def test_template_group_defaults(self):
        plugin = MiniConfigurator().read_config(
            """
            template_group fast { interval 100  minValues 5 }
            group g0 {
                default fast
                sensor a { }
            }
            group g1 {
                default fast
                interval 200
                sensor b { }
            }
            """
        )
        assert plugin.groups[0].interval_ns == 100 * 1_000_000
        assert plugin.groups[0].min_values == 5
        assert plugin.groups[1].interval_ns == 200 * 1_000_000  # override wins
        assert plugin.groups[1].min_values == 5

    def test_template_sensor_defaults(self):
        plugin = MiniConfigurator().read_config(
            """
            template_sensor watts { unit W  scale 1000 }
            group g0 {
                sensor a { default watts }
                sensor b { default watts  scale 1 }
            }
            """
        )
        sensors = plugin.groups[0].sensors
        assert sensors[0].metadata.unit == "W"
        assert sensors[0].metadata.scale == 1000.0
        assert sensors[1].metadata.scale == 1.0

    def test_unknown_template_raises(self):
        with pytest.raises(ConfigError, match="unknown template"):
            MiniConfigurator().read_config("group g { default nope }")

    def test_entity_wiring(self):
        plugin = MiniConfigurator().read_config(
            """
            host h0 { addr 10.0.0.1 }
            group g0 { entity h0
                       sensor a { } }
            """
        )
        assert plugin.groups[0].entity is plugin.entities[0]
        assert plugin.entities[0].addr == "10.0.0.1"

    def test_unknown_entity_raises(self):
        with pytest.raises(ConfigError, match="unknown entity"):
            MiniConfigurator().read_config("group g { entity ghost\n sensor a { } }")

    def test_cache_interval_from_global(self):
        configurator = MiniConfigurator()
        plugin = configurator.read_config(
            """
            global { cacheInterval 5000 }
            group g0 { sensor a { } }
            """
        )
        assert plugin.groups[0].sensors[0].cache.maxage_ns == 5000 * 1_000_000

    def test_default_mqtt_suffix(self):
        plugin = MiniConfigurator().read_config("group g0 { sensor foo { } }")
        assert plugin.groups[0].sensors[0].mqtt_suffix == "/foo"

    def test_sensor_count(self):
        plugin = MiniConfigurator().read_config(
            "group g0 { sensor a { }\n sensor b { } }\ngroup g1 { sensor c { } }"
        )
        assert plugin.sensor_count == 3
        assert len(plugin.all_sensors()) == 3

    def test_nonpositive_interval_rejected(self):
        with pytest.raises(ConfigError, match="positive"):
            MiniConfigurator().read_config("group g { interval 0\n sensor a { } }")

    def test_accepts_pre_parsed_tree(self):
        tree = PropertyTree()
        group = tree.add("group", "g0")
        group.add("sensor", "a")
        plugin = MiniConfigurator().read_config(tree)
        assert plugin.sensor_count == 1
