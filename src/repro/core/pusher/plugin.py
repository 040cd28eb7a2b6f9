"""Plugin base classes: Sensors, Groups, Entities, Configurators.

Paper section 4.1, verbatim roles:

* **Sensors** — "The most basic unit for data collection ... sampled
  and collected as a numerical time series.  A sensor always has to be
  part of a group."
* **Groups** — "All sensors that belong to one group share the same
  sampling interval and are always read collectively at the same point
  in time."
* **Entities** — "An optional hierarchy level to aggregate groups or
  to provide additional functionality to them", e.g. the shared host
  connection of several IPMI groups.
* **Configurator** — "reading the configuration file of a plugin and
  instantiating all components for data collection".

A concrete plugin subclasses :class:`SensorGroup` (implementing
:meth:`SensorGroup.read_raw`) and :class:`ConfiguratorBase`
(implementing :meth:`ConfiguratorBase.build_group` and optionally
:meth:`ConfiguratorBase.build_entity`), then registers itself with
:func:`repro.core.pusher.registry.register_plugin`.
"""

from __future__ import annotations

import logging
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.common.errors import ConfigError, PluginError
from repro.common.proptree import PropertyTree, parse_info
from repro.common.timeutil import NS_PER_MS, NS_PER_SEC, next_read_time
from repro.core.sensor import CachedSensor, CycleCache, SensorMetadata

logger = logging.getLogger(__name__)


def _int64_or_none(value) -> int | None:
    """``value`` as an int when an int64 holds it exactly, else None."""
    try:
        value = operator.index(value)
    except TypeError:
        return None
    return value if -(1 << 63) <= value < 1 << 63 else None


class PluginSensor:
    """One data source inside a group.

    Carries what every DCDB sensor shares: the MQTT suffix, its
    metadata and a read-only view of the sensor cache.  Delta
    conversion, caching and publish gating happen per group cycle in
    :meth:`SensorGroup.read`.  Subclasses may carry plugin-specific
    state (a file offset, an OID, a register address).
    """

    __slots__ = ("name", "mqtt_suffix", "metadata", "cache")

    def __init__(
        self,
        name: str,
        mqtt_suffix: str,
        metadata: SensorMetadata | None = None,
        cache_maxage_ns: int = 120 * NS_PER_SEC,
    ) -> None:
        self.name = name
        self.mqtt_suffix = mqtt_suffix
        self.metadata = metadata if metadata is not None else SensorMetadata(name=name)
        self.metadata.name = name
        #: Answers from the group's :class:`CycleCache` once added to one.
        self.cache = CachedSensor(maxage_ns=cache_maxage_ns)


class Cycle(NamedTuple):
    """One sampling cycle of a group, as columns over its sensors:
    every sensor's reading (0 where none was produced), the mask of
    those to publish, and the mask of the published ones the wire
    cannot carry (a float, or outside int64), or None when none."""

    values: np.ndarray
    keep: np.ndarray
    bad: np.ndarray | None


class Entity:
    """Optional shared resource for a set of groups.

    The base class only names the entity; protocol plugins subclass it
    to hold the shared connection (see e.g.
    :class:`repro.plugins.ipmi.IpmiHostEntity`).  ``connect`` and
    ``disconnect`` bracket the owning plugin's start/stop.
    """

    def __init__(self, name: str) -> None:
        self.name = name

    def connect(self) -> None:  # pragma: no cover - trivial default
        """Acquire the shared resource; default no-op."""

    def disconnect(self) -> None:  # pragma: no cover - trivial default
        """Release the shared resource; default no-op."""


class SensorGroup:
    """A set of sensors read collectively at one synchronized interval.

    Subclasses implement :meth:`read_raw` returning the raw integer
    sample of every sensor.  The framework calls :meth:`read` at
    interval-aligned timestamps (see
    :func:`repro.common.timeutil.align_interval`), which turns the
    cycle into one int64 column, applies delta conversion and publish
    gating to it as a whole, caches it as one row of the group's
    :class:`CycleCache` and hands it to the push queue.
    """

    def __init__(
        self,
        name: str,
        interval_ns: int = NS_PER_SEC,
        entity: Entity | None = None,
        min_values: int = 1,
    ) -> None:
        if interval_ns <= 0:
            raise ConfigError(f"group {name!r}: interval must be positive")
        self.name = name
        self.interval_ns = interval_ns
        self.entity = entity
        #: Number of readings to accumulate per sensor before the MQTT
        #: component sends them in one message (DCDB's minValues).
        self.min_values = max(1, min_values)
        self.sensors: list[PluginSensor] = []
        self.cache = CycleCache(interval_ns)
        self.next_due_ns: int | None = None
        self.enabled = True
        # Error accounting: one flaky cycle must not kill monitoring.
        self.read_errors = 0
        # Per-sensor columns: the delta and publish flags (read from the
        # metadata when sensors were added and on start), and the delta
        # baselines.
        self._delta = np.zeros(0, bool)
        self._any_delta = False
        self._publish = np.zeros(0, bool)
        self._baseline = np.zeros(0, np.int64)
        self._seeded = np.zeros(0, bool)
        # Delta baselines an int64 cannot hold, by sensor index.
        self._odd_baselines: dict[int, object] = {}

    def add_sensor(self, sensor: PluginSensor) -> None:
        sensor.metadata.interval_ns = self.interval_ns
        self.cache.attach(sensor.cache)
        self.sensors.append(sensor)

    def _read_flags(self) -> None:
        """Read the sensors' flags; new sensors get unseeded baselines."""
        self._delta = np.array([s.metadata.delta for s in self.sensors], bool)
        self._any_delta = bool(self._delta.any())
        self._publish = np.array([s.metadata.publish for s in self.sensors], bool)
        grow = len(self.sensors) - len(self._baseline)
        self._baseline = np.append(self._baseline, np.zeros(grow, np.int64))
        self._seeded = np.append(self._seeded, np.zeros(grow, bool))

    # -- to be provided by concrete plugins ------------------------------

    def read_raw(self, timestamp: int) -> list[int]:
        """Sample every sensor; returns raw values aligned with
        ``self.sensors``, ints within int64 (anything else fails on its
        own).  May raise :class:`PluginError`."""
        raise NotImplementedError

    # -- framework-driven -------------------------------------------------

    def read(self, timestamp: int) -> Cycle | None:
        """One collective sampling cycle, cached and returned as columns.

        A delta sensor's first sample only seeds its baseline, and a
        negative delta (a wrapped or reset counter) produces nothing,
        matching DCDB's perfevents handling.  A raising :meth:`read_raw`
        is logged and counted, not propagated, and gives None.
        """
        try:
            raws = self.read_raw(timestamp)
        except PluginError as exc:
            self.read_errors += 1
            logger.warning("group %s: read failed: %s", self.name, exc)
            return None
        if len(raws) != len(self.sensors):
            self.read_errors += 1
            logger.warning(
                "group %s: read_raw returned %d values for %d sensors",
                self.name,
                len(raws),
                len(self.sensors),
            )
            return None
        if not raws:
            return None
        if len(self._publish) != len(raws):  # sensors were added
            self._read_flags()
        column = np.array(raws)
        plain = column.dtype == np.int64 and not self._odd_baselines
        if plain and not self._any_delta:
            self.cache.store(timestamp, column, True)
            return Cycle(column, self._publish, None)
        converted = self._convert_deltas(column) if plain else None
        values, produced, bad = converted or self._convert_each(raws)
        self.cache.store(timestamp, values, produced & ~bad)
        keep = produced & self._publish
        return Cycle(values, keep, bad & keep if bad.any() else None)

    def _convert_deltas(self, column: np.ndarray):
        """Delta conversion of an int64 column, or None when a delta
        overflows int64 (the per-element conversion then takes it)."""
        delta, seeded, last = self._delta, self._seeded, self._baseline
        diff = column - last
        if (delta & seeded & (((column ^ last) & (column ^ diff)) < 0)).any():
            return None
        self._baseline = np.where(delta, column, last)
        self._seeded = seeded | delta
        produced = ~delta | (seeded & (diff >= 0))
        return np.where(delta, diff, column), produced, np.zeros(len(column), bool)

    def _convert_each(self, raws: list):
        """The per-element conversion, for a cycle with a raw value an
        int64 column cannot hold (a float, an int outside int64), or a
        delta beyond int64: such a reading fails on its own, and deltas
        take Python's arithmetic."""
        values = np.zeros(len(raws), np.int64)
        produced, bad = np.ones(len(raws), bool), np.zeros(len(raws), bool)
        for i, raw in enumerate(raws):
            value = raw
            if self._delta[i]:
                seeded = int(self._baseline[i]) if self._seeded[i] else None
                last = self._odd_baselines.pop(i, seeded)
                self._seeded[i] = True
                if _int64_or_none(raw) is None:
                    self._odd_baselines[i] = raw
                else:
                    self._baseline[i] = raw
                try:
                    value = raw - last
                    skip = value < 0
                except TypeError:  # no baseline yet, or not a number
                    value, skip = None, last is None
                if skip:
                    produced[i] = False
                    continue
            if (value := _int64_or_none(value)) is None:
                bad[i] = True
            else:
                values[i] = value
        return values, produced, bad

    def schedule_after(self, now_ns: int) -> int:
        """Compute and store the next aligned due time after ``now_ns``."""
        self.next_due_ns = next_read_time(now_ns, self.interval_ns)
        return self.next_due_ns

    def start(self) -> None:
        """Hook invoked when the plugin starts; default resets the delta
        baselines and re-reads the sensors' delta and publish flags."""
        self._read_flags()
        self._seeded = np.zeros(len(self.sensors), bool)
        self._odd_baselines.clear()

    def stop(self) -> None:  # pragma: no cover - trivial default
        """Hook invoked when the plugin stops."""

    def __len__(self) -> int:
        return len(self.sensors)


@dataclass
class Plugin:
    """A loaded plugin: its configurator plus instantiated components."""

    name: str
    configurator: "ConfiguratorBase"
    groups: list[SensorGroup] = field(default_factory=list)
    entities: list[Entity] = field(default_factory=list)
    running: bool = False

    @property
    def sensor_count(self) -> int:
        return sum(len(group) for group in self.groups)

    def all_sensors(self) -> list[PluginSensor]:
        return [sensor for group in self.groups for sensor in group.sensors]


class ConfiguratorBase:
    """Parses a plugin configuration and instantiates its components.

    The configuration syntax is the property-tree format shared by all
    DCDB plugins::

        global {
            cacheInterval 120000      ; sensor cache window, ms
        }
        template_group tdefault {
            interval 1000             ; ms
            minValues 1
        }
        group g0 {
            default tdefault
            <plugin-specific keys>
            sensor s0 {
                mqttsuffix /s0
                unit W
                scale 1000
                delta false
                publish true
            }
        }

    Subclasses implement :meth:`build_group` to construct their
    concrete :class:`SensorGroup` and attach sensors, and may override
    :meth:`build_entity` for connection-sharing plugins.  The generic
    template/default resolution, sensor-attribute parsing and entity
    wiring live here so that plugin authors write only acquisition
    code — the property the paper's generator scripts rely on.
    """

    #: Name under which the plugin registers (e.g. "procfs").
    plugin_name = "base"
    #: Key naming entity blocks in the config (e.g. "host" for IPMI).
    entity_key: str | None = None

    def __init__(self) -> None:
        self.cache_maxage_ns = 120 * NS_PER_SEC
        self._templates: dict[str, PropertyTree] = {}
        self._template_sensors: dict[str, PropertyTree] = {}
        self._template_entities: dict[str, PropertyTree] = {}

    # -- to be provided by concrete plugins --------------------------------

    def build_group(
        self,
        name: str,
        config: PropertyTree,
        entity: Entity | None,
    ) -> SensorGroup:
        """Create the plugin's concrete group from merged config."""
        raise NotImplementedError

    def build_entity(self, name: str, config: PropertyTree) -> Entity:
        """Create a shared entity; default is the bare base class."""
        return Entity(name)

    # -- generic machinery --------------------------------------------------

    def read_config(self, source: str | PropertyTree) -> Plugin:
        """Parse ``source`` (INFO text or a pre-parsed tree) and build
        the full plugin instance."""
        tree = parse_info(source) if isinstance(source, str) else source
        global_cfg = tree.child("global")
        if global_cfg is not None:
            cache_ms = global_cfg.get_int("cacheInterval", 120_000)
            self.cache_maxage_ns = cache_ms * NS_PER_MS
        # First pass: collect templates (they are not instantiated).
        for key, node in tree.children():
            if key == "template_group":
                self._templates[node.value] = node
            elif key == "template_sensor":
                self._template_sensors[node.value] = node
            elif key == "template_entity":
                self._template_entities[node.value] = node
        plugin = Plugin(name=self.plugin_name, configurator=self)
        entities: dict[str, Entity] = {}
        if self.entity_key is not None:
            for key, node in tree.children(self.entity_key):
                merged = self._merge_template(node, self._template_entities)
                entity = self.build_entity(node.value or key, merged)
                entities[entity.name] = entity
                plugin.entities.append(entity)
        for key, node in tree.children("group"):
            merged = self._merge_template(node, self._templates)
            entity = None
            entity_name = merged.get("entity")
            if entity_name is not None:
                entity = entities.get(entity_name)
                if entity is None:
                    raise ConfigError(
                        f"group {node.value!r} references unknown entity {entity_name!r}"
                    )
            group = self.build_group(node.value or key, merged, entity)
            plugin.groups.append(group)
        return plugin

    def _merge_template(
        self, node: PropertyTree, templates: dict[str, PropertyTree]
    ) -> PropertyTree:
        """Overlay ``node`` onto its ``default`` template, if any."""
        template_name = node.get("default")
        if template_name is None:
            return node
        template = templates.get(template_name)
        if template is None:
            raise ConfigError(f"unknown template {template_name!r}")
        merged = PropertyTree(node.value)
        overridden = {key for key, _ in node.children()}
        for key, child in template.children():
            if key not in overridden:
                merged.add(key, child)
        for key, child in node.children():
            if key != "default":
                merged.add(key, child)
        return merged

    # -- shared parsing helpers ---------------------------------------------

    def group_common(self, name: str, config: PropertyTree) -> dict:
        """Extract the group attributes every plugin shares."""
        interval_ms = config.get_int("interval", 1000)
        if interval_ms <= 0:
            raise ConfigError(f"group {name!r}: interval must be positive")
        return {
            "name": name,
            "interval_ns": interval_ms * NS_PER_MS,
            "min_values": config.get_int("minValues", 1),
        }

    def make_sensor(self, name: str, config: PropertyTree) -> PluginSensor:
        """Build a :class:`PluginSensor` from a ``sensor`` block."""
        merged = self._merge_template(config, self._template_sensors)
        metadata = SensorMetadata(
            name=name,
            unit=merged.get("unit", "count"),
            scale=merged.get_float("scale", 1.0),
            delta=merged.get_bool("delta", False),
            integrable=merged.get_bool("integrable", False),
            ttl_s=merged.get_int("ttl", 0),
            publish=merged.get_bool("publish", True),
        )
        suffix = merged.get("mqttsuffix", f"/{name}")
        return PluginSensor(
            name=name,
            mqtt_suffix=suffix,
            metadata=metadata,
            cache_maxage_ns=self.cache_maxage_ns,
        )

    def sensors_from(self, config: PropertyTree) -> list[PluginSensor]:
        """Build every ``sensor`` block under ``config``."""
        return [
            self.make_sensor(node.value or key, node)
            for key, node in config.children("sensor")
        ]
