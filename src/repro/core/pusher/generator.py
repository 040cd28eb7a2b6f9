"""``dcdb-genplugin``: the plugin skeleton generator.

Paper section 4.1: "To simplify the process of implementing such
plugins DCDB provides a series of generator scripts.  They create all
files required for a new plugin and fill them with code skeletons to
connect to the plugin interface.  Comment blocks point to all
locations where custom code has to be provided."

``dcdb-genplugin mydevice ./plugins_dir`` writes three files:

* ``mydevice.py`` — a configurator/group skeleton with TODO markers;
* ``mydevice.conf`` — a sample configuration;
* ``test_mydevice.py`` — a pytest skeleton exercising the plugin
  through a stepped Pusher.
"""

from __future__ import annotations

import argparse
import os
import sys

_PLUGIN_TEMPLATE = '''"""{name} plugin (generated skeleton).

TODO: describe the data source this plugin monitors.
"""

from __future__ import annotations

from repro.common.errors import ConfigError, PluginError
from repro.common.proptree import PropertyTree
from repro.core.pusher.plugin import (
    ConfiguratorBase,
    Entity,
    PluginSensor,
    SensorGroup,
)
from repro.core.pusher.registry import register_plugin


class {cls}Group(SensorGroup):
    """Reads all sensors of one group in a single cycle."""

    def read_raw(self, timestamp: int) -> list[int]:
        values: list[int] = []
        for sensor in self.sensors:
            # TODO: acquire the raw integer value of `sensor` here.
            # Raise PluginError on transient acquisition failures; the
            # framework logs them and continues with the next cycle.
            raise PluginError("acquisition not implemented yet")
        return values


class {cls}Configurator(ConfiguratorBase):
    """Parses {name}.conf blocks into groups and sensors."""

    plugin_name = "{name}"
    # TODO: set entity_key (e.g. "host") if groups share a connection,
    # and override build_entity() to construct it.

    def build_group(
        self, name: str, config: PropertyTree, entity: Entity | None
    ) -> SensorGroup:
        group = {cls}Group(entity=entity, **self.group_common(name, config))
        for key, node in config.children("sensor"):
            sensor = self.make_sensor(node.value or key, node)
            # TODO: read plugin-specific sensor attributes from `node`
            # (e.g. node.get("address")) and attach them to the sensor.
            group.add_sensor(sensor)
        if not group.sensors:
            raise ConfigError(f"{name} group defines no sensors")
        return group


register_plugin("{name}", {cls}Configurator)
'''

_CONF_TEMPLATE = """; sample configuration for the {name} plugin
global {{
    cacheInterval 120000
}}

group g0 {{
    interval 1000          ; sampling interval, ms
    sensor s0 {{
        mqttsuffix /{name}/s0
        unit count
        ; TODO: plugin-specific sensor attributes
    }}
}}
"""

_TEST_TEMPLATE = '''"""Tests for the generated {name} plugin."""

import pytest

from repro.common.timeutil import NS_PER_SEC, SimClock
from repro.core.pusher import Pusher, PusherConfig
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient

import {name}  # noqa: F401 - registers the plugin


CONFIG = """
group g0 {{
    interval 1000
    sensor s0 {{ mqttsuffix /{name}/s0 }}
}}
"""


def test_{name}_collects_readings():
    broker = MQTTBroker(port=None)
    pusher = Pusher(
        PusherConfig(mqtt_prefix="/test"),
        client=MQTTClient("p0", broker=broker),
        clock=SimClock(0),
    )
    pusher.load_plugin("{name}", CONFIG)
    pusher.client.connect()
    pusher.start_plugin("{name}")
    pusher.advance_to(3 * NS_PER_SEC)
    # TODO: once read_raw is implemented, assert on collected readings:
    # assert pusher.metrics.value("dcdb_pusher_readings_collected_total") == 3
'''


def generate(name: str, directory: str) -> list[str]:
    """Write the three skeleton files; returns their paths."""
    if not name.isidentifier() or name != name.lower():
        raise ValueError(
            f"plugin name {name!r} must be a lowercase Python identifier"
        )
    os.makedirs(directory, exist_ok=True)
    cls = name.capitalize()
    files = {
        os.path.join(directory, f"{name}.py"): _PLUGIN_TEMPLATE.format(name=name, cls=cls),
        os.path.join(directory, f"{name}.conf"): _CONF_TEMPLATE.format(name=name),
        os.path.join(directory, f"test_{name}.py"): _TEST_TEMPLATE.format(name=name),
    }
    written = []
    for path, content in files.items():
        if os.path.exists(path):
            raise FileExistsError(f"{path} already exists; refusing to overwrite")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(content)
        written.append(path)
    return written


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dcdb-genplugin", description="Generate a Pusher plugin skeleton."
    )
    parser.add_argument("name", help="plugin name (lowercase identifier)")
    parser.add_argument("directory", nargs="?", default=".", help="output directory")
    args = parser.parse_args(argv)
    try:
        for path in generate(args.name, args.directory):
            print(f"wrote {path}")
        return 0
    except (ValueError, FileExistsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
