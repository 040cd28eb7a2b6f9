"""Release hygiene: the public API surface is importable and coherent."""

import importlib

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.common",
    "repro.mqtt",
    "repro.storage",
    "repro.core",
    "repro.core.pusher",
    "repro.core.collectagent",
    "repro.observability",
    "repro.plugins",
    "repro.devices",
    "repro.libdcdb",
    "repro.tools",
    "repro.grafana",
    "repro.simulation",
    "repro.analysis",
    "repro.analytics",
]


class TestPublicApi:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_package_imports(self, name):
        module = importlib.import_module(name)
        assert module.__doc__, f"{name} lacks a module docstring"

    @pytest.mark.parametrize(
        "name",
        [
            "repro",
            "repro.common",
            "repro.mqtt",
            "repro.storage",
            "repro.libdcdb",
            "repro.observability",
            "repro.simulation",
            "repro.analysis",
            "repro.analytics",
        ],
    )
    def test_all_entries_resolve(self, name):
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol}"

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_error_hierarchy(self):
        for name in (
            "ConfigError",
            "TransportError",
            "StorageError",
            "QueryError",
            "PluginError",
            "UnitError",
        ):
            exc_type = getattr(repro, name)
            assert issubclass(exc_type, repro.DCDBError)

    def test_quickstart_docstring_pipeline_runs(self):
        """The module docstring's quickstart is executable as written."""
        from repro import (
            CollectAgent,
            DCDBClient,
            MemoryBackend,
            MQTTClient,
            NS_PER_SEC,
            MQTTBroker,
            Pusher,
            PusherConfig,
            SimClock,
        )

        broker = MQTTBroker(port=None)
        backend = MemoryBackend()
        CollectAgent(backend, broker=broker)
        pusher = Pusher(
            PusherConfig(mqtt_prefix="/hpc/rack0/node0"),
            client=MQTTClient("p0", broker=broker),
            clock=SimClock(0),
        )
        pusher.load_plugin("tester", "group g0 { interval 1000\n numSensors 8 }")
        pusher.client.connect()
        pusher.start_plugin("tester")
        pusher.advance_to(60 * NS_PER_SEC)
        client = DCDBClient(backend)
        ts, values = client.query("/hpc/rack0/node0/g0/s0", 0, 120 * NS_PER_SEC)
        assert ts.size == 60

    def test_every_paper_plugin_loadable(self):
        from repro.core.pusher.registry import global_registry

        known = global_registry().known_plugins()
        paper_plugins = {
            "tester", "procfs", "sysfs", "perfevents", "gpfs",
            "opa", "ipmi", "snmp", "rest", "bacnet",
        }
        future_work_plugins = {"nvml", "appinstr"}
        assert paper_plugins | future_work_plugins <= set(known)
