"""Production-path validation: the in-band plugins against the live
kernel interfaces of this machine (Linux only).

Everything else in the suite uses synthetic file trees; these tests
prove the same plugins work unmodified on a real ``/proc``, which is
exactly how the paper's production configurations deploy them.
"""

import os
import sys

import pytest

from repro.common.timeutil import NS_PER_SEC, SimClock
from repro.core.pusher import Pusher, PusherConfig
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient

pytestmark = pytest.mark.skipif(
    sys.platform != "linux" or not os.path.exists("/proc/meminfo"),
    reason="requires a live Linux /proc",
)


def make_pusher():
    broker = MQTTBroker(port=None)
    pusher = Pusher(
        PusherConfig(mqtt_prefix="/live/host"),
        client=MQTTClient("p", broker=broker),
        clock=SimClock(0),
    )
    pusher.client.connect()
    return pusher, broker


class TestLiveProc:
    def test_meminfo(self):
        pusher, _ = make_pusher()
        pusher.load_plugin(
            "procfs",
            "group mem { interval 1000\n type meminfo\n"
            " sensor MemTotal { mqttsuffix /memtotal\n unit KiB } }",
        )
        pusher.start_plugin("procfs")
        pusher.advance_to(NS_PER_SEC)
        sensor = pusher.sensor_by_topic("/live/host/memtotal")
        # A real machine has more than 64 MiB and less than 1 PiB.
        assert 65536 < sensor.cache.latest().value < 2**40

    def test_meminfo_auto_discovery_finds_standard_keys(self):
        pusher, _ = make_pusher()
        plugin = pusher.load_plugin(
            "procfs", "group mem { interval 1000\n type meminfo }"
        )
        names = {s.name for s in plugin.all_sensors()}
        assert {"MemTotal", "MemFree"} <= names

    def test_procstat_cpu_counters(self):
        pusher, _ = make_pusher()
        pusher.load_plugin(
            "procfs",
            "group st { interval 1000\n type procstat\n"
            " sensor cpu_user { delta false } }",
        )
        pusher.start_plugin("procfs")
        pusher.advance_to(NS_PER_SEC)
        sensor = pusher.plugins["procfs"].groups[0].sensors[0]
        assert sensor.cache.latest().value > 0

    def test_vmstat_deltas_over_real_activity(self):
        pusher, _ = make_pusher()
        pusher.load_plugin(
            "procfs",
            "group vm { interval 1000\n type vmstat\n sensor pgfault { } }",
        )
        pusher.start_plugin("procfs")
        pusher.advance_to(NS_PER_SEC)  # seeds the delta
        # Touch some memory so the fault counter moves.
        _scratch = bytearray(8 * 1024 * 1024)
        pusher.advance_to(2 * NS_PER_SEC)
        sensor = pusher.plugins["procfs"].groups[0].sensors[0]
        reading = sensor.cache.latest()
        assert reading is not None
        assert reading.value >= 0

    def test_full_production_style_cycle(self):
        """meminfo + vmstat + procstat groups in one plugin, one cycle."""
        pusher, broker = make_pusher()
        plugin = pusher.load_plugin(
            "procfs",
            "group mem { interval 1000\n type meminfo }\n"
            "group vm  { interval 1000\n type vmstat }\n"
            "group st  { interval 1000\n type procstat }",
        )
        assert plugin.sensor_count > 20  # a real kernel exposes plenty
        pusher.start_plugin("procfs")
        pusher.advance_to(2 * NS_PER_SEC)
        assert all(g.read_errors == 0 for g in plugin.groups)
        assert pusher.metrics.value("dcdb_pusher_readings_collected_total") > 0
