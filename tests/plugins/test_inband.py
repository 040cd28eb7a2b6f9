"""Tests for the in-band plugins: tester, procfs, sysfs, perfevents, gpfs, opa."""

import os

import pytest

from repro.common.errors import ConfigError
from repro.common.timeutil import NS_PER_SEC, SimClock
from repro.core.pusher import Pusher, PusherConfig
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient
from repro.plugins.perfevents import SyntheticPerfSource, parse_cpu_list
from repro.plugins.procfs import parse_meminfo, parse_procstat, parse_vmstat

MEMINFO = """\
MemTotal:       96471880 kB
MemFree:        41108028 kB
MemAvailable:   90108028 kB
Cached:          1001100 kB
"""

VMSTAT = """\
nr_free_pages 10277007
pgfault 190981551
pswpin 0
"""

PROCSTAT = """\
cpu  1000 10 500 80000 200 0 50 0 0 0
cpu0 500 5 250 40000 100 0 25 0 0 0
cpu1 500 5 250 40000 100 0 25 0 0 0
intr 123456789 0 0
ctxt 987654
processes 4242
procs_running 3
procs_blocked 0
"""

GPFS_STATS = "_n_ 10.1.1.1 _fs_ work _br_ 1048576 _bw_ 2097152 _oc_ 12 _cc_ 10 _rdc_ 100 _wc_ 200\n"


def make_pusher(prefix="/ib/h0"):
    broker = MQTTBroker(port=None)
    clock = SimClock(0)
    pusher = Pusher(
        PusherConfig(mqtt_prefix=prefix), client=MQTTClient("p", broker=broker), clock=clock
    )
    pusher.client.connect()
    return pusher, broker


class TestTesterPlugin:
    def test_counter_generator(self):
        pusher, broker = make_pusher()
        pusher.load_plugin("tester", "group g { interval 1000\n numSensors 2 }")
        pusher.start_plugin("tester")
        pusher.advance_to(3 * NS_PER_SEC)
        sensor = pusher.sensor_by_topic("/ib/h0/g/s0")
        values = [r.value for r in sensor.cache.snapshot()]
        assert values == [0, 1, 2]

    def test_constant_generator(self):
        pusher, _ = make_pusher()
        pusher.load_plugin(
            "tester",
            "group g { interval 1000\n numSensors 1\n generator constant\n startValue 7 }",
        )
        pusher.start_plugin("tester")
        pusher.advance_to(2 * NS_PER_SEC)
        sensor = pusher.sensor_by_topic("/ib/h0/g/s0")
        assert [r.value for r in sensor.cache.snapshot()] == [7, 7]

    def test_sawtooth_generator(self):
        pusher, _ = make_pusher()
        pusher.load_plugin(
            "tester", "group g { interval 1000\n numSensors 1\n generator sawtooth }"
        )
        pusher.start_plugin("tester")
        pusher.advance_to(3 * NS_PER_SEC)
        sensor = pusher.sensor_by_topic("/ib/h0/g/s0")
        assert [r.value for r in sensor.cache.snapshot()] == [0, 1, 2]

    def test_invalid_generator_rejected(self):
        pusher, _ = make_pusher()
        with pytest.raises(ConfigError):
            pusher.load_plugin("tester", "group g { numSensors 1\n generator random }")

    def test_zero_sensors_rejected(self):
        pusher, _ = make_pusher()
        with pytest.raises(ConfigError, match="no sensors"):
            pusher.load_plugin("tester", "group g { interval 1000 }")


class TestProcfsParsers:
    def test_meminfo(self):
        values = parse_meminfo(MEMINFO)
        assert values["MemTotal"] == 96471880
        assert values["Cached"] == 1001100

    def test_vmstat(self):
        values = parse_vmstat(VMSTAT)
        assert values["pgfault"] == 190981551

    def test_procstat_flattens_cpus(self):
        values = parse_procstat(PROCSTAT)
        assert values["cpu0_user"] == 500
        assert values["cpu1_idle"] == 40000
        assert values["cpu_system"] == 500
        assert values["ctxt"] == 987654
        assert values["intr"] == 123456789

    def test_garbage_tolerated(self):
        assert parse_meminfo("not a meminfo\n:::\n") == {}
        assert parse_vmstat("one\ntwo three four\n") == {}


class TestProcfsPlugin:
    @pytest.fixture
    def proc_dir(self, tmp_path):
        (tmp_path / "meminfo").write_text(MEMINFO)
        (tmp_path / "vmstat").write_text(VMSTAT)
        (tmp_path / "stat").write_text(PROCSTAT)
        return tmp_path

    def test_explicit_sensors(self, proc_dir):
        pusher, _ = make_pusher()
        pusher.load_plugin(
            "procfs",
            f"group mem {{ interval 1000\n type meminfo\n path {proc_dir}/meminfo\n"
            "sensor MemFree { mqttsuffix /memfree } }",
        )
        pusher.start_plugin("procfs")
        pusher.advance_to(NS_PER_SEC)
        sensor = pusher.sensor_by_topic("/ib/h0/memfree")
        assert sensor.cache.latest().value == 41108028

    def test_auto_discovery(self, proc_dir):
        pusher, _ = make_pusher()
        plugin = pusher.load_plugin(
            "procfs",
            f"group mem {{ interval 1000\n type meminfo\n path {proc_dir}/meminfo }}",
        )
        assert plugin.sensor_count == 4  # every meminfo key

    def test_vmstat_counters_are_delta(self, proc_dir):
        pusher, _ = make_pusher()
        plugin = pusher.load_plugin(
            "procfs",
            f"group vm {{ interval 1000\n type vmstat\n path {proc_dir}/vmstat }}",
        )
        assert all(s.metadata.delta for s in plugin.all_sensors())
        pusher.start_plugin("procfs")
        pusher.advance_to(NS_PER_SEC)
        # First delta cycle emits nothing.
        assert pusher.metrics.value("dcdb_pusher_readings_collected_total") == 0
        pusher.advance_to(2 * NS_PER_SEC)
        assert pusher.metrics.value("dcdb_pusher_readings_collected_total") == 3

    def test_procstat_metrics(self, proc_dir):
        pusher, _ = make_pusher()
        plugin = pusher.load_plugin(
            "procfs",
            f"group st {{ interval 1000\n type procstat\n path {proc_dir}/stat\n"
            "sensor cpu0_user { mqttsuffix /cpu0/user\n delta false } }",
        )
        pusher.start_plugin("procfs")
        pusher.advance_to(2 * NS_PER_SEC)
        sensor = pusher.sensor_by_topic("/ib/h0/cpu0/user")
        assert sensor.cache.latest().value == 500

    def test_missing_metric_counted_as_error(self, proc_dir):
        pusher, _ = make_pusher()
        pusher.load_plugin(
            "procfs",
            f"group mem {{ interval 1000\n type meminfo\n path {proc_dir}/meminfo\n"
            "sensor NotAMetric { } }",
        )
        pusher.start_plugin("procfs")
        pusher.advance_to(NS_PER_SEC)
        assert pusher.plugins["procfs"].groups[0].read_errors == 1

    def test_missing_file_counted_as_error(self, tmp_path):
        pusher, _ = make_pusher()
        pusher.load_plugin(
            "procfs",
            f"group mem {{ interval 1000\n type meminfo\n path {tmp_path}/nope\n"
            "sensor MemFree { } }",
        )
        pusher.start_plugin("procfs")
        pusher.advance_to(NS_PER_SEC)
        assert pusher.plugins["procfs"].groups[0].read_errors == 1

    def test_unknown_type_rejected(self, proc_dir):
        pusher, _ = make_pusher()
        with pytest.raises(ConfigError, match="unknown type"):
            pusher.load_plugin(
                "procfs",
                f"group x {{ type slabinfo\n path {proc_dir}/meminfo\n sensor a {{ }} }}",
            )


class TestSysfsPlugin:
    def test_reads_value_files(self, tmp_path):
        (tmp_path / "temp1_input").write_text("45000\n")
        pusher, _ = make_pusher()
        pusher.load_plugin(
            "sysfs",
            f"group t {{ interval 1000\n sensor pkg0 {{ path {tmp_path}/temp1_input\n"
            "mqttsuffix /t/pkg0\n unit mC } }",
        )
        pusher.start_plugin("sysfs")
        pusher.advance_to(NS_PER_SEC)
        assert pusher.sensor_by_topic("/ib/h0/t/pkg0").cache.latest().value == 45000

    def test_filter_regex(self, tmp_path):
        (tmp_path / "status").write_text("power: 215 W\n")
        pusher, _ = make_pusher()
        pusher.load_plugin(
            "sysfs",
            f'group p {{ interval 1000\n sensor pw {{ path {tmp_path}/status\n'
            f'filter "power: (\\d+)"\n mqttsuffix /p }} }}',
        )
        pusher.start_plugin("sysfs")
        pusher.advance_to(NS_PER_SEC)
        assert pusher.sensor_by_topic("/ib/h0/p").cache.latest().value == 215

    def test_filter_no_match_is_error(self, tmp_path):
        (tmp_path / "status").write_text("no numbers here\n")
        pusher, _ = make_pusher()
        pusher.load_plugin(
            "sysfs",
            f'group p {{ interval 1000\n sensor pw {{ path {tmp_path}/status\n'
            f'filter "(\\d+)"\n }} }}',
        )
        pusher.start_plugin("sysfs")
        pusher.advance_to(NS_PER_SEC)
        assert pusher.plugins["sysfs"].groups[0].read_errors == 1

    def test_missing_path_config_rejected(self):
        pusher, _ = make_pusher()
        with pytest.raises(ConfigError, match="needs a path"):
            pusher.load_plugin("sysfs", "group t { sensor a { } }")

    def test_float_content_truncated(self, tmp_path):
        (tmp_path / "v").write_text("3.9\n")
        pusher, _ = make_pusher()
        pusher.load_plugin(
            "sysfs", f"group g {{ interval 1000\n sensor v {{ path {tmp_path}/v }} }}"
        )
        pusher.start_plugin("sysfs")
        pusher.advance_to(NS_PER_SEC)
        sensor = pusher.plugins["sysfs"].groups[0].sensors[0]
        assert sensor.cache.latest().value == 3


class TestPerfeventsPlugin:
    def test_cpu_list_parsing(self):
        assert parse_cpu_list("0-3,8,12-13") == [0, 1, 2, 3, 8, 12, 13]
        assert parse_cpu_list("5") == [5]

    @pytest.mark.parametrize("bad", ["", "a-b", "3-1", "x"])
    def test_bad_cpu_lists(self, bad):
        with pytest.raises(ConfigError):
            parse_cpu_list(bad)

    def test_per_cpu_sensors_generated(self):
        pusher, _ = make_pusher()
        plugin = pusher.load_plugin(
            "perfevents",
            "group instr { interval 1000\n counter instructions\n cpus 0-3 }",
        )
        assert plugin.sensor_count == 4
        assert all(s.metadata.delta for s in plugin.all_sensors())

    def test_counters_published_as_deltas(self):
        pusher, _ = make_pusher()
        pusher.load_plugin(
            "perfevents",
            "group instr { interval 1000\n counter instructions\n cpus 0 }",
        )
        pusher.start_plugin("perfevents")
        pusher.advance_to(3 * NS_PER_SEC)
        sensor = pusher.sensor_by_topic("/ib/h0/cpu0/instructions")
        values = [r.value for r in sensor.cache.snapshot()]
        # Rate-constant source -> equal per-second deltas.
        assert len(values) == 2
        assert values[0] == pytest.approx(values[1], rel=0.01)

    def test_synthetic_source_rates(self):
        source = SyntheticPerfSource(rates={"instructions": 1e9})
        assert source.read(0, "instructions", NS_PER_SEC) == pytest.approx(1e9)
        assert source.read(0, "instructions", 2 * NS_PER_SEC) == pytest.approx(2e9)

    def test_cpu_skew(self):
        source = SyntheticPerfSource(rates={"cycles": 1e9}, cpu_skew=0.1)
        assert source.read(1, "cycles", NS_PER_SEC) > source.read(0, "cycles", NS_PER_SEC)

    def test_rate_fn_integration(self):
        # A time-varying rate function is integrated piecewise.
        source = SyntheticPerfSource(rate_fn=lambda cpu, ev, t: 100.0 if t < NS_PER_SEC else 200.0)
        assert source.read(0, "instructions", NS_PER_SEC) == 100
        assert source.read(0, "instructions", 2 * NS_PER_SEC) == 300

    def test_missing_counter_rejected(self):
        pusher, _ = make_pusher()
        with pytest.raises(ConfigError, match="needs a counter"):
            pusher.load_plugin("perfevents", "group g { cpus 0 }")


class TestGpfsPlugin:
    def test_parses_mmpmon_fields(self, tmp_path):
        (tmp_path / "stats").write_text(GPFS_STATS)
        pusher, _ = make_pusher()
        plugin = pusher.load_plugin(
            "gpfs", f"group io {{ interval 1000\n path {tmp_path}/stats }}"
        )
        assert plugin.sensor_count == 6
        pusher.start_plugin("gpfs")
        pusher.advance_to(2 * NS_PER_SEC)  # deltas: first cycle seeds
        # Static file -> all deltas zero but emitted.
        sensor = pusher.sensor_by_topic("/ib/h0/io/bytes_read")
        assert sensor.cache.latest().value == 0

    def test_selected_field(self, tmp_path):
        (tmp_path / "stats").write_text(GPFS_STATS)
        pusher, _ = make_pusher()
        plugin = pusher.load_plugin(
            "gpfs",
            f"group io {{ interval 1000\n path {tmp_path}/stats\n"
            "sensor br { field _br_\n mqttsuffix /br } }",
        )
        assert plugin.sensor_count == 1

    def test_unknown_field_rejected(self, tmp_path):
        (tmp_path / "stats").write_text(GPFS_STATS)
        pusher, _ = make_pusher()
        with pytest.raises(ConfigError, match="unknown field"):
            pusher.load_plugin(
                "gpfs",
                f"group io {{ path {tmp_path}/stats\n sensor x {{ field _xx_ }} }}",
            )

    def test_missing_path_rejected(self):
        pusher, _ = make_pusher()
        with pytest.raises(ConfigError, match="needs a path"):
            pusher.load_plugin("gpfs", "group io { interval 1000 }")


class TestOpaPlugin:
    @pytest.fixture
    def fabric_dir(self, tmp_path):
        counters = tmp_path / "hfi1_0" / "ports" / "1" / "counters"
        os.makedirs(counters)
        for name, value in (
            ("port_xmit_data", 1000),
            ("port_rcv_data", 2000),
            ("port_xmit_pkts", 30),
            ("port_rcv_pkts", 40),
        ):
            (counters / name).write_text(f"{value}\n")
        return tmp_path

    def test_counters_sampled(self, fabric_dir):
        pusher, _ = make_pusher()
        plugin = pusher.load_plugin(
            "opa", f"group net {{ interval 1000\n root {fabric_dir} }}"
        )
        assert plugin.sensor_count == 4
        pusher.start_plugin("opa")
        pusher.advance_to(2 * NS_PER_SEC)
        sensor = pusher.sensor_by_topic("/ib/h0/hfi1_0/port1/port_xmit_data")
        assert sensor.cache.latest().value == 0  # static counters

    def test_counter_subset(self, fabric_dir):
        pusher, _ = make_pusher()
        plugin = pusher.load_plugin(
            "opa",
            f"group net {{ interval 1000\n root {fabric_dir}\n"
            "counters port_xmit_data,port_rcv_data }",
        )
        assert plugin.sensor_count == 2

    def test_unknown_counter_rejected(self, fabric_dir):
        pusher, _ = make_pusher()
        with pytest.raises(ConfigError, match="unknown counter"):
            pusher.load_plugin(
                "opa",
                f"group net {{ root {fabric_dir}\n counters port_bogus }}",
            )

    def test_missing_tree_is_runtime_error(self, tmp_path):
        pusher, _ = make_pusher()
        pusher.load_plugin("opa", f"group net {{ interval 1000\n root {tmp_path} }}")
        pusher.start_plugin("opa")
        pusher.advance_to(NS_PER_SEC)
        assert pusher.plugins["opa"].groups[0].read_errors == 1
