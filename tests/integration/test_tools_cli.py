"""Tests for the command-line tools, invoked through their main()."""

import io
import sys

import pytest

from repro.common.timeutil import NS_PER_SEC, SimClock
from repro.core.collectagent import CollectAgent
from repro.core.pusher import Pusher, PusherConfig
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient
from repro.storage.sqlite import SqliteBackend
from repro.tools import config as config_tool
from repro.tools import csvimport as csvimport_tool
from repro.tools import query as query_tool
from repro.tools.common import open_backend, parse_time


@pytest.fixture
def db_uri(tmp_path):
    """An sqlite store populated through the real pipeline."""
    path = str(tmp_path / "monitor.db")
    backend = SqliteBackend(path)
    broker = MQTTBroker(port=None)
    agent = CollectAgent(backend, broker=broker)
    pusher = Pusher(
        PusherConfig(mqtt_prefix="/cli/n0"),
        client=MQTTClient("p", broker=broker),
        clock=SimClock(0),
    )
    pusher.load_plugin("tester", "group g { interval 1000\n numSensors 2 }")
    pusher.client.connect()
    pusher.start_plugin("tester")
    pusher.advance_to(10 * NS_PER_SEC)
    backend.flush()
    backend.close()
    return f"sqlite:{path}"


class TestCommon:
    def test_open_backend_sqlite(self, tmp_path):
        backend = open_backend(f"sqlite:{tmp_path}/x.db")
        backend.close()

    def test_open_backend_memory(self):
        open_backend("memory:")

    def test_open_backend_bad_scheme(self):
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError):
            open_backend("postgres:whatever")

    @pytest.mark.parametrize(
        "text,expected",
        [("5s", 5 * NS_PER_SEC), ("250ms", 250_000_000), ("7us", 7000), ("42ns", 42), ("1000", 1000)],
    )
    def test_parse_time(self, text, expected):
        assert parse_time(text) == expected

    def test_parse_time_bad(self):
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError):
            parse_time("tomorrow")


class TestQueryTool:
    def test_csv_rows(self, db_uri, capsys):
        rc = query_tool.main(
            ["--db", db_uri, "/cli/n0/g/s0", "--start", "0s", "--end", "60s"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "sensor,time,value"
        assert len(lines) == 11

    def test_list_topics(self, db_uri, capsys):
        rc = query_tool.main(["--db", db_uri, "--list", "/cli"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "/cli/n0/g/s0" in out and "/cli/n0/g/s1" in out

    def test_summary_mode(self, db_uri, capsys):
        rc = query_tool.main(
            ["--db", db_uri, "/cli/n0/g/s0", "--end", "60s", "--summary"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("sensor,count")
        assert lines[1].split(",")[1] == "10"

    def test_integral_mode(self, db_uri, capsys):
        rc = query_tool.main(
            ["--db", db_uri, "/cli/n0/g/s0", "--end", "60s", "--integral"]
        )
        assert rc == 0
        value = float(capsys.readouterr().out.strip().splitlines()[1].split(",")[1])
        # Counter 0..9 over 9s, trapezoid = 40.5.
        assert value == pytest.approx(40.5)

    def test_derivative_mode(self, db_uri, capsys):
        rc = query_tool.main(
            ["--db", db_uri, "/cli/n0/g/s0", "--end", "60s", "--derivative"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        rates = [float(line.split(",")[2]) for line in lines]
        assert rates == pytest.approx([1.0] * 9)  # +1 per second

    def test_unknown_topic_errors(self, db_uri, capsys):
        rc = query_tool.main(["--db", db_uri, "/ghost"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_no_topics_errors(self, db_uri, capsys):
        rc = query_tool.main(["--db", db_uri])
        assert rc == 2


class TestConfigTool:
    def test_sensor_list_and_set_show(self, db_uri, capsys):
        assert config_tool.main(["--db", db_uri, "sensor", "list"]) == 0
        assert "/cli/n0/g/s0" in capsys.readouterr().out
        assert (
            config_tool.main(
                [
                    "--db",
                    db_uri,
                    "sensor",
                    "set",
                    "/cli/n0/g/s0",
                    "--unit",
                    "W",
                    "--scale",
                    "10",
                    "--integrable",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert config_tool.main(["--db", db_uri, "sensor", "show", "/cli/n0/g/s0"]) == 0
        out = capsys.readouterr().out
        assert "unit       W" in out
        assert "scale      10.0" in out
        assert "integrable True" in out

    def test_scale_applies_to_queries(self, db_uri, capsys):
        config_tool.main(
            ["--db", db_uri, "sensor", "set", "/cli/n0/g/s0", "--scale", "10"]
        )
        capsys.readouterr()
        query_tool.main(["--db", db_uri, "/cli/n0/g/s0", "--end", "60s"])
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        values = [float(line.split(",")[2]) for line in lines]
        assert values[-1] == pytest.approx(0.9)  # raw 9 / scale 10

    def test_db_retention_cold_backfills_before_demoting(self, tmp_path, capsys):
        from repro.common.timeutil import now_ns
        from repro.core.sid import SensorId
        from repro.libdcdb.api import DCDBClient

        path = str(tmp_path / "retain.db")
        backend = SqliteBackend(path)
        sid = SensorId.from_codes([1, 2, 3])
        topic = "/cli/r0/power"
        backend.put_metadata(f"sidmap{topic}", sid.hex())
        # Two hours of pre-existing history (newest reading recent,
        # oldest hour-aligned) with NO rollups: the cold CLI process
        # must roll the history up before demoting any of it.
        hour = 3600 * NS_PER_SEC
        base = (now_ns() // hour - 3) * hour
        ts = [base + i * 10 * NS_PER_SEC for i in range(730)]
        backend.insert_batch([(sid, int(t), 1, 0) for t in ts])
        backend.flush()
        backend.close()
        rc = config_tool.main(
            ["--db", f"sqlite:{path}", "db", "retention", "--raw-horizon", "1800"]
        )
        assert rc == 0
        assert "raw: removed" in capsys.readouterr().out
        backend = SqliteBackend(path)
        client = DCDBClient(backend)
        # Raw readings really were demoted...
        assert backend.count(sid, 0, 1 << 62) < len(ts)
        # ...and none were lost: the planner still accounts for every
        # reading via the backfilled rollup tiers plus the raw tail.
        _, counts = client.query_aggregate(topic, base, ts[-1], "count", 200)
        assert counts.sum() == len(ts)
        backend.close()

    def test_vsensor_lifecycle(self, db_uri, capsys):
        rc = config_tool.main(
            [
                "--db",
                db_uri,
                "vsensor",
                "add",
                "total",
                "sum(</cli/n0/g>)",
                "--unit",
                "count",
            ]
        )
        assert rc == 0
        capsys.readouterr()
        config_tool.main(["--db", db_uri, "vsensor", "list"])
        assert "total" in capsys.readouterr().out
        # Queryable through the query tool like a normal sensor.
        rc = query_tool.main(
            ["--db", db_uri, "/virtual/total", "--start", "1s", "--end", "9s"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(lines) >= 8
        config_tool.main(["--db", db_uri, "vsensor", "delete", "total"])
        capsys.readouterr()
        config_tool.main(["--db", db_uri, "vsensor", "list"])
        assert "total" not in capsys.readouterr().out

    def test_bad_expression_errors(self, db_uri, capsys):
        rc = config_tool.main(
            ["--db", db_uri, "vsensor", "add", "bad", "1 +++ <"]
        )
        assert rc == 1

    def test_db_deleteolder(self, db_uri, capsys):
        rc = config_tool.main(
            ["--db", db_uri, "db", "deleteolder", "/cli/n0/g/s0", "5s"]
        )
        assert rc == 0
        assert "removed 4" in capsys.readouterr().out
        query_tool.main(["--db", db_uri, "/cli/n0/g/s0", "--end", "60s"])
        assert len(capsys.readouterr().out.strip().splitlines()) == 7

    def test_db_compact(self, db_uri, capsys):
        assert config_tool.main(["--db", db_uri, "db", "compact"]) == 0


class TestCsvImportTool:
    def test_import_then_query(self, tmp_path, capsys):
        csv_file = tmp_path / "data.csv"
        csv_file.write_text(
            "sensor,time,value\n"
            "/imported/a,1000000000,10\n"
            "/imported/a,2000000000,20\n"
            "/imported/b,1000000000,5\n"
        )
        uri = f"sqlite:{tmp_path}/imp.db"
        rc = csvimport_tool.main(["--db", uri, str(csv_file)])
        assert rc == 0
        assert "imported 3" in capsys.readouterr().out
        rc = query_tool.main(["--db", uri, "/imported/a", "--end", "60s"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3

    def test_import_into_live_db_no_sid_collision(self, db_uri, capsys):
        csv_file_content = "sensor,time,value\n/other/x,1,1\n"
        import tempfile, os

        with tempfile.NamedTemporaryFile("w", suffix=".csv", delete=False) as handle:
            handle.write(csv_file_content)
            name = handle.name
        try:
            rc = csvimport_tool.main(["--db", db_uri, name])
            assert rc == 0
            capsys.readouterr()
            # Existing data unharmed, new data present.
            assert query_tool.main(["--db", db_uri, "/cli/n0/g/s0", "--end", "60s"]) == 0
            assert len(capsys.readouterr().out.strip().splitlines()) == 11
            assert query_tool.main(["--db", db_uri, "/other/x", "--end", "60s"]) == 0
            assert len(capsys.readouterr().out.strip().splitlines()) == 2
        finally:
            os.unlink(name)

    def test_missing_file_errors(self, tmp_path, capsys):
        rc = csvimport_tool.main(["--db", "memory:", str(tmp_path / "nope.csv")])
        assert rc == 1

    def test_bad_header_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y,z\n1,2,3\n")
        rc = csvimport_tool.main(["--db", "memory:", str(bad)])
        assert rc == 1


class TestPusherdCli:
    def test_dump_mode(self, tmp_path, capsys):
        from repro.tools import pusherd

        conf = tmp_path / "pusher.conf"
        conf.write_text(
            "global { mqttPrefix /dump/n0 }\n"
            "plugin tester { config { group g { interval 1000\n numSensors 2 } } }\n"
        )
        rc = pusherd.main([str(conf), "--dump"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mqttPrefix /dump/n0" in out
        assert "numSensors 2" in out

    def test_missing_config_file_errors(self, capsys):
        from repro.tools import pusherd

        rc = pusherd.main(["/does/not/exist.conf"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_agentd_missing_config_errors(self, capsys):
        from repro.tools import agentd

        rc = agentd.main(["/does/not/exist.conf"])
        assert rc == 1
