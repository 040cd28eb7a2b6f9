"""Tests for the daemon builders (dcdb-pusher / dcdb-collectagent configs)."""

import time

import pytest

from repro.common.errors import DCDBError
from repro.common.proptree import parse_info
from repro.mqtt.client import MQTTClient
from repro.tools.agentd import agent_from_config
from repro.tools.pusherd import pusher_from_config


class TestAgentFromConfig:
    def test_builds_with_defaults(self):
        agent, rest = agent_from_config(parse_info("global { mqttPort 0 }"))
        assert rest is None
        agent.start()
        assert agent.port > 0
        agent.stop()

    @pytest.mark.parametrize(
        "old",
        [
            "true",
            "false",
            pytest.param("true\n backpressure drop-oldest", id="backpressure-drop-oldest"),
            pytest.param("false\n backpressure error", id="backpressure-error"),
        ],
    )
    def test_old_batching_key_is_ignored(self, old):
        """Old ``batching`` and ``backpressure`` keys are ignored."""
        tree = parse_info(f"global {{ mqttPort 0\n batching {old}\n batchSize 512 }}")
        agent, _ = agent_from_config(tree)
        assert agent.writer.config.max_batch == 512
        assert agent.writer.loop is agent.broker
        assert "policy" not in agent.writer.status()

    def test_rest_api_enabled(self):
        tree = parse_info("global { mqttPort 0\n restPort 0 }")
        agent, rest = agent_from_config(tree)
        # restPort 0 means disabled in our convention.
        assert rest is None

    def test_sqlite_backend_from_uri(self, tmp_path):
        tree = parse_info(
            f"global {{ mqttPort 0\n db sqlite:{tmp_path}/d.db }}"
        )
        agent, _ = agent_from_config(tree)
        from repro.storage.sqlite import SqliteBackend

        assert isinstance(agent.backend, SqliteBackend)
        agent.backend.close()


class TestPusherFromConfig:
    def test_inline_plugin_config(self):
        tree = parse_info(
            """
            global {
                mqttPrefix /d/n0
                brokerPort 0
                sendMode continuous
            }
            plugin tester {
                config {
                    group g0 { interval 1000
                               numSensors 4 }
                }
            }
            """
        )
        pusher, rest = pusher_from_config(tree)
        assert pusher.sensor_count == 4
        assert pusher.config.mqtt_prefix == "/d/n0"
        assert rest is None

    def test_plugin_config_file(self, tmp_path):
        plugin_conf = tmp_path / "tester.conf"
        plugin_conf.write_text("group g0 { interval 500\n numSensors 2 }\n")
        tree = parse_info(
            f"""
            global {{ mqttPrefix /d/n1 }}
            plugin tester {{ configFile {plugin_conf} }}
            """
        )
        pusher, _ = pusher_from_config(tree)
        assert pusher.sensor_count == 2
        assert pusher.plugins["tester"].groups[0].interval_ns == 500_000_000

    def test_plugin_without_config_rejected(self):
        tree = parse_info("plugin tester { }")
        with pytest.raises(DCDBError, match="neither config nor configFile"):
            pusher_from_config(tree)

    def test_aliased_plugins(self):
        tree = parse_info(
            """
            plugin tester {
                alias fast
                config { group g { interval 100
                                   numSensors 1 } }
            }
            plugin tester {
                alias slow
                config { group g { interval 10000
                                   numSensors 1 } }
            }
            """
        )
        pusher, _ = pusher_from_config(tree)
        assert set(pusher.plugins) == {"fast", "slow"}


class TestDaemonsTogether:
    def test_pusher_daemon_feeds_agent_daemon(self):
        agent, _ = agent_from_config(parse_info("global { mqttPort 0 }"))
        agent.start()
        try:
            tree = parse_info(
                f"""
                global {{
                    mqttPrefix /daemons/n0
                    brokerPort {agent.port}
                }}
                plugin tester {{
                    config {{ group g {{ interval 100
                                         numSensors 2 }} }}
                }}
                """
            )
            pusher, _ = pusher_from_config(tree)
            for alias in list(pusher.plugins):
                pusher.start_plugin(alias)
            pusher.start()
            try:
                deadline = time.monotonic() + 10.0
                while agent.metrics.value("dcdb_agent_readings_stored_total") < 6 and time.monotonic() < deadline:
                    time.sleep(0.05)
                assert agent.metrics.value("dcdb_agent_readings_stored_total") >= 6
            finally:
                pusher.stop()
        finally:
            agent.stop()


class TestAgentWithAnalytics:
    def test_analytics_block_attaches_manager(self):
        from repro.common.timeutil import NS_PER_SEC
        from repro.core.payload import encode_reading
        from repro.mqtt.client import MQTTClient

        tree = parse_info(
            """
            global { mqttPort 0 }
            analytics {
                operator hot {
                    type  threshold
                    input /d/+/temp
                    high  80
                }
            }
            """
        )
        agent, _ = agent_from_config(tree)
        assert agent.analytics is not None
        agent.start()
        try:
            client = MQTTClient("p", port=agent.port)
            client.connect()
            client.publish(
                "/d/n0/temp", encode_reading(NS_PER_SEC, 95), qos=1, wait_ack=True
            )
            client.disconnect()
            assert len(agent.analytics.alarms) == 1
            # The derived alarm series landed in storage too.
            sid = agent.sid_mapper.lookup_topic("/analytics/hot/d_n0_temp_alarm")
            assert sid is not None
            ts, vals = agent.backend.query(sid, 0, 10 * NS_PER_SEC)
            assert vals.tolist() == [1]
        finally:
            agent.stop()

    def test_analytics_config_file(self, tmp_path):
        conf = tmp_path / "analytics.conf"
        conf.write_text("operator sm { type ema\n input /x/# }\n")
        tree = parse_info(
            f"global {{ mqttPort 0\n analyticsConfig {conf} }}"
        )
        agent, _ = agent_from_config(tree)
        assert [op.name for op in agent.analytics.operators()] == ["sm"]


class TestReferenceConfigs:
    """The shipped reference configs in examples/configs/ stay valid."""

    CONFIG_DIR = __file__.rsplit("/tests/", 1)[0] + "/examples/configs"

    @pytest.mark.skipif(
        not __import__("os").path.exists("/proc/meminfo"),
        reason="procfs auto-discovery needs a live /proc",
    )
    def test_pusher_production_conf_builds(self):
        with open(f"{self.CONFIG_DIR}/pusher_production.conf", encoding="utf-8") as f:
            tree = parse_info(f.read())
        pusher, rest = pusher_from_config(tree)
        # perfevents 2x8 + procfs auto-discovery + sysfs 1.
        assert pusher.sensor_count > 17
        assert pusher.config.threads == 2
        assert rest is not None
        assert {"perfevents", "procfs", "sysfs"} <= set(pusher.plugins)

    def test_agent_conf_builds_with_analytics(self):
        with open(f"{self.CONFIG_DIR}/agent.conf", encoding="utf-8") as f:
            text = f.read()
        # Avoid touching the working directory: swap the db for memory.
        text = text.replace("sqlite:monitor.db", "memory:")
        agent, rest = agent_from_config(parse_info(text))
        assert agent.analytics is not None
        names = {op.name for op in agent.analytics.operators()}
        assert names == {"rack0_power", "power_band", "temp_anomaly"}
