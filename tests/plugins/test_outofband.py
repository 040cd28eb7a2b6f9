"""Tests for the out-of-band plugins against simulated devices."""

import pytest

from repro.common.errors import ConfigError
from repro.common.timeutil import NS_PER_SEC, SimClock
from repro.core.pusher import Pusher, PusherConfig
from repro.devices import (
    BacnetDeviceServer,
    BmcServer,
    DeviceModel,
    RestDeviceServer,
    SnmpAgentServer,
    constant,
)
from repro.devices.bacnet_device import AnalogInput
from repro.devices.bmc import SdrRecord
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient


@pytest.fixture
def model():
    m = DeviceModel(clock=SimClock(NS_PER_SEC))
    m.add_channel("node_power", constant(320))
    m.add_channel("cpu_temp", constant(6150))
    m.add_channel("heat_out", constant(29_500))
    return m


def make_pusher():
    broker = MQTTBroker(port=None)
    pusher = Pusher(
        PusherConfig(mqtt_prefix="/oob/h0"),
        client=MQTTClient("p", broker=broker),
        clock=SimClock(0),
    )
    pusher.client.connect()
    return pusher, broker


class TestIpmiPlugin:
    @pytest.fixture
    def bmc(self, model):
        with BmcServer(model) as server:
            server.add_record(SdrRecord(12, "node_power", "power", "W"))
            server.add_record(SdrRecord(13, "cpu_temp", "temperature", "mC"))
            yield server

    def test_reads_sdr_records(self, bmc):
        pusher, _ = make_pusher()
        pusher.load_plugin(
            "ipmi",
            f"""
            host bmc0 {{ addr 127.0.0.1:{bmc.port} }}
            group power {{
                entity bmc0
                interval 1000
                sensor pw {{ record 12  mqttsuffix /power  unit W }}
                sensor tt {{ record 13  mqttsuffix /temp   unit mC }}
            }}
            """,
        )
        pusher.start_plugin("ipmi")
        pusher.advance_to(2 * NS_PER_SEC)
        assert pusher.sensor_by_topic("/oob/h0/power").cache.latest().value == 320
        assert pusher.sensor_by_topic("/oob/h0/temp").cache.latest().value == 6150
        pusher.stop_plugin("ipmi")

    def test_groups_share_entity_connection(self, bmc):
        pusher, _ = make_pusher()
        plugin = pusher.load_plugin(
            "ipmi",
            f"""
            host bmc0 {{ addr 127.0.0.1:{bmc.port} }}
            group a {{ entity bmc0
                       interval 1000
                       sensor pw {{ record 12 }} }}
            group b {{ entity bmc0
                       interval 1000
                       sensor tt {{ record 13 }} }}
            """,
        )
        assert plugin.groups[0].entity is plugin.groups[1].entity
        assert len(plugin.entities) == 1

    def test_device_down_counts_errors_and_recovers_counting(self, model):
        # Point the plugin at a port where nothing listens.
        pusher, _ = make_pusher()
        pusher.load_plugin(
            "ipmi",
            """
            host bmc0 { addr 127.0.0.1:1 }
            group g { entity bmc0
                      interval 1000
                      sensor pw { record 12 } }
            """,
        )
        with pytest.raises(OSError):
            pusher.start_plugin("ipmi")

    def test_device_dies_mid_run(self, model):
        server = BmcServer(model)
        server.start()
        server.add_record(SdrRecord(12, "node_power", "power", "W"))
        pusher, _ = make_pusher()
        pusher.load_plugin(
            "ipmi",
            f"""
            host bmc0 {{ addr 127.0.0.1:{server.port} }}
            group g {{ entity bmc0
                       interval 1000
                       sensor pw {{ record 12 }} }}
            """,
        )
        pusher.start_plugin("ipmi")
        pusher.advance_to(NS_PER_SEC)
        assert pusher.metrics.value("dcdb_pusher_readings_collected_total") == 1
        server.stop()
        pusher.advance_to(3 * NS_PER_SEC)
        # Sampling continued, errors counted, no crash.
        assert pusher.plugins["ipmi"].groups[0].read_errors >= 1

    def test_unknown_record_is_runtime_error(self, bmc):
        pusher, _ = make_pusher()
        pusher.load_plugin(
            "ipmi",
            f"""
            host bmc0 {{ addr 127.0.0.1:{bmc.port} }}
            group g {{ entity bmc0
                       interval 1000
                       sensor pw {{ record 999 }} }}
            """,
        )
        pusher.start_plugin("ipmi")
        pusher.advance_to(NS_PER_SEC)
        assert pusher.plugins["ipmi"].groups[0].read_errors == 1
        pusher.stop_plugin("ipmi")

    def test_group_without_entity_rejected(self, bmc):
        pusher, _ = make_pusher()
        with pytest.raises(ConfigError, match="requires an entity"):
            pusher.load_plugin(
                "ipmi", "group g { interval 1000\n sensor pw { record 1 } }"
            )

    def test_sensor_without_record_rejected(self, bmc):
        pusher, _ = make_pusher()
        with pytest.raises(ConfigError, match="record"):
            pusher.load_plugin(
                "ipmi",
                f"""
                host bmc0 {{ addr 127.0.0.1:{bmc.port} }}
                group g {{ entity bmc0
                           sensor pw {{ }} }}
                """,
            )

    def test_bad_address_rejected(self):
        pusher, _ = make_pusher()
        with pytest.raises(ConfigError, match="bad port"):
            pusher.load_plugin(
                "ipmi",
                "host b { addr 127.0.0.1:notaport }\n"
                "group g { entity b\n sensor s { record 1 } }",
            )


class TestSnmpPlugin:
    @pytest.fixture
    def agent(self, model):
        with SnmpAgentServer(model) as server:
            server.bind_oid("1.3.6.1.4.1.42.3.3", "node_power")
            yield server

    def test_polls_oids(self, agent):
        pusher, _ = make_pusher()
        pusher.load_plugin(
            "snmp",
            f"""
            connection pdu {{ addr 127.0.0.1:{agent.port}
                              community private }}
            group outlets {{ entity pdu
                             interval 1000
                             sensor pw {{ oid 1.3.6.1.4.1.42.3.3
                                          mqttsuffix /pdu/power }} }}
            """,
        )
        pusher.start_plugin("snmp")
        pusher.advance_to(2 * NS_PER_SEC)
        assert pusher.sensor_by_topic("/oob/h0/pdu/power").cache.latest().value == 320
        pusher.stop_plugin("snmp")

    def test_entity_walk(self, agent, model):
        from repro.plugins.snmp import SnmpConnectionEntity

        entity = SnmpConnectionEntity("pdu", "127.0.0.1", agent.port)
        entity.connect()
        results = entity.walk("1.3.6.1.4.1.42")
        assert results == [("1.3.6.1.4.1.42.3.3", 320)]
        entity.disconnect()

    def test_missing_oid_counted(self, agent):
        pusher, _ = make_pusher()
        pusher.load_plugin(
            "snmp",
            f"""
            connection pdu {{ addr 127.0.0.1:{agent.port} }}
            group g {{ entity pdu
                       interval 1000
                       sensor x {{ oid 9.9.9 }} }}
            """,
        )
        pusher.start_plugin("snmp")
        pusher.advance_to(NS_PER_SEC)
        assert pusher.plugins["snmp"].groups[0].read_errors == 1
        pusher.stop_plugin("snmp")

    def test_sensor_without_oid_rejected(self, agent):
        pusher, _ = make_pusher()
        with pytest.raises(ConfigError, match="oid"):
            pusher.load_plugin(
                "snmp",
                f"connection c {{ addr 127.0.0.1:{agent.port} }}\n"
                "group g { entity c\n sensor s { } }",
            )


class TestBacnetPlugin:
    @pytest.fixture
    def device(self, model):
        with BacnetDeviceServer(model) as server:
            server.add_object(AnalogInput(1, "cpu_temp", "mC"))
            yield server

    def test_reads_present_value(self, device):
        pusher, _ = make_pusher()
        pusher.load_plugin(
            "bacnet",
            f"""
            device ahu {{ addr 127.0.0.1:{device.port}
                          deviceId 120 }}
            group loop {{ entity ahu
                          interval 1000
                          sensor t {{ objectInstance 1
                                      mqttsuffix /inlet
                                      scale 100 }} }}
            """,
        )
        pusher.start_plugin("bacnet")
        pusher.advance_to(NS_PER_SEC)
        assert pusher.sensor_by_topic("/oob/h0/inlet").cache.latest().value == 6150
        pusher.stop_plugin("bacnet")

    def test_missing_instance_rejected(self, device):
        pusher, _ = make_pusher()
        with pytest.raises(ConfigError, match="objectInstance"):
            pusher.load_plugin(
                "bacnet",
                f"device d {{ addr 127.0.0.1:{device.port} }}\n"
                "group g { entity d\n sensor s { } }",
            )

    def test_unknown_object_is_runtime_error(self, device):
        pusher, _ = make_pusher()
        pusher.load_plugin(
            "bacnet",
            f"""
            device d {{ addr 127.0.0.1:{device.port} }}
            group g {{ entity d
                       interval 1000
                       sensor s {{ objectInstance 404 }} }}
            """,
        )
        pusher.start_plugin("bacnet")
        pusher.advance_to(NS_PER_SEC)
        assert pusher.plugins["bacnet"].groups[0].read_errors == 1
        pusher.stop_plugin("bacnet")


class TestRestPlugin:
    @pytest.fixture
    def endpoint(self, model):
        with RestDeviceServer(model) as server:
            yield server

    def test_one_fetch_many_sensors(self, endpoint):
        pusher, _ = make_pusher()
        pusher.load_plugin(
            "rest",
            f"""
            endpoint cu {{ baseurl http://127.0.0.1:{endpoint.port} }}
            group circ {{ entity cu
                          interval 1000
                          sensor heat {{ field heat_out
                                         mqttsuffix /heat }}
                          sensor power {{ field node_power
                                          mqttsuffix /power }} }}
            """,
        )
        pusher.start_plugin("rest")
        pusher.advance_to(NS_PER_SEC)
        assert pusher.sensor_by_topic("/oob/h0/heat").cache.latest().value == 29_500
        assert pusher.sensor_by_topic("/oob/h0/power").cache.latest().value == 320

    def test_field_defaults_to_sensor_name(self, endpoint):
        pusher, _ = make_pusher()
        pusher.load_plugin(
            "rest",
            f"""
            endpoint cu {{ baseurl http://127.0.0.1:{endpoint.port} }}
            group g {{ entity cu
                       interval 1000
                       sensor heat_out {{ }} }}
            """,
        )
        pusher.start_plugin("rest")
        pusher.advance_to(NS_PER_SEC)
        sensor = pusher.plugins["rest"].groups[0].sensors[0]
        assert sensor.cache.latest().value == 29_500

    def test_missing_field_is_runtime_error(self, endpoint):
        pusher, _ = make_pusher()
        pusher.load_plugin(
            "rest",
            f"""
            endpoint cu {{ baseurl http://127.0.0.1:{endpoint.port} }}
            group g {{ entity cu
                       interval 1000
                       sensor ghost {{ field not_a_field }} }}
            """,
        )
        pusher.start_plugin("rest")
        pusher.advance_to(NS_PER_SEC)
        assert pusher.plugins["rest"].groups[0].read_errors == 1

    def test_endpoint_down_counts_errors(self):
        pusher, _ = make_pusher()
        pusher.load_plugin(
            "rest",
            """
            endpoint cu { baseurl http://127.0.0.1:1 }
            group g { entity cu
                      interval 1000
                      sensor s { field x } }
            """,
        )
        pusher.start_plugin("rest")
        pusher.advance_to(NS_PER_SEC)
        assert pusher.plugins["rest"].groups[0].read_errors == 1

    def test_missing_baseurl_rejected(self):
        pusher, _ = make_pusher()
        with pytest.raises(ConfigError, match="baseurl"):
            pusher.load_plugin(
                "rest", "endpoint e { }\ngroup g { entity e\n sensor s { } }"
            )
