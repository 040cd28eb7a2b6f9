#!/usr/bin/env python3
"""Facility monitoring: the paper's case study 1 as a runnable scenario.

Simulates the CooLMUC-3 warm-water cooling circuit (physics model),
exposes its instruments through simulated SNMP and REST devices,
monitors them out-of-band with the real SNMP/REST Pusher plugins, and
uses virtual sensors to compute the heat-removal efficiency — the
paper's Figure 9 analysis, condensed to a 6-hour sweep.

Run:  python examples/facility_monitoring.py
"""

from repro import CollectAgent, DCDBClient, MemoryBackend, Pusher, PusherConfig
from repro.common.timeutil import NS_PER_SEC, SimClock
from repro.devices import DeviceModel, RestDeviceServer, SnmpAgentServer
from repro.libdcdb.api import SensorConfig
from repro.libdcdb.virtualsensors import VirtualSensorDef
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient
from repro.simulation.facility import WATER_CP, WATER_DENSITY, CoolingCircuitModel

INTERVAL_S = 60
DURATION_H = 6.0


def main() -> None:
    # --- the facility: physics model + simulated instruments ---------
    clock = SimClock(0)
    circuit = CoolingCircuitModel(duration_h=DURATION_H, inlet_end_c=45.0, seed=21)
    instruments = DeviceModel(clock=clock)
    circuit.install(instruments)

    snmp = SnmpAgentServer(instruments)
    snmp.start()
    for rack in range(3):
        snmp.bind_oid(f"1.3.6.1.4.1.42.2.{rack + 1}", f"rack{rack}_power")
    rest = RestDeviceServer(instruments)
    rest.start()
    print(f"simulated devices up: SNMP agent :{snmp.port}, REST endpoint :{rest.port}")

    # --- the monitoring deployment (out-of-band) ---------------------
    broker = MQTTBroker(port=None)
    backend = MemoryBackend()
    agent = CollectAgent(backend, broker=broker)
    pusher = Pusher(
        PusherConfig(mqtt_prefix="/coolmuc3/cooling"),
        client=MQTTClient("mgmt-pusher", broker=broker),
        clock=clock,
    )
    rack_sensors = "\n".join(
        f"sensor rack{r} {{ oid 1.3.6.1.4.1.42.2.{r + 1}\n"
        f" mqttsuffix /rack{r}/power\n unit W }}"
        for r in range(3)
    )
    pusher.load_plugin(
        "snmp",
        f"connection pdu {{ addr 127.0.0.1:{snmp.port} }}\n"
        f"group racks {{ entity pdu\n interval {INTERVAL_S * 1000}\n{rack_sensors} }}",
    )
    pusher.load_plugin(
        "rest",
        f"""
        endpoint cu {{ baseurl http://127.0.0.1:{rest.port} }}
        group circuit {{
            entity cu
            interval {INTERVAL_S * 1000}
            sensor flow  {{ field flow         mqttsuffix /flow }}
            sensor t_in  {{ field inlet_temp   mqttsuffix /inlet_temp }}
            sensor t_out {{ field outlet_temp  mqttsuffix /outlet_temp }}
        }}
        """,
    )
    pusher.client.connect()
    pusher.start_plugin("snmp")
    pusher.start_plugin("rest")

    # --- run the sweep in simulated time ------------------------------
    end_ns = int(DURATION_H * 3600) * NS_PER_SEC
    t = 0
    while t < end_ns:
        t = min(t + 1800 * NS_PER_SEC, end_ns)
        clock.set(t)
        pusher.advance_to(t)
    print(f"collected {int(agent.metrics.value('dcdb_agent_readings_stored_total'))} readings over {DURATION_H:.0f} simulated hours")

    # --- analysis via virtual sensors ---------------------------------
    dcdb = DCDBClient(backend)
    for r in range(3):
        dcdb.set_sensor_config(
            SensorConfig(topic=f"/coolmuc3/cooling/rack{r}/power", unit="W")
        )
    dcdb.set_sensor_config(
        SensorConfig(topic="/coolmuc3/cooling/flow", unit="m3/h", scale=1000.0)
    )
    for which in ("inlet_temp", "outlet_temp"):
        dcdb.set_sensor_config(
            SensorConfig(topic=f"/coolmuc3/cooling/{which}", unit="C", scale=100.0)
        )
    dcdb.define_virtual_sensor(
        VirtualSensorDef(
            name="total_power",
            expression="sum(</coolmuc3/cooling/rack0>) + "
            "sum(</coolmuc3/cooling/rack1>) + sum(</coolmuc3/cooling/rack2>)",
            unit="W",
            interval_ns=INTERVAL_S * NS_PER_SEC,
            scale=10.0,
        )
    )
    per_flow_degree = WATER_DENSITY * WATER_CP / 3600.0
    dcdb.define_virtual_sensor(
        VirtualSensorDef(
            name="heat_removed",
            expression=(
                "</coolmuc3/cooling/flow> * "
                "(</coolmuc3/cooling/outlet_temp> - </coolmuc3/cooling/inlet_temp>)"
                f" * {per_flow_degree}"
            ),
            unit="W",
            interval_ns=INTERVAL_S * NS_PER_SEC,
            scale=10.0,
        )
    )
    start = INTERVAL_S * NS_PER_SEC
    _, power = dcdb.query("/virtual/total_power", start, end_ns)
    _, heat = dcdb.query("/virtual/heat_removed", start, end_ns)
    _, inlet = dcdb.query("/coolmuc3/cooling/inlet_temp", start, end_ns)
    ratio = heat / power
    print("\n  hour   inlet[C]   power[kW]   heat[kW]   ratio")
    step = max(1, power.size // 12)
    for i in range(0, power.size, step):
        print(
            f"  {i * INTERVAL_S / 3600.0:4.1f}   {inlet[min(i, inlet.size - 1)]:7.1f}"
            f"   {power[i] / 1000:8.1f}   {heat[i] / 1000:7.1f}   {ratio[i]:.3f}"
        )
    print(
        f"\nheat-removal efficiency: mean {ratio.mean():.1%} "
        f"(paper: ~90%, independent of inlet temperature)"
    )
    snmp.stop()
    rest.stop()


if __name__ == "__main__":
    main()
