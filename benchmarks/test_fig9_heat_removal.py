"""Figure 9 / case study 1: efficiency of heat removal on CooLMUC-3.

Paper: one out-of-band Pusher (REST + SNMP plugins) and one Collect
Agent on management servers monitor the warm-water cooling circuit;
virtual sensors aggregate rack power meters and compute the ratio of
heat removed to electrical power.  Findings: the ratio is ~90 % and
does not degrade as inlet water temperature rises (insulated racks).

Regeneration runs the *entire stack*: the physics model installs its
channels into simulated SNMP/REST devices; the real SNMP and REST
plugins sample them out-of-band at 1-minute intervals over a simulated
25-hour inlet sweep; readings flow through MQTT framing into storage;
virtual sensors compute total power, heat removed (flow x rho x cp x
deltaT) and the efficiency ratio; assertions run on the queried
series.
"""

import numpy as np
import pytest

from conftest import emit, format_table
from repro.common.timeutil import NS_PER_SEC, SimClock
from repro.core.collectagent import CollectAgent
from repro.core.pusher import Pusher, PusherConfig
from repro.devices import DeviceModel, RestDeviceServer, SnmpAgentServer
from repro.libdcdb.api import DCDBClient, SensorConfig
from repro.libdcdb.virtualsensors import VirtualSensorDef
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient
from repro.simulation.facility import WATER_CP, WATER_DENSITY, CoolingCircuitModel
from repro.storage import MemoryBackend

INTERVAL_S = 60
DURATION_H = 25.0


def build_and_run():
    clock = SimClock(0)
    circuit = CoolingCircuitModel(duration_h=DURATION_H, seed=9)
    device_model = DeviceModel(clock=clock)
    circuit.install(device_model)

    # Rack power meters behind SNMP (PDU-style); circuit instruments
    # behind the cooling unit's REST endpoint.
    snmp = SnmpAgentServer(device_model)
    snmp.start()
    for rack in range(3):
        snmp.bind_oid(f"1.3.6.1.4.1.42.2.{rack + 1}", f"rack{rack}_power")
    rest = RestDeviceServer(device_model)
    rest.start()

    broker = MQTTBroker(port=None)
    backend = MemoryBackend()
    agent = CollectAgent(backend, broker=broker)
    pusher = Pusher(
        PusherConfig(mqtt_prefix="/coolmuc3/cooling"),
        client=MQTTClient("oob-pusher", broker=broker),
        clock=clock,
    )
    sensors_snmp = "\n".join(
        f"sensor rack{r} {{ oid 1.3.6.1.4.1.42.2.{r + 1}\n"
        f" mqttsuffix /rack{r}/power\n unit W }}"
        for r in range(3)
    )
    pusher.load_plugin(
        "snmp",
        f"connection pdu {{ addr 127.0.0.1:{snmp.port} }}\n"
        f"group racks {{ entity pdu\n interval {INTERVAL_S * 1000}\n{sensors_snmp} }}",
    )
    pusher.load_plugin(
        "rest",
        f"""
        endpoint cu {{ baseurl http://127.0.0.1:{rest.port} }}
        group circuit {{
            entity cu
            interval {INTERVAL_S * 1000}
            sensor flow {{ field flow
                           mqttsuffix /flow
                           unit l/s }}
            sensor t_in {{ field inlet_temp
                           mqttsuffix /inlet_temp
                           unit C }}
            sensor t_out {{ field outlet_temp
                            mqttsuffix /outlet_temp
                            unit C }}
        }}
        """,
    )
    pusher.client.connect()
    pusher.start_plugin("snmp")
    pusher.start_plugin("rest")
    end_ns = int(DURATION_H * 3600) * NS_PER_SEC
    # Step simulated time in one-hour slabs (device channels read the
    # shared clock, so it must advance alongside the sampling).
    step = 3600 * NS_PER_SEC
    t = 0
    while t < end_ns:
        t = min(t + step, end_ns)
        clock.set(t)
        pusher.advance_to(t)
    snmp.stop()
    rest.stop()

    dcdb = DCDBClient(backend)
    # Sensor scaling: devices report integers (W, l/h, centi-C).
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

    # Virtual sensors (paper: "we defined aggregated metrics in DCDB
    # using the virtual sensors").
    dcdb.define_virtual_sensor(
        VirtualSensorDef(
            name="total_power",
            expression="sum(</coolmuc3/cooling/rack0>) + sum(</coolmuc3/cooling/rack1>) + sum(</coolmuc3/cooling/rack2>)",
            unit="W",
            interval_ns=INTERVAL_S * NS_PER_SEC,
            scale=10.0,
        )
    )
    cp_rho_per_hour = WATER_DENSITY * WATER_CP / 3600.0  # W per (m3/h * K)
    dcdb.define_virtual_sensor(
        VirtualSensorDef(
            name="heat_removed",
            expression=(
                f"</coolmuc3/cooling/flow> * "
                f"(</coolmuc3/cooling/outlet_temp> - </coolmuc3/cooling/inlet_temp>) * "
                f"{cp_rho_per_hour}"
            ),
            unit="W",
            interval_ns=INTERVAL_S * NS_PER_SEC,
            scale=10.0,
        )
    )
    dcdb.define_virtual_sensor(
        VirtualSensorDef(
            name="heat_efficiency",
            expression="</virtual/heat_removed> / </virtual/total_power>",
            unit="ratio",
            interval_ns=INTERVAL_S * NS_PER_SEC,
            scale=100_000.0,
        )
    )
    start = INTERVAL_S * NS_PER_SEC
    end = end_ns
    _, power = dcdb.query("/virtual/total_power", start, end)
    _, heat = dcdb.query("/virtual/heat_removed", start, end)
    _, ratio = dcdb.query("/virtual/heat_efficiency", start, end)
    _, inlet = dcdb.query("/coolmuc3/cooling/inlet_temp", start, end)
    return power, heat, ratio, inlet, agent.metrics.value("dcdb_agent_readings_stored_total")


def test_fig9_shape(benchmark):
    power, heat, ratio, inlet, stored = benchmark.pedantic(
        build_and_run, rounds=1, iterations=1
    )
    hours = np.arange(ratio.size) * INTERVAL_S / 3600.0
    sample_rows = [
        [f"{hours[i]:.0f} h", f"{inlet[min(i, inlet.size - 1)]:.1f} C",
         f"{power[i] / 1000:.1f} kW", f"{heat[i] / 1000:.1f} kW", f"{ratio[i]:.3f}"]
        for i in range(0, ratio.size, max(1, ratio.size // 10))
    ]
    emit(
        "Figure 9: heat removed vs power vs inlet temperature (25 h sweep)",
        format_table(["Time", "Inlet", "Power", "Heat removed", "Ratio"], sample_rows)
        + [
            f"mean heat-removal ratio: {ratio.mean():.3f}",
            f"inlet sweep: {inlet.min():.1f} -> {inlet.max():.1f} C",
            f"readings collected out-of-band: {stored}",
        ],
    )
    # ~90% efficiency.
    assert ratio.mean() == pytest.approx(0.90, abs=0.02)
    # Power wanders in the paper's band (~10-35 kW).
    assert 9_000 < power.min() and power.max() < 36_000
    # The inlet sweep actually happened.
    assert inlet.max() - inlet.min() > 25.0
    # Independence: ratio does not trend with inlet temperature.
    n = min(ratio.size, inlet.size)
    corr = np.corrcoef(inlet[:n], ratio[:n])[0, 1]
    assert abs(corr) < 0.25
    # The gap between power and heat does not widen at high inlet
    # temperatures (paper: insulation works).
    gap = power[:n] - heat[:n]
    first_half = gap[: n // 2].mean()
    second_half = gap[n // 2 :].mean()
    assert second_half < first_half * 1.25 + 500.0
