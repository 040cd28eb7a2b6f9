#!/usr/bin/env python3
"""Online analytics: power-band supervision and anomaly detection.

The paper motivates holistic monitoring with control loops: "as soon
as power exceeds a given bound, corrective actions must be taken by
administrators" (section 2), and its future-work section announces a
streaming analytics layer running "at the Collect Agent or Pusher
level" (section 9).  This example exercises that layer:

* GPUs (NVML plugin, synthetic duty-cycled devices) and node power are
  monitored continuously;
* an ``Aggregator`` computes the live total GPU power per second;
* a ``ThresholdAlarm`` supervises it against a power band with
  hysteresis;
* a ``ZScoreDetector`` watches a temperature sensor into which we
  inject a fault mid-run;
* all derived series land in storage next to the raw sensors and are
  queried back through libDCDB.

Run:  python examples/online_analytics.py
"""

from repro import CollectAgent, DCDBClient, MemoryBackend, Pusher, PusherConfig
from repro.analytics import Aggregator, AnalyticsManager, ThresholdAlarm, ZScoreDetector
from repro.common.timeutil import NS_PER_SEC, SimClock
from repro.core.pusher.plugin import PluginSensor, SensorGroup
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient

MINUTES = 4


def main() -> None:
    clock = SimClock(0)
    broker = MQTTBroker(port=None)
    backend = MemoryBackend()
    agent = CollectAgent(backend, broker=broker)

    # --- analytics at the Collect Agent level -------------------------
    manager = AnalyticsManager()
    manager.add_operator(
        Aggregator(
            "gpu_power", ["/node0/+/power"], output="total_mw", func="sum"
        )
    )
    manager.add_operator(
        ThresholdAlarm(
            "power_band",
            ["/analytics/gpu_power/total_mw"],  # note: operators do not chain
            high=1_000_000,
        )
    )
    manager.add_operator(
        ZScoreDetector("thermal", ["/node0/board/+"], window=30, threshold=5.0)
    )
    manager.attach_to_agent(agent)
    # Threshold alarms on *derived* series are attached explicitly
    # (operator outputs do not feed back automatically):
    band = ThresholdAlarm("band", ["/x"], high=880_000, low=800_000)

    # --- the monitored node -------------------------------------------
    pusher = Pusher(
        PusherConfig(mqtt_prefix="/node0"),
        client=MQTTClient("p", broker=broker),
        clock=clock,
    )
    pusher.load_plugin("nvml", "group gpus { interval 1000\n gpus 0-3\n metrics power }")

    # A board temperature sensor with an injected fault at t=150 s.
    class BoardGroup(SensorGroup):
        def read_raw(self, timestamp):
            t = timestamp // NS_PER_SEC
            base = 42 + (t % 7)  # benign wiggle
            if 150 <= t < 155:
                base += 40  # thermal runaway blip
            return [base]

    board = BoardGroup("board", interval_ns=NS_PER_SEC)
    board.add_sensor(PluginSensor("board_temp", "/board/temp"))
    pusher.plugins["nvml"].groups.append(board)
    pusher._topics[board.sensors[0]] = "/node0" + board.sensors[0].mqtt_suffix

    pusher.client.connect()
    pusher.start_plugin("nvml")

    # --- run, feeding the derived power series to the band alarm ------
    for minute in range(MINUTES):
        target = (minute + 1) * 60 * NS_PER_SEC
        clock.set(target)
        pusher.advance_to(target)
    # Drive the explicit band alarm over the stored derived series.
    dcdb = DCDBClient(backend)
    ts, total_mw = dcdb.query("/analytics/gpu_power/total_mw", 0, MINUTES * 60 * NS_PER_SEC)
    from repro.core.sensor import SensorReading

    for t, v in zip(ts.tolist(), total_mw.tolist()):
        band.process("/x", SensorReading(int(t), int(v)))

    print(f"monitored {int(agent.metrics.value('dcdb_agent_readings_stored_total'))} raw readings over {MINUTES} simulated minutes")
    print(f"derived series points: {ts.size}, total GPU power {total_mw.min()/1e6:.2f}..{total_mw.max()/1e6:.2f} kW")
    print(f"power-band transitions (hysteresis 800/880 W): {band.transitions}")
    print(f"thermal anomalies flagged: {len(manager.alarms)}")
    for event in list(manager.alarms)[:3]:
        print(f"  t={event.timestamp // NS_PER_SEC:>4}s  {event.message}")
    status = manager.status()
    print("operator status:")
    for op in status["operators"]:
        print(f"  {op['name']:<10} {op['type']:<16} in={op['eventsIn']:<6} out={op['eventsOut']}")


if __name__ == "__main__":
    main()
