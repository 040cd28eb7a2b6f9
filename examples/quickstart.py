#!/usr/bin/env python3
"""Quickstart: a complete DCDB deployment in one process.

Builds the paper's Figure 2 pipeline — Pusher (tester plugin) -> MQTT
-> Collect Agent -> wide-column storage — over real TCP sockets and
real sampling threads, lets it monitor for a few seconds, then queries
the collected data through libDCDB and defines a virtual sensor.

Run:  python examples/quickstart.py
"""

import time

from repro import (
    CollectAgent,
    DCDBClient,
    MemoryBackend,
    Pusher,
    PusherConfig,
    SensorConfig,
    VirtualSensorDef,
)


def main() -> None:
    # 1. A Collect Agent with its publish-only MQTT broker on a free
    #    port, writing into an in-memory wide-column backend.
    backend = MemoryBackend()
    agent = CollectAgent(backend, port=0)
    agent.start()
    print(f"collect agent listening on MQTT port {agent.port}")

    # 2. A Pusher monitoring this "node": 8 synthetic power sensors
    #    sampled every 200 ms, published under a hierarchical topic.
    pusher = Pusher(
        PusherConfig(
            mqtt_prefix="/demo/rack0/node0",
            broker_port=agent.port,
            threads=2,
        )
    )
    pusher.load_plugin(
        "tester",
        """
        group power {
            interval 200
            numSensors 8
            generator constant
            startValue 245
        }
        """,
    )
    pusher.start_plugin("tester")
    pusher.start()
    print(f"pusher running with {pusher.sensor_count} sensors; collecting for 3 s ...")
    time.sleep(3.0)
    pusher.stop()
    agent.stop()
    print(f"readings stored: {int(agent.metrics.value('dcdb_agent_readings_stored_total'))}")

    # 3. Query through libDCDB.
    dcdb = DCDBClient(backend)
    topics = dcdb.topics("/demo")
    print(f"sensor topics: {len(topics)} (e.g. {topics[0]})")
    for topic in topics:
        dcdb.set_sensor_config(SensorConfig(topic=topic, unit="W"))
    timestamps, watts = dcdb.query(topics[0], 0, (1 << 62))
    print(
        f"{topics[0]}: {timestamps.size} readings, "
        f"latest = {watts[-1]:.0f} W at t={timestamps[-1]} ns"
    )

    # 4. A virtual sensor aggregating the node's power (paper
    #    section 3.2), evaluated lazily on query.
    dcdb.define_virtual_sensor(
        VirtualSensorDef(
            name="node_power",
            expression="sum(</demo/rack0/node0/power>)",
            unit="W",
            interval_ns=200 * 1_000_000,
        )
    )
    v_ts, v_watts = dcdb.query(
        "/virtual/node_power", int(timestamps[0]), int(timestamps[-1])
    )
    print(
        f"/virtual/node_power: {v_ts.size} points, "
        f"mean = {v_watts.mean():.0f} W (8 x 245 W = 1960 W)"
    )

    # 5. Hierarchy navigation, as the Grafana plugin exposes it.
    print("hierarchy under /demo/rack0/node0/power:", dcdb.hierarchy_children("/demo/rack0/node0/power"))


if __name__ == "__main__":
    main()
