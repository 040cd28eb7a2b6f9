#!/usr/bin/env python3
"""Scalable deployment: many Pushers, a distributed storage cluster.

Demonstrates DCDB's hierarchical scalability story (paper section 3.2):
two simulated clusters of nodes, each feeding a Collect Agent, both
persisting into one replicated wide-column storage cluster whose
hierarchical partitioner keeps each cluster's subtree on its nearest
storage node.  Also shows the custom plugin path: a site-specific
plugin registered at runtime (the dynamic-library analogue).

Run:  python examples/scalable_cluster.py
"""

from repro import CollectAgent, DCDBClient, Pusher, PusherConfig, StorageCluster, StorageNode
from repro.common.proptree import PropertyTree
from repro.common.timeutil import NS_PER_SEC, SimClock
from repro.core.pusher.plugin import ConfiguratorBase, PluginSensor, SensorGroup
from repro.core.pusher.registry import register_plugin
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient
from repro.storage.partitioner import HierarchicalPartitioner

NODES_PER_CLUSTER = 16
SENSORS_PER_NODE = 32
MINUTES = 2


# --- a site-specific plugin, registered at runtime --------------------
class FanSpeedGroup(SensorGroup):
    """Pretend fan-tachometer readout: deterministic per-node RPM."""

    def read_raw(self, timestamp):
        base = 4200 + (timestamp // NS_PER_SEC) % 60
        return [int(base + 13 * i) for i in range(len(self.sensors))]


class FanSpeedConfigurator(ConfiguratorBase):
    plugin_name = "fanspeed"

    def build_group(self, name: str, config: PropertyTree, entity) -> SensorGroup:
        group = FanSpeedGroup(**self.group_common(name, config))
        for i in range(config.get_int("numFans", 2)):
            group.add_sensor(
                PluginSensor(f"fan{i}", f"/{name}/fan{i}", cache_maxage_ns=self.cache_maxage_ns)
            )
        return group


register_plugin("fanspeed", FanSpeedConfigurator)


def main() -> None:
    clock = SimClock(0)
    # --- storage: two backend servers, subtree partitioning, RF=2 ----
    storage_nodes = [StorageNode("sb-west"), StorageNode("sb-east")]
    cluster = StorageCluster(
        storage_nodes,
        partitioner=HierarchicalPartitioner(2, levels=1),
        replication=2,
    )
    # --- two clusters, one Collect Agent each -------------------------
    brokers = [MQTTBroker(port=None) for _ in range(2)]
    agents = [CollectAgent(cluster, broker=broker) for broker in brokers]
    pushers: list[Pusher] = []
    for cluster_idx, broker in enumerate(brokers):
        for node in range(NODES_PER_CLUSTER):
            pusher = Pusher(
                PusherConfig(mqtt_prefix=f"/cluster{cluster_idx}/node{node:02d}"),
                client=MQTTClient(f"c{cluster_idx}-n{node}", broker=broker),
                clock=clock,
            )
            pusher.load_plugin(
                "tester",
                f"group metrics {{ interval 1000\n numSensors {SENSORS_PER_NODE - 2} }}",
            )
            pusher.load_plugin("fanspeed", "group cooling { interval 1000\n numFans 2 }")
            pusher.client.connect()
            pusher.start_plugin("tester")
            pusher.start_plugin("fanspeed")
            pushers.append(pusher)

    total_sensors = 2 * NODES_PER_CLUSTER * SENSORS_PER_NODE
    print(
        f"deployment: 2 clusters x {NODES_PER_CLUSTER} nodes x "
        f"{SENSORS_PER_NODE} sensors = {total_sensors} sensors"
    )
    end = MINUTES * 60 * NS_PER_SEC
    for pusher in pushers:
        pusher.advance_to(end)
    clock.set(end)
    stored = sum(int(agent.metrics.value("dcdb_agent_readings_stored_total")) for agent in agents)
    print(f"stored {stored} readings in {MINUTES} simulated minutes")

    # --- placement: each cluster's subtree on one storage node --------
    for idx, node in enumerate(storage_nodes):
        print(f"  {node.name}: {node.row_count} rows ({len(node.sids())} sensors)")
    # With RF=2 both nodes hold everything; flip replication to 1 to
    # see pure subtree placement. Show the ownership table's view instead:
    dcdb = DCDBClient(cluster)
    for cluster_idx in range(2):
        topic = f"/cluster{cluster_idx}/node00/metrics/s0"
        owner = cluster.membership.read_replicas(dcdb.sid_of(topic))[0]
        print(f"  subtree /cluster{cluster_idx} owned by {storage_nodes[owner].name}")

    # --- query across the hierarchy ----------------------------------
    fan_topic = "/cluster1/node07/cooling/fan1"
    timestamps, rpm = dcdb.query(fan_topic, 0, end)
    print(
        f"\n{fan_topic}: {timestamps.size} readings, "
        f"rpm range {rpm.min():.0f}..{rpm.max():.0f}"
    )
    print("hierarchy roots:", dcdb.hierarchy_children(""))
    print(
        "node07 children:",
        dcdb.hierarchy_children("/cluster1/node07"),
    )


if __name__ == "__main__":
    main()
