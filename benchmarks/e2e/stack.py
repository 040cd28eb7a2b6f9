"""Assembly of the stack under test, from public constructors only.

Every workload runs against the same configuration (also stated in
``README.md``): three :class:`DurableNode` s behind a
:class:`StorageCluster` with replication 2, ``fsync="interval"`` (the
shipped default, 50 ms), ``WriterConfig()`` and ``RollupConfig()``
defaults on the wall clock, ``trace_sample_every=100`` on every
component, the TCP transport on loopback, and Pushers stepped on a
:class:`SimClock` that only drives the sampling schedule.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.common.timeutil import NS_PER_SEC, SimClock
from repro.core.collectagent import CollectAgent, RollupConfig, WriterConfig
from repro.core.pusher import Pusher, PusherConfig
from repro.core.sid import PersistentSidMapper
from repro.grafana.datasource import GrafanaDataSource
from repro.libdcdb.api import DCDBClient
from repro.mqtt.transport import get_transport
from repro.storage import StorageCluster
from repro.storage.durable import DurableNode

NODES = 3
REPLICATION = 2
FSYNC = "interval"
TRACE_SAMPLE_EVERY = 100
#: Groups per host.  The default partitioner keys on the first two
#: topic levels, so ``/host<h>/g<k>`` gives hosts x GROUPS subtrees and
#: every storage node owns a share; one group per host would park the
#: whole grid on a single replica pair and leave the third node idle.
GROUPS = 5
#: Sim time of the first live reading: an hour boundary, so no measured
#: window crosses a sim-hour (the 1 h tier never seals inside one).
T0_NS = (1_700_000_000 // 3600) * 3600 * NS_PER_SEC


def open_cluster(data_dir: Path, block_cache_bytes: int | None = None) -> StorageCluster:
    """Open (or recover) the replicated durable cluster under ``data_dir``."""
    extra = {} if block_cache_bytes is None else {"block_cache_bytes": block_cache_bytes}
    nodes = [
        DurableNode(f"node{i}", data_dir=data_dir / f"node{i}", fsync=FSYNC, **extra)
        for i in range(NODES)
    ]
    return StorageCluster(nodes, replication=REPLICATION)


def close_cluster(cluster: StorageCluster) -> None:
    """Let background merges finish, then release every node's files."""
    for node in cluster.nodes:
        node.wait_for_compaction()
    cluster.close()


def disk_bytes(data_dir: Path) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _dirs, names in os.walk(data_dir)
        for name in names
    )


def segment_file_bytes(data_dir: Path) -> int:
    """Bytes in segment files alone (no WAL, manifest or metadata)."""
    return sum(path.stat().st_size for path in data_dir.rglob("*.seg"))


def pin_placement(cluster: StorageCluster, subtrees: list[str]) -> None:
    """Pin each two-level subtree to its replica pair, in list order.

    The hierarchical partitioner hands subtrees to nodes round-robin in
    first-seen order and keeps that table in memory only.  Left alone,
    the order in which two Pushers' first messages interleave decides
    the placement (a different node load every run), and a reopened
    cluster that meets the subtrees in another order resolves them to
    replica pairs that do not hold their rows and reads back empty.
    Touching one throw-away topic per subtree in a fixed order — at
    assembly and again after every reopen — makes placement a constant.
    """
    mapper = PersistentSidMapper(cluster)
    for subtree in subtrees:
        cluster.query(mapper.sid_for_topic(f"{subtree}/pin"), 0, 0)


@dataclass
class IngestStack:
    """Pushers -> TCP broker -> Collect Agent -> writer -> cluster."""

    data_dir: Path
    hosts: int
    sensors_per_host: int
    interval_ms: int
    min_values: int
    start_values: list[int]
    clock: SimClock = field(init=False)
    transport: object = field(init=False)
    cluster: StorageCluster = field(init=False)
    agent: CollectAgent = field(init=False)
    pushers: list[Pusher] = field(init=False)

    def __post_init__(self) -> None:
        self.clock = SimClock(T0_NS)
        self.cluster = open_cluster(self.data_dir)
        pin_placement(self.cluster, self.subtrees())
        self.transport = get_transport("tcp")
        broker = self.transport.make_broker(
            publish_only=True, port=0, trace_sample_every=TRACE_SAMPLE_EVERY
        )
        broker.start()
        self.agent = CollectAgent(
            self.cluster,
            broker=broker,
            writer_config=WriterConfig(),
            rollup_config=RollupConfig(),
            trace_sample_every=TRACE_SAMPLE_EVERY,
        )
        per_group = self.sensors_per_host // GROUPS
        self.pushers = []
        for host in range(self.hosts):
            pusher = Pusher(
                PusherConfig(
                    mqtt_prefix=f"/host{host}", trace_sample_every=TRACE_SAMPLE_EVERY
                ),
                client=self.transport.make_client(f"pusher-host{host}"),
                clock=self.clock,
            )
            pusher.load_plugin(
                "tester",
                "\n".join(
                    f"group g{group} {{ interval {self.interval_ms}\n"
                    f" minValues {self.min_values}\n"
                    f" numSensors {per_group}\n"
                    f" startValue {self.start_values[host]} }}"
                    for group in range(GROUPS)
                ),
            )
            pusher.client.connect()
            pusher.announce_metadata()
            pusher.start_plugin("tester")
            self.pushers.append(pusher)

    @property
    def cycle_ns(self) -> int:
        """Sim time after which every sensor has published once more."""
        return self.interval_ms * 1_000_000 * self.min_values

    @property
    def readings_per_cycle(self) -> int:
        return self.hosts * self.sensors_per_host * self.min_values

    def subtrees(self) -> list[str]:
        return [f"/host{host}/g{group}" for host in range(self.hosts) for group in range(GROUPS)]

    def topics(self) -> list[str]:
        """Every sensor topic."""
        per_group = self.sensors_per_host // GROUPS
        return [
            f"/host{host}/g{group}/s{i}"
            for host in range(self.hosts)
            for group in range(GROUPS)
            for i in range(per_group)
        ]

    def publish_cycle(self, cycle: int) -> None:
        """Step every Pusher through cycle ``cycle`` (0-based) of sim time."""
        target = T0_NS + (cycle + 1) * self.cycle_ns
        for pusher in self.pushers:
            pusher.advance_to(target)
        self.clock.set(target)

    def durable(self) -> int:
        """Readings the writer has acknowledged durable so far."""
        return self.agent.writer.flushed

    def sealed_buckets(self) -> dict[str, int]:
        """Rollup buckets written so far, per tier."""
        return {
            tier: int(self.agent.metrics.value("dcdb_rollup_buckets_written_total", {"tier": tier}))
            for tier in ("10s", "1m", "1h")
        }

    def stop(self) -> None:
        """Disconnect, drain, seal and close: the data dir is at rest after."""
        for pusher in self.pushers:
            pusher.client.disconnect()
        self.agent.stop()
        close_cluster(self.cluster)


def tester_values(start_values: list[int], topic: str, first_tick: int, ticks: int) -> np.ndarray:
    """What the tester plugin's ``counter`` generator emits for ``topic``
    at sampling ticks ``first_tick`` .. (tick ``n`` is read at
    ``T0_NS + (n + 1) * interval``): start value + tick + sensor index."""
    _, host, _group, sensor = topic.split("/")
    base = start_values[int(host.removeprefix("host"))] + int(sensor.removeprefix("s"))
    return base + np.arange(first_tick, first_tick + ticks, dtype=np.int64)


def open_read_side(cluster: StorageCluster) -> tuple[DCDBClient, GrafanaDataSource]:
    """Grafana data source over libDCDB over ``cluster``, serving on loopback."""
    client = DCDBClient(cluster)
    grafana = GrafanaDataSource(client, port=0)
    grafana.start()
    return client, grafana
