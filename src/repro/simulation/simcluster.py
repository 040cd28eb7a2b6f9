"""Helper wiring a simulated monitoring deployment in one process.

Builds the paper's Figure 8 topology — N tester Pushers feeding one
Collect Agent backed by a storage cluster — entirely in-process, with
the production broker and clients over memory pipes and a shared
:class:`~repro.common.timeutil.SimClock`.  Used by integration tests
and by the throughput microbenchmarks that quantify this Python
reproduction itself.

Fault injection: give the config a
:class:`~repro.faults.FaultPlan` (or a nonzero ``node_fault_rate``)
and every storage node is wrapped in a
:class:`~repro.faults.FaultyBackend`; scheduled kill/restart events fire
on the simulated clock as :meth:`SimulatedCluster.run` advances it,
and the cluster's retry backoff becomes a no-op sleep so chaos runs
are instant and fully deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.common.timeutil import NS_PER_SEC, SimClock
from repro.core.collectagent import CollectAgent, RollupConfig, WriterConfig
from repro.core.pusher import Pusher, PusherConfig
from repro.faults import FaultPlan, FaultyBackend
from repro.faults.backend import ALL_OPS
from repro.faults.plan import KILL, RESTART
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient
from repro.observability import SpanRecorder
from repro.storage import FailureDetector, MemoryBackend, StorageCluster, StorageNode
from repro.storage.backend import StorageBackend
from repro.storage.durable import DurableNode


@dataclass
class SimClusterConfig:
    """Topology of a simulated deployment."""

    hosts: int = 4
    sensors_per_host: int = 100
    interval_ms: int = 1000
    storage_nodes: int = 1
    replication: int = 1
    topic_prefix: str = "/sim/cluster"
    use_memory_backend: bool = field(default=False)
    #: The agent's :class:`~repro.core.collectagent.writer.BatchingWriter`
    #: configuration (None: ``WriterConfig()``).  The broker serves
    #: memory pipes and has no loop thread, so each read is written on
    #: the publishing thread before ``run()`` moves on.
    writer_config: WriterConfig | None = None
    #: When set, the agent maintains continuous-aggregation rollup
    #: tiers (stored as ordinary series, so replication and hinted
    #: handoff cover them like any reading).
    rollup_config: RollupConfig | None = None
    #: Seeded fault schedule; wraps every node in a fault proxy and lets
    #: run() fire scheduled kill/restart events on the sim clock.
    fault_plan: FaultPlan | None = None
    #: Probabilistic per-operation node failure rate (needs fault_plan
    #: for determinism; a fresh seed-0 plan is created if omitted).
    node_fault_rate: float = 0.0
    #: Pipeline-trace sampling stride (1 = trace every reading,
    #: N = one in N, 0 = tracing off).  Applied to every component so
    #: a traced reading carries its id end to end.
    trace_sample_every: int = 1
    #: When set, storage nodes are durable
    #: (:class:`~repro.storage.durable.DurableNode`): each gets
    #: ``<data_dir>/node<i>`` for its WAL and segment files, and a
    #: fresh simulation over the same directory recovers prior state.
    #: Ignored with ``use_memory_backend``.
    data_dir: str | None = None
    #: WAL fsync policy for durable nodes (always | interval | off).
    fsync: str = "interval"


class SimulatedCluster:
    """N Pushers -> one Collect Agent -> storage, stepped in sim time."""

    def __init__(self, config: SimClusterConfig | None = None) -> None:
        self.config = config if config is not None else SimClusterConfig()
        self.clock = SimClock(0)
        #: One recorder shared by every component of this simulation,
        #: so a trace's spans land in a single place and concurrent
        #: simulations in one test process stay isolated.
        self.spans = SpanRecorder()
        #: The agent's broker: no listener, one memory pipe per Pusher.
        self.broker = MQTTBroker(
            port=None,
            trace_sample_every=self.config.trace_sample_every,
            spans=self.spans,
        )
        self.broker.start()
        self.fault_plan = self.config.fault_plan
        if self.fault_plan is None and self.config.node_fault_rate > 0.0:
            self.fault_plan = FaultPlan()
        faulty = self.fault_plan is not None
        #: Fault proxies by node index when fault injection is on.
        self.flaky_nodes: list[FaultyBackend] = []
        self.backend: StorageBackend
        if self.config.use_memory_backend:
            self.backend = MemoryBackend(clock=self.clock)
        else:
            nodes = [
                self._make_node(i) for i in range(max(1, self.config.storage_nodes))
            ]
            self.backend = StorageCluster(
                nodes,
                replication=self.config.replication if len(nodes) > 1 else 1,
                # Simulated chaos must not wall-clock-sleep between
                # write retries; determinism comes from the plan.
                sleep=(lambda _s: None) if faulty else None,
                spans=self.spans,
                # Heartbeats run on the sim clock, driven from the
                # stepping loop (no background thread) so failure
                # detection is deterministic per seed.
                failure_detector=FailureDetector(clock=self.clock),
            )
        self.agent = CollectAgent(
            self.backend,
            broker=self.broker,
            writer_config=self.config.writer_config,
            rollup_config=self.config.rollup_config,
            trace_sample_every=self.config.trace_sample_every,
            spans=self.spans,
        )
        self.pushers: list[Pusher] = []
        for host in range(self.config.hosts):
            pusher = Pusher(
                PusherConfig(
                    mqtt_prefix=f"{self.config.topic_prefix}/host{host}",
                    trace_sample_every=self.config.trace_sample_every,
                ),
                client=MQTTClient(f"pusher-host{host}", broker=self.broker),
                clock=self.clock,
                spans=self.spans,
            )
            pusher.load_plugin(
                "tester",
                f"group g0 {{ interval {self.config.interval_ms}\n"
                f" numSensors {self.config.sensors_per_host} }}",
            )
            pusher.client.connect()
            pusher.start_plugin("tester")
            self.pushers.append(pusher)

    @property
    def total_sensors(self) -> int:
        return self.config.hosts * self.config.sensors_per_host

    def stop(self) -> None:
        """Disconnect the pushers, stop the agent (and its broker) and
        close the storage backend."""
        for pusher in self.pushers:
            try:
                pusher.client.disconnect()
            except Exception:  # noqa: BLE001 - teardown is best-effort
                pass
        self.agent.stop()
        self.backend.close()

    # -- fault control -------------------------------------------------------

    def _make_node(self, idx: int) -> StorageBackend:
        """Storage node ``idx`` in this simulation's flavor: durable
        when the config has a ``data_dir``, behind a fault proxy
        (recorded in ``flaky_nodes``) when fault injection is on."""
        name = f"node{idx}"
        node: StorageBackend
        if self.config.data_dir is not None:
            node = DurableNode(
                name,
                data_dir=Path(self.config.data_dir) / name,
                fsync=self.config.fsync,
                clock=self.clock,
            )
        else:
            node = StorageNode(name, clock=self.clock)
        if self.fault_plan is not None:
            node = FaultyBackend(
                node,
                plan=self.fault_plan,
                fault_rate=self.config.node_fault_rate,
                stream=f"flaky-node-{name}",
                fail_ops=ALL_OPS,
            )
            self.flaky_nodes.append(node)
        return node

    def _flaky(self, idx: int) -> FaultyBackend:
        if not self.flaky_nodes:
            raise RuntimeError(
                "fault injection is off; construct with SimClusterConfig("
                "fault_plan=FaultPlan(seed)) to enable kill/restart"
            )
        return self.flaky_nodes[idx]

    def probe_liveness(self) -> None:
        """One deterministic heartbeat round on the sim clock."""
        detector = getattr(self.backend, "detector", None)
        if detector is not None:
            detector.probe(self.clock())

    def kill_node(self, idx: int) -> None:
        self._flaky(idx).kill()
        # Gossip notices the crash on the next heartbeat; probing here
        # keeps detection latency at zero sim-time steps, determinism
        # intact (the probe consumes no plan randomness).
        self.probe_liveness()

    def restart_node(self, idx: int) -> None:
        self._flaky(idx).restart()
        self.probe_liveness()
        # Repair immediately: replay whatever the replica missed, as a
        # recovered Cassandra node receives its hints on rejoin.
        replay = getattr(self.backend, "replay_hints", None)
        if replay is not None:
            replay(idx)

    def apply_due_faults(self) -> list:
        """Fire scheduled fault events at or before the current sim time.

        Targets are node names (``node0``…); unknown targets/actions
        are ignored so plans can carry events for other components.
        Returns the fired events, in order.
        """
        if self.fault_plan is None:
            return []
        fired = self.fault_plan.due(self.clock())
        by_name = {proxy.name: i for i, proxy in enumerate(self.flaky_nodes)}
        for event in fired:
            idx = by_name.get(event.target)
            if idx is None:
                continue
            if event.action == KILL:
                self.kill_node(idx)
            elif event.action == RESTART:
                self.restart_node(idx)
        return fired

    # -- elastic membership --------------------------------------------------

    def add_storage_node(self, *, wait: bool = True) -> int:
        """Join a new storage node to the running cluster, live.

        The node matches the cluster's flavor (see :meth:`_make_node`)
        and partition history streams to it per
        :meth:`StorageCluster.add_node`; with ``wait=False`` ingest can
        continue while streaming runs in the background.  Returns the
        new node's index.
        """
        if not isinstance(self.backend, StorageCluster):
            raise RuntimeError("elastic membership needs a StorageCluster backend")
        node = self._make_node(len(self.backend.nodes))
        result = self.backend.add_node(node, wait=wait)
        self.probe_liveness()
        return result

    def remove_storage_node(self, idx: int, *, wait: bool = True) -> None:
        """Drain a storage node out of the running cluster, live."""
        if not isinstance(self.backend, StorageCluster):
            raise RuntimeError("elastic membership needs a StorageCluster backend")
        self.backend.remove_node(idx, wait=wait)
        self.probe_liveness()

    # -- stepping ------------------------------------------------------------

    def run(self, seconds: float) -> int:
        """Advance simulated time; returns readings stored in the step.

        The agent's staging queue is drained before returning, so
        backend queries after ``run()`` observe every
        reading published during the step.  Scheduled faults fire both
        at the start and at the end of the step; for mid-step precision
        call ``run()`` with finer steps — the fault schedule itself is
        on the clock, so the same stepping always reproduces the same
        interleaving.
        """
        before = self._stored()
        self.apply_due_faults()
        self.probe_liveness()
        target = self.clock() + int(seconds * NS_PER_SEC)
        for pusher in self.pushers:
            pusher.advance_to(target)
        self.clock.set(target)
        self.apply_due_faults()
        self.probe_liveness()
        self.drain()
        return self._stored() - before

    def drain(self, timeout: float = 10.0) -> bool:
        """Flush the agent's staging queue on this thread; it holds
        only writes that failed, retried here."""
        return self.agent.writer.drain(timeout)

    def _stored(self) -> int:
        return int(self.agent.metrics.value("dcdb_agent_readings_stored_total"))

    def expected_readings(self, seconds: float) -> int:
        cycles = int(seconds * 1000 / self.config.interval_ms)
        return cycles * self.total_sensors
