"""Deterministic fault injection for chaos testing.

The paper's availability story leans on Cassandra semantics — "any
node may be used to insert or query data" (section 4.3) — and DCDB's
production deployments assume the pipeline keeps flowing through
component churn.  This package is the *test substrate* for those
claims: a seedable :class:`FaultPlan` (scheduled kill/restart events +
named probabilistic substreams) and wrappers that inject its decisions
at each layer of the stack:

* :class:`FaultyBackend` — any :class:`~repro.storage.backend.StorageBackend`
  (a node inside a cluster, or the whole store behind the writer):
  kill/restart state driving the cluster's hinted handoff and read
  failover, plus armed and probabilistic per-operation failures;
* :class:`BrokerFaultInjector` — socket-level drop/disconnect inside
  the MQTT brokers;
* :class:`DiskFaultInjector` — the durable engine's disk seam (torn
  writes, fsync failures, short reads at exact operation counts);
* :class:`RebalanceFaultInjector` — scripted kills/errors at exact
  chunk boundaries of a live rebalance stream.

Everything is deterministic per seed: the chaos suite commits five
seeds (``make chaos``, ``CHAOS_SEEDS`` to override) and the same seed
always reproduces the same fault schedule.  See ``docs/resilience.md``.
"""

from repro.faults.backend import FaultyBackend
from repro.faults.disk import DiskFaultInjector
from repro.faults.network import BrokerFaultInjector
from repro.faults.plan import FaultEvent, FaultPlan
from repro.faults.rebalance import RebalanceFaultInjector

__all__ = [
    "BrokerFaultInjector",
    "DiskFaultInjector",
    "FaultEvent",
    "FaultPlan",
    "FaultyBackend",
    "RebalanceFaultInjector",
]
