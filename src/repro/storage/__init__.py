"""Distributed wide-column storage substrate.

The paper stores readings in Apache Cassandra (section 4.3), chosen
for its high ingest rate on streaming time-series data and for its
data-distribution mechanism: hierarchical SIDs are used as partition
keys so a sensor subtree lands on the nearest database server.

This package is a from-scratch reproduction of the storage semantics
DCDB relies on:

* :mod:`repro.storage.backend` — the backend-independent API
  (libDCDB's storage abstraction, paper section 5.1); every store
  below implements it, so any of them can stand behind the Collect
  Agent — or inside a cluster — unchanged.
* :mod:`repro.storage.node` — one storage server: an append-optimized
  memtable flushed into immutable sorted segments (SSTable analogue),
  compaction, TTL expiry and range scans; also the home of the one
  last-write-wins merge kernel.
* :mod:`repro.storage.durable` — the same server made crash-safe: a
  write-ahead log with group commit, compressed columnar segment
  files, tiered background compaction and recovery
  (:class:`~repro.storage.durable.DurableNode`).
* :mod:`repro.storage.partitioner` — partition-key policies: the
  paper's hierarchical SID-prefix partitioner and a hash partitioner
  used as the ablation baseline.
* :mod:`repro.storage.cluster` — a multi-node cluster with replication
  and routing; tracks cross-node traffic so experiments can quantify
  the locality benefit of hierarchical partitioning.
* :mod:`repro.storage.membership` — elastic membership: the
  epoch-versioned partition ownership table and the phi-accrual
  failure detector behind live ``add_node``/``remove_node``.
* :mod:`repro.storage.memory`, :mod:`repro.storage.sqlite` — simple
  alternative implementations (:class:`~repro.storage.memory.MemoryBackend`,
  :class:`~repro.storage.sqlite.SqliteBackend`) proving the swap works.
* :mod:`repro.storage.rollup` — continuous aggregation: rollup tiers
  stored as ordinary series, plus the retention policy that demotes
  raw data behind them.
* :mod:`repro.storage.csv_io` — CSV import/export used by the
  ``dcdb-csvimport`` and ``dcdb-query`` tools.
"""

from repro.storage.backend import ReadingBatch, StorageBackend
from repro.storage.node import StorageNode
from repro.storage.partitioner import (
    Partitioner,
    HierarchicalPartitioner,
    HashPartitioner,
)
from repro.storage.cluster import StorageCluster
from repro.storage.membership import (
    ClusterMembership,
    FailureDetector,
    PartitionMove,
)
from repro.storage.memory import MemoryBackend
from repro.storage.sqlite import SqliteBackend
from repro.storage.csv_io import export_csv, import_csv
from repro.storage.durable import DurableNode
from repro.storage.rollup import (
    ROLLUP_TIERS,
    RetentionPolicy,
    RollupConfig,
    RollupEngine,
    RollupTier,
    aggregate_buckets,
    is_rollup_sid,
    rollup_sid,
)

__all__ = [
    "DurableNode",
    "ROLLUP_TIERS",
    "RetentionPolicy",
    "RollupConfig",
    "RollupEngine",
    "RollupTier",
    "aggregate_buckets",
    "is_rollup_sid",
    "rollup_sid",
    "ReadingBatch",
    "StorageBackend",
    "StorageNode",
    "ClusterMembership",
    "FailureDetector",
    "PartitionMove",
    "Partitioner",
    "HierarchicalPartitioner",
    "HashPartitioner",
    "StorageCluster",
    "MemoryBackend",
    "SqliteBackend",
    "export_csv",
    "import_csv",
]
