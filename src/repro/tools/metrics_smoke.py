"""``make metrics-smoke``: gate on the /metrics exposition being sane.

Boots a complete in-process pipeline — a Pusher running the tester and
dcdbmon plugins, a listener-less broker, a Collect Agent ingesting through the
asynchronous batching writer into a memory backend, and both REST APIs
sharing ONE metrics registry — lets it collect for a few simulated
seconds, then scrapes ``/metrics`` from each API over real HTTP and
validates the Prometheus text with the strict parser.  Exits non-zero
on any malformed exposition, missing instrument kind, missing pipeline
latency histogram, or missing batching-writer instrument, so CI
catches renderer and wiring regressions before a real Prometheus does.

It is also the **docs drift gate**: every ``dcdb_*`` family a component
registers at construction must be named in ``docs/observability.md``'s
instrument catalogue, and every family the docs name must exist at
runtime — so the catalogue cannot silently rot as instruments are
added or renamed.
"""

from __future__ import annotations

import re
import sys
import tempfile
from pathlib import Path

from repro.common.httpjson import JsonHttpServer, http_json, http_text
from repro.common.timeutil import NS_PER_SEC, SimClock
from repro.core.collectagent import CollectAgent, RollupConfig, WriterConfig
from repro.libdcdb.api import DCDBClient
from repro.core.collectagent.restapi import CollectAgentRestApi
from repro.core.pusher import Pusher, PusherConfig
from repro.core.pusher.restapi import PusherRestApi
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient
from repro.observability import (
    EventLoopLagProbe,
    MetricsRegistry,
    PIPELINE_METRIC,
    parse_prometheus_text,
)
from repro.storage import DurableNode, MemoryBackend, StorageCluster, StorageNode
from repro.storage.rollup import is_rollup_sid

TESTER_CONFIG = "group g0 { interval 1000\n numSensors 16 }"
DCDBMON_CONFIG = "group self { interval 1000 }"
SIM_SECONDS = 10

#: Batching-writer instruments that must be visible on every scrape.
WRITER_METRICS = (
    "dcdb_writer_queue_depth",
    "dcdb_writer_batch_size",
    "dcdb_writer_flush_duration_seconds",
)

#: libDCDB query-path instruments that must be visible on every scrape.
QUERY_METRICS = ("dcdb_libdcdb_query_seconds",)

#: Continuous-aggregation instruments (rollup engine write path plus
#: the query planner's tier-selection counter — see
#: docs/query_performance.md) that must be visible on every scrape.
ROLLUP_METRICS = (
    "dcdb_rollup_readings_observed_total",
    "dcdb_rollup_buckets_written_total",
    "dcdb_rollup_flushes_total",
    "dcdb_rollup_write_errors_total",
    "dcdb_rollup_late_readings_total",
    "dcdb_rollup_retention_deleted_total",
    "dcdb_rollup_tier_selected_total",
)

#: Event-loop transport instruments (broker session/backpressure state
#: and client reconnect counters — see docs/transport.md) that must be
#: visible on every scrape.
TRANSPORT_METRICS = (
    "dcdb_broker_connections",
    "dcdb_broker_keepalive_disconnects_total",
    "dcdb_broker_write_buffer_bytes",
    "dcdb_client_reconnects_total",
    "dcdb_client_qos0_drops_total",
)

#: Durable-engine instruments (write-ahead log and segment files — see
#: docs/durability.md) that must be visible on every scrape when the
#: pipeline ingests into a durable backend.
DURABILITY_METRICS = (
    "dcdb_wal_appends_total",
    "dcdb_wal_bytes_total",
    "dcdb_wal_syncs_total",
    "dcdb_wal_rotations_total",
    "dcdb_wal_replayed_records_total",
    "dcdb_wal_size_bytes",
    "dcdb_segment_files_written_total",
    "dcdb_segment_write_errors_total",
    "dcdb_segment_files",
    "dcdb_segment_disk_bytes",
    "dcdb_segment_compression_ratio",
    "dcdb_segment_blocks_pruned_total",
    "dcdb_segment_block_cache_hits_total",
    "dcdb_segment_block_cache_misses_total",
    "dcdb_segment_block_cache_evictions_total",
    "dcdb_segment_block_cache_bytes",
    "dcdb_compaction_runs_total",
    "dcdb_compaction_seconds",
    "dcdb_compaction_backlog",
)


#: The instrument catalogue the gate diffs against.
DOCS_PATH = Path(__file__).resolve().parents[3] / "docs" / "observability.md"

#: Doc-only names that are not metric families (label examples, config
#: keys, or exposition snippets that merely look like families).
_DOC_ALLOWLIST: set[str] = set()


def _runtime_families() -> set[str]:
    """Every ``dcdb_*`` family the components register at construction.

    Instantiates one of each instrumented component into a fresh
    registry (nothing is started — no sockets, no threads) and unions
    the family names, including the per-backend registries a cluster
    scrape would merge in.
    """
    registry = MetricsRegistry()
    broker = MQTTBroker(port=None, metrics=registry)
    MQTTClient("drift-tcp", host="127.0.0.1", port=1, metrics=registry)
    EventLoopLagProbe(None, registry)
    cluster = StorageCluster(
        [StorageNode("drift-node", metrics=registry)], metrics=registry
    )
    with tempfile.TemporaryDirectory(prefix="dcdb-drift-") as tmp:
        DurableNode("drift-durable", data_dir=tmp, metrics=registry).close()
    backend = MemoryBackend()
    agent = CollectAgent(
        backend,
        broker=broker,
        writer_config=WriterConfig(),
        rollup_config=RollupConfig(),
        metrics=registry,
    )
    Pusher(
        PusherConfig(mqtt_prefix="/drift/host0"),
        client=MQTTClient("drift-pusher", broker=broker, metrics=registry),
        metrics=registry,
    )
    DCDBClient(backend, metrics=registry)
    JsonHttpServer(metrics=registry)
    names: set[str] = set()
    for source in [registry, *cluster.metrics_registries(), *agent.metrics_registries()]:
        for family in source.collect():
            names.add(family.name)
    return names


def _pruning_exercise(failures: list[str]) -> None:
    """Windowed read over a reopened multi-file durable store: footer
    pruning must skip the non-overlapping blocks and the block cache
    must serve the repeat read without decoding again."""
    from repro.core.sid import SensorId

    print("durable read path: block pruning + cache")
    sid = SensorId.from_codes([9, 9])
    with tempfile.TemporaryDirectory(prefix="dcdb-prune-") as tmp:
        seed = DurableNode(
            "prune", data_dir=tmp, fsync="off", max_segment_files=100
        )
        for block in range(4):
            seed.insert_batch(
                [(sid, (block * 100 + i) * NS_PER_SEC, i, 0) for i in range(100)]
            )
            seed.flush()
        seed.close()
        store = DurableNode(
            "prune", data_dir=tmp, fsync="off", max_segment_files=100
        )
        label = {"node": "prune"}
        ts, _ = store.query(sid, 0, 99 * NS_PER_SEC)  # first file only
        pruned = store.metrics.value("dcdb_segment_blocks_pruned_total", label)
        misses = store.metrics.value("dcdb_segment_block_cache_misses_total", label)
        _check(ts.size == 100, f"windowed read returned its block ({ts.size} rows)", failures)
        _check(
            pruned == 3,
            f"footer bounds pruned the non-overlapping blocks ({pruned:g}/3)",
            failures,
        )
        _check(misses >= 1, f"cold block decoded through the cache ({misses:g} misses)", failures)
        store.query(sid, 0, 99 * NS_PER_SEC)
        hits = store.metrics.value("dcdb_segment_block_cache_hits_total", label)
        _check(
            store.metrics.value("dcdb_segment_block_cache_misses_total", label) == misses,
            "repeat read decoded nothing new",
            failures,
        )
        _check(hits >= 1, f"repeat read served from the block cache ({hits:g} hits)", failures)
        store.close()


def _drift_gate(failures: list[str]) -> None:
    """Diff the runtime family set against the documented catalogue."""
    print(f"docs drift gate: {DOCS_PATH}")
    if not DOCS_PATH.is_file():
        failures.append(f"docs file missing: {DOCS_PATH}")
        print("  [FAIL] docs/observability.md not found")
        return
    documented = set(
        re.findall(r"dcdb_[a-z0-9_]+", DOCS_PATH.read_text(encoding="utf-8"))
    )
    runtime = _runtime_families()
    undocumented = sorted(runtime - documented)
    stale = sorted(documented - runtime - _DOC_ALLOWLIST)
    _check(
        not undocumented,
        f"every runtime family is documented (missing: {undocumented})",
        failures,
    )
    _check(
        not stale,
        f"every documented family exists at runtime (stale: {stale})",
        failures,
    )


def _check(condition: bool, message: str, failures: list[str]) -> None:
    status = "ok " if condition else "FAIL"
    print(f"  [{status}] {message}")
    if not condition:
        failures.append(message)


def _scrape(name: str, port: int, failures: list[str]) -> None:
    url = f"http://127.0.0.1:{port}/metrics"
    status, text, content_type = http_text("GET", url)
    print(f"{name}: GET {url}")
    _check(status == 200, f"{name}: HTTP 200 (got {status})", failures)
    _check(
        content_type.startswith("text/plain"),
        f"{name}: text/plain content type (got {content_type!r})",
        failures,
    )
    try:
        families = parse_prometheus_text(text)
    except ValueError as exc:
        failures.append(f"{name}: malformed exposition: {exc}")
        print(f"  [FAIL] exposition parses ({exc})")
        return
    kinds = {meta["type"] for meta in families.values()}
    _check(
        {"counter", "gauge", "histogram"} <= kinds,
        f"{name}: has a counter, gauge and histogram (got {sorted(kinds)})",
        failures,
    )
    pipeline = families.get(PIPELINE_METRIC)
    _check(
        pipeline is not None and pipeline["type"] == "histogram",
        f"{name}: {PIPELINE_METRIC} histogram present",
        failures,
    )
    _check(
        all(metric in families for metric in WRITER_METRICS),
        f"{name}: batching-writer instruments present",
        failures,
    )
    _check(
        all(metric in families for metric in QUERY_METRICS),
        f"{name}: libDCDB query instruments present",
        failures,
    )
    _check(
        all(metric in families for metric in TRANSPORT_METRICS),
        f"{name}: transport instruments present",
        failures,
    )
    _check(
        all(metric in families for metric in ROLLUP_METRICS),
        f"{name}: rollup/tier-planner instruments present",
        failures,
    )
    _check(
        all(metric in families for metric in DURABILITY_METRICS),
        f"{name}: WAL/segment durability instruments present",
        failures,
    )
    json_status, doc = http_json("GET", f"{url}?format=json")
    _check(
        json_status == 200 and isinstance(doc, dict) and PIPELINE_METRIC in doc,
        f"{name}: ?format=json mirror works",
        failures,
    )


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="dcdb-smoke-") as data_dir:
        return _run(data_dir)


def _run(data_dir: str) -> int:
    clock = SimClock(0)
    # One registry for broker, agent, writer and pusher: both REST APIs
    # then expose the complete pipeline, including writer metrics.
    registry = MetricsRegistry()
    broker = MQTTBroker(port=None, metrics=registry)
    # The smoke pipeline ingests into the durable engine so the
    # WAL/segment instruments carry real traffic on both endpoints.
    backend = DurableNode("smoke-durable", data_dir=data_dir, metrics=registry)
    agent = CollectAgent(
        backend,
        broker=broker,
        writer_config=WriterConfig(max_batch=256),
        rollup_config=RollupConfig(),
    )
    pusher = Pusher(
        PusherConfig(mqtt_prefix="/smoke/host0"),
        client=MQTTClient("smoke-pusher", broker=broker, metrics=registry),
        clock=clock,
        metrics=registry,
    )
    pusher.load_plugin("tester", TESTER_CONFIG)
    pusher.load_plugin("dcdbmon", DCDBMON_CONFIG)
    pusher.client.connect()
    pusher.start_plugin("tester")
    pusher.start_plugin("dcdbmon")
    pusher.advance_to(SIM_SECONDS * NS_PER_SEC)

    failures: list[str] = []
    _check(pusher.metrics.value("dcdb_pusher_readings_collected_total") > 0, "pusher collected readings", failures)
    _check(agent.metrics.value("dcdb_agent_readings_stored_total") > 0, "agent accepted readings", failures)
    _check(agent.writer.drain(), "staging queue drained", failures)
    # Rollup series ride along in the same store; the durability check
    # is about the raw readings the agent accepted.
    stored = sum(
        backend.count(sid, 0, (1 << 63) - 1)
        for sid in backend.sids()
        if not is_rollup_sid(sid)
    )
    _check(
        stored == agent.metrics.value("dcdb_agent_readings_stored_total"),
        "every accepted reading is durable after drain "
        f"({stored}/{int(agent.metrics.value('dcdb_agent_readings_stored_total'))})",
        failures,
    )
    # Exercise the libDCDB read path on the shared registry: libDCDB
    # keeps no copy of the store's rows, so a row stored between two
    # identical queries shows in the second one.
    client = DCDBClient(backend, metrics=registry)
    topics = client.topics()
    _check(bool(topics), "libDCDB resolves collected topics", failures)
    if topics:
        span = (0, SIM_SECONDS * NS_PER_SEC)
        before = client.query_raw(topics[0], *span)[0].size
        backend.insert(client.sid_of(topics[0]), 1, 0)
        after = client.query_raw(topics[0], *span)[0].size
        _check(
            after == before + 1,
            f"a repeat query shows a row stored in between ({before} -> {after} rows)",
            failures,
        )
        # Exercise the tier-aware planner: the rollup engine sealed the
        # 10s buckets at ingest, so a coarse aggregate over the sealed
        # span must be tier-served (not a raw fallback).  The window is
        # inclusive, so it ends one tick before the bucket boundary —
        # overhanging the grid would need max_points + 1 buckets and
        # correctly falls back to raw.
        client.query_aggregate(
            topics[0], 0, SIM_SECONDS * NS_PER_SEC - 1, "avg", max_points=1
        )
        tiers = {}
        for family in registry.collect():
            if family.name == "dcdb_rollup_tier_selected_total":
                for sample in family.samples:
                    tiers[dict(sample.labels)["tier"]] = sample.value
        _check(
            sum(v for t, v in tiers.items() if t != "raw") >= 1,
            f"aggregate query was tier-served (selections: {tiers})",
            failures,
        )
        written = sum(
            sample.value
            for family in registry.collect()
            if family.name == "dcdb_rollup_buckets_written_total"
            for sample in family.samples
        )
        _check(
            written > 0, f"rollup engine wrote sealed buckets ({written:g})", failures
        )
    with PusherRestApi(pusher) as pusher_api, CollectAgentRestApi(agent) as agent_api:
        _scrape("pusher", pusher_api.port, failures)
        _scrape("agent", agent_api.port, failures)
    agent.stop()
    backend.close()
    _pruning_exercise(failures)
    _drift_gate(failures)

    if failures:
        print(f"metrics smoke: {len(failures)} check(s) FAILED", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("metrics smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
