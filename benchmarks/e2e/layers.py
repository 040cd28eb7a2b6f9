"""Per-layer metrics of the traced run.

Inputs are the spans of :mod:`trace` and two snapshots of the public
:class:`~repro.observability.MetricsRegistry` s taken around the traced
window.  ``*_us_per_*`` / ``*_ms_per_query`` metrics are **CPU** self
times (they add up to the layer budget); ``*_ms_p50`` metrics are wall
times of single operations.  A metric whose layer a workload does not
exercise reads 0.  README.md says which end-to-end metric each one is
expected to move, on which workload.
"""

from __future__ import annotations

import numpy as np

from repro.observability.metrics import HistogramSample, merge_snapshots

from trace import stat

#: Every per-layer metric: (unit, better direction) — BENCHMARK.json's
#: ``per_layer`` list is generated from this table.
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "pusher.self_us_per_msg": ("us", "lower"),
    "payload.encode_us_per_reading": ("us", "lower"),
    "mqtt.publish_us_per_msg": ("us", "lower"),
    "mqtt.feed_us_per_msg": ("us", "lower"),
    "mqtt.wire_bytes_per_reading": ("bytes", "lower"),
    "sid.lookup_us_per_msg": ("us", "lower"),
    "agent.self_us_per_msg": ("us", "lower"),
    "writer.put_us_per_msg": ("us", "lower"),
    "cache.store_us_per_reading": ("us", "lower"),
    "rollup.seal_ms_per_sensor": ("ms", "lower"),
    "rollup.rows_written_per_reading": ("count", "lower"),
    "payload.decode_us_per_reading": ("us", "lower"),
    "writer.batch_readings_p50": ("count", "higher"),
    "writer.flush_ms_p50": ("ms", "lower"),
    "cluster.route_us_per_reading": ("us", "lower"),
    "cluster.replica_writes_per_reading": ("count", "lower"),
    "wal.append_us_per_reading": ("us", "lower"),
    "wal.commit_ms_p50": ("ms", "lower"),
    "wal.fsyncs_per_kreading": ("count", "lower"),
    "node.memtable_us_per_reading": ("us", "lower"),
    "segment.seal_ms_per_kreading": ("ms", "lower"),
    "codec.encode_us_per_reading": ("us", "lower"),
    "rollup.observe_us_per_reading": ("us", "lower"),
    "compaction.seconds": ("s", "lower"),
    "compaction.runs": ("count", "lower"),
    "wal.bytes_per_reading": ("bytes", "lower"),
    "segment.bytes_per_reading": ("bytes", "lower"),
    "compaction.bytes_rewritten_per_reading": ("bytes", "lower"),
    "writer.queue_high_watermark": ("count", "lower"),
    "writer.commit_p90_ms": ("ms", "lower"),
    "gen.lateness_p50_ms": ("ms", "lower"),
    "grafana.cold_p50_ms": ("ms", "lower"),
    "grafana.panel_p50_ms": ("ms", "lower"),
    "grafana.subtree_p50_ms": ("ms", "lower"),
    "grafana.recent_p50_ms": ("ms", "lower"),
    "grafana.query_p95_ms": ("ms", "lower"),
    "httpjson.self_ms_per_query": ("ms", "lower"),
    "grafana.self_ms_per_query": ("ms", "lower"),
    "libdcdb.self_ms_per_query": ("ms", "lower"),
    "libdcdb.plan_us_per_target": ("us", "lower"),
    "libdcdb.tier_served_ratio": ("ratio", "higher"),
    "libdcdb.cache_hit_ratio": ("ratio", "higher"),
    "cluster.read_self_us_per_sid": ("us", "lower"),
    "cluster.read_failovers": ("count", "lower"),
    "node.query_self_us_per_sid": ("us", "lower"),
    "node.segments_pruned_ratio": ("ratio", "higher"),
    "node.rows_examined_per_row_returned": ("count", "lower"),
    "segment.blocks_pruned_ratio": ("ratio", "higher"),
    "segment.blocks_decoded_per_query": ("count", "lower"),
    "blockcache.hit_ratio": ("ratio", "higher"),
    "blockcache.evictions": ("count", "lower"),
    "codec.decode_us_per_row": ("us", "lower"),
    "budget.coverage_pct": ("%", "higher"),
    "host.calib_ms": ("ms", "lower"),
}


def snapshot(registries) -> dict[str, float]:
    """Flatten registries into ``{family or family{label=value}: total}``.

    Node labels are summed away; histograms contribute ``family:sum``
    and ``family:count``.
    """
    out: dict[str, float] = {}
    for family in merge_snapshots(registry.collect() for registry in registries):
        for sample in family.samples:
            labels = ",".join(f"{k}={v}" for k, v in sample.labels if k != "node")
            keys = [family.name] + ([f"{family.name}{{{labels}}}"] if labels else [])
            for key in keys:
                if isinstance(sample, HistogramSample):
                    out[f"{key}:sum"] = out.get(f"{key}:sum", 0.0) + sample.sum
                    out[f"{key}:count"] = out.get(f"{key}:count", 0.0) + sample.count
                else:
                    out[key] = out.get(key, 0.0) + sample.value
    return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _delta_of(leg):
    """``key -> counter growth`` over the leg's registry snapshots."""
    return lambda key: leg.after.get(key, 0.0) - leg.before.get(key, 0.0)


def _serves_queries(thread: str) -> bool:
    """Threads of the read path: the HTTP server's per-connection
    threads and the benchmark's own reader."""
    return "process_request_thread" in thread or thread == "bench-reader"


def ingest_layers(
    leg,
    readings: int,
    messages: int,
    wire_bytes: int,
    segment_bytes_per_reading: float,
    commit_ms: list[float],
) -> dict[str, float]:
    """Write-path layer metrics of a traced leg (a ``harness.TracedLeg``)
    that made ``readings`` durable."""
    recorder, window, delta = leg.recorder, leg.window, _delta_of(leg)
    stats = recorder.stats(window, lambda thread: not _serves_queries(thread))
    flushes = recorder.stats(window, lambda thread: thread.startswith("dcdb-writer"), roots_only=True)
    merges = recorder.stats(window, lambda thread: thread.startswith("dcdb-compact"))

    def self_us(name: str, per: int) -> float:
        return stat(stats, name).self_cpu_ns / 1e3 / max(per, 1)

    batches = stat(flushes, "cluster.insert_batch")
    barriers = stat(flushes, "cluster.commit_durable")
    paired = min(batches.count, barriers.count)
    flush_ms = (batches.wall_ns[:paired] + barriers.wall_ns[:paired]) / 1e6
    commits = stat(stats, "wal.commit")
    synced = commits.wall_ns[commits.values == 1]  # commits that issued an fsync
    seal_wall_ns = stat(stats, "segment.write").wall_ns.sum() - stat(merges, "segment.write").wall_ns.sum()
    return {
        "pusher.self_us_per_msg": self_us("pusher.advance_to", messages),
        "payload.encode_us_per_reading": self_us("payload.encode", readings),
        "mqtt.publish_us_per_msg": self_us("mqtt.publish", messages),
        "mqtt.feed_us_per_msg": self_us("mqtt.feed", messages),
        "mqtt.wire_bytes_per_reading": _ratio(wire_bytes, readings),
        "sid.lookup_us_per_msg": self_us("sid.lookup", messages) + self_us("sid.allocate", messages),
        "agent.self_us_per_msg": self_us("agent.on_publish", messages),
        "writer.put_us_per_msg": self_us("writer.put", messages),
        "cache.store_us_per_reading": self_us("cache.store", readings),
        "rollup.seal_ms_per_sensor": _ratio(
            float(stat(stats, "rollup.observe").wall_ns.sum()) / 1e6, delta("dcdb_rollup_flushes_total")
        ),
        "rollup.rows_written_per_reading": _ratio(
            4 * delta("dcdb_rollup_buckets_written_total"), readings
        ),
        "payload.decode_us_per_reading": self_us("payload.decode", readings),
        "writer.batch_readings_p50": float(np.median(batches.values)) if batches.count else 0.0,
        "writer.flush_ms_p50": float(np.median(flush_ms)) if paired else 0.0,
        "cluster.route_us_per_reading": self_us("cluster.insert_batch", readings),
        "cluster.replica_writes_per_reading": _ratio(
            stat(stats, "node.insert_batch").value, stat(stats, "cluster.insert_batch").value
        ),
        "wal.append_us_per_reading": self_us("wal.append", readings),
        "wal.commit_ms_p50": float(np.median(synced)) / 1e6 if synced.size else 0.0,
        "wal.fsyncs_per_kreading": _ratio(1000 * delta("dcdb_wal_syncs_total"), readings),
        "node.memtable_us_per_reading": self_us("node.memtable", readings),
        "segment.seal_ms_per_kreading": _ratio(float(seal_wall_ns) / 1e6 * 1000, readings),
        "codec.encode_us_per_reading": self_us("codec.encode_timestamps", readings)
        + self_us("codec.encode_values", readings),
        "rollup.observe_us_per_reading": self_us("rollup.observe", readings),
        "compaction.seconds": delta("dcdb_compaction_seconds:sum"),
        "compaction.runs": delta("dcdb_compaction_runs_total"),
        "wal.bytes_per_reading": _ratio(delta("dcdb_wal_bytes_total"), readings),
        "segment.bytes_per_reading": segment_bytes_per_reading,
        "compaction.bytes_rewritten_per_reading": _ratio(stat(merges, "segment.write").value, readings),
        "writer.queue_high_watermark": leg.after.get("dcdb_writer_queue_high_watermark", 0.0),
        "writer.commit_p90_ms": float(np.percentile(commit_ms, 90)) if commit_ms else 0.0,
    }


def query_layers(
    leg,
    queries: int,
    latency_ms_by_class: dict[str, list[float]],
) -> dict[str, float]:
    """Read-path layer metrics of a traced leg that answered ``queries``."""
    recorder, delta = leg.recorder, _delta_of(leg)
    stats = recorder.stats(leg.window, _serves_queries)

    def self_ns(*names: str) -> float:
        return float(sum(stat(stats, name).self_cpu_ns for name in names))

    libdcdb = [name for name, layer in zip(recorder.names, recorder.layers) if layer == "libdcdb"]
    sids_read = max(1, stat(stats, "cluster.query").count + stat(stats, "cluster.query_many").value)
    rows_returned = stat(stats, "node.query").value + stat(stats, "node.query_many").value
    hits = delta("dcdb_segment_block_cache_hits_total")
    misses = delta("dcdb_segment_block_cache_misses_total")
    blocks_pruned = delta("dcdb_segment_blocks_pruned_total")
    segments_pruned = delta("dcdb_storage_segments_pruned_total")
    tier_served = delta("dcdb_rollup_tier_selected_total") - delta("dcdb_rollup_tier_selected_total{tier=raw}")
    targets = delta("dcdb_rollup_tier_selected_total") + stat(stats, "libdcdb.query").count
    cache_hits = delta("dcdb_query_cache_hits_total")
    all_ms = [ms for values in latency_ms_by_class.values() for ms in values]
    out = {
        f"grafana.{cls}_p50_ms": float(np.median(values)) if values else 0.0
        for cls, values in latency_ms_by_class.items()
    }
    out.update(
        {
            "grafana.query_p95_ms": float(np.percentile(all_ms, 95)) if all_ms else 0.0,
            "httpjson.self_ms_per_query": _ratio(self_ns("httpjson.request") / 1e6, queries),
            "grafana.self_ms_per_query": _ratio(self_ns("grafana.handler") / 1e6, queries),
            "libdcdb.self_ms_per_query": _ratio(self_ns(*libdcdb) / 1e6, queries),
            "libdcdb.plan_us_per_target": _ratio(
                self_ns("libdcdb.plan_aggregate") / 1e3, stat(stats, "libdcdb.plan_aggregate").count
            ),
            "libdcdb.tier_served_ratio": _ratio(tier_served, targets),
            "libdcdb.cache_hit_ratio": _ratio(cache_hits, cache_hits + delta("dcdb_query_cache_misses_total")),
            "cluster.read_self_us_per_sid": self_ns("cluster.query", "cluster.query_many") / 1e3 / sids_read,
            "cluster.read_failovers": delta("dcdb_storage_read_failovers_total"),
            "node.query_self_us_per_sid": self_ns("node.query", "node.query_many") / 1e3 / sids_read,
            "node.segments_pruned_ratio": _ratio(segments_pruned, segments_pruned + sids_read),
            "node.rows_examined_per_row_returned": _ratio(stat(stats, "segment.read").value, rows_returned),
            "segment.blocks_pruned_ratio": _ratio(blocks_pruned, blocks_pruned + hits + misses),
            "segment.blocks_decoded_per_query": _ratio(misses, queries),
            "blockcache.hit_ratio": _ratio(hits, hits + misses),
            "blockcache.evictions": delta("dcdb_segment_block_cache_evictions_total"),
            "codec.decode_us_per_row": _ratio(
                self_ns("codec.decode_timestamps", "codec.decode_values") / 1e3,
                stat(stats, "codec.decode_values").value,
            ),
        }
    )
    return out
