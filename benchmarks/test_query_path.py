"""Read-path benchmarks: pruned queries, batched reads, subtree scans.

Each benchmark measures the optimized query path with pytest-benchmark
and compares it against the pre-change implementation kept in-test
(the serial per-sensor scan and the argsort-always node merge copied
from the prior revision), so the speedup gates are machine-independent
— both sides run on the same box in the same process.

``make bench-query`` smoke-runs this module with
``--benchmark-disable``; the speedup assertions, and the per-call
bounds of the Collect Agent's store-backed REST cache, only fire when
benchmarking is enabled (``make bench`` / ``make bench-baseline``).
"""

import time

import numpy as np

from repro.common.timeutil import NS_PER_SEC
from repro.core.collectagent import CollectAgent
from repro.core.collectagent.restapi import CollectAgentRestApi
from repro.core.sid import SID_BITS_PER_LEVEL, SID_LEVELS, SensorId, SidMapper
from repro.libdcdb.api import DCDBClient, _Resolver
from repro.libdcdb.virtualsensors import (
    Evaluator,
    VirtualSensorDef,
    parse_expression,
)
from repro.mqtt.broker import MQTTBroker
from repro.storage.backend import ReadingBatch
from repro.storage.cluster import StorageCluster
from repro.storage.durable import DurableNode
from repro.storage.node import StorageNode
from repro.storage.partitioner import HashPartitioner

_EMPTY = np.empty(0, dtype=np.int64)


def _best_of(rounds, fn, *args):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


# -- pre-change reference implementations ----------------------------------


def legacy_node_query(node, sid, start, end):
    """The prior revision's ``StorageNode.query``: slice every segment
    (no min/max pruning), then always concatenate + argsort + dedup —
    even when a single segment answered the query."""
    now = node._clock()
    with node._lock:
        data = node._data.get(sid)
        if data is None:
            return _EMPTY, _EMPTY
        parts_ts, parts_val = [], []
        for table in data.runs:
            ts, vals = table.block(sid).slice(start, end, now)
            if ts.size:
                parts_ts.append(ts)
                parts_val.append(vals)
        if data.mem_ts:
            mts = np.asarray(data.mem_ts, dtype=np.int64)
            mvals = np.asarray(data.mem_val, dtype=np.int64)
            mexp = np.asarray(data.mem_exp, dtype=np.int64)
            mask = (mts >= start) & (mts <= end) & (mexp > now)
            if mask.any():
                parts_ts.append(mts[mask])
                parts_val.append(mvals[mask])
    if not parts_ts:
        return _EMPTY, _EMPTY
    ts = np.concatenate(parts_ts)
    vals = np.concatenate(parts_val)
    order = np.argsort(ts, kind="stable")
    ts, vals = ts[order], vals[order]
    if ts.size > 1:
        keep = np.empty(ts.size, dtype=bool)
        keep[:-1] = ts[1:] != ts[:-1]
        keep[-1] = True
        ts, vals = ts[keep], vals[keep]
    return ts, vals


def legacy_query_prefix(cluster, prefix, levels, start, end):
    """The prior revision's serial subtree scan: walk every node's SID
    list and issue one query round-trip per matching sensor."""
    keep_bits = SID_BITS_PER_LEVEL * levels
    mask = (
        ((1 << keep_bits) - 1) << (SID_LEVELS * SID_BITS_PER_LEVEL - keep_bits)
        if keep_bits
        else 0
    )
    seen = set()
    results = []
    for node in cluster.nodes:
        for sid in node.sids():
            if (sid.value & mask) != prefix or sid in seen:
                continue
            seen.add(sid)
            ts, vals = legacy_node_query(node, sid, start, end)
            if ts.size:
                results.append((sid, ts, vals))
    return results


def _series_map(results):
    return {s: (ts.tolist(), vals.tolist()) for s, ts, vals in results}


class TestQueryPrefixSubtree:
    def test_query_prefix_subtree(self, benchmark):
        """Pruned subtree scan vs the pre-change per-SID loop.

        64 sensors spread over 4 nodes by hash partitioning (the
        worst-case layout: every node holds part of the subtree), 16
        time-ordered segments per sensor — a long-running deployment's
        flush history — queried over a narrow recent window that lives
        inside a single segment, the dashboard access pattern the
        time-index pruning targets: 15 of 16 segments are skipped on
        their cached bounds and the one overlapping segment is answered
        zero-copy.  The pre-change reference binary-searches every
        segment and argsorts the merge regardless.  Gate: >= 3x over
        the pre-change serial implementation.
        """
        nodes = [StorageNode(f"n{i}", flush_threshold=10**9) for i in range(4)]
        cluster = StorageCluster(nodes, partitioner=HashPartitioner(4))
        sids = [SensorId.from_codes([1, 1, leaf]) for leaf in range(1, 65)]
        rows_per_sensor = 2000
        segments = 16
        seg_rows = rows_per_sensor // segments
        for segment in range(segments):
            lo = segment * seg_rows
            cluster.insert_batch(
                [(s, t, t, 0) for s in sids for t in range(lo, lo + seg_rows)]
            )
            cluster.flush()
        prefix = SensorId.from_codes([1, 1]).value
        window = (6 * seg_rows + 10, 6 * seg_rows + 110)  # inside segment 6

        def scan():
            return list(cluster.query_prefix(prefix, 2, *window))

        results = benchmark(scan)
        assert len(results) == 64
        assert all(ts.size == 101 for _, ts, _ in results)
        legacy = legacy_query_prefix(cluster, prefix, 2, *window)
        assert _series_map(results) == _series_map(legacy)
        if benchmark.enabled:
            serial_seconds = _best_of(
                3, legacy_query_prefix, cluster, prefix, 2, *window
            )
            scan_seconds = benchmark.stats.stats.min
            speedup = serial_seconds / scan_seconds
            print(
                f"\nprefix scan (64 sensors / 4 nodes): serial "
                f"{serial_seconds * 1e3:.2f} ms, pruned "
                f"{scan_seconds * 1e3:.2f} ms ({speedup:.2f}x)"
            )
            assert speedup >= 3.0, (
                f"pruned subtree scan only {speedup:.2f}x over the "
                f"pre-change serial loop"
            )


class TestClusterQueryMany:
    def test_query_many_vs_looped(self, benchmark):
        """Batched cluster read vs one query() round-trip per sensor.

        Gate from the issue: >= 2x for 64 sensors.  Both sides use the
        *current* node read path — the speedup isolates the per-call
        cluster overhead and lock round-trips that query_many
        amortizes.
        """
        nodes = [StorageNode(f"n{i}", flush_threshold=10**9) for i in range(4)]
        cluster = StorageCluster(nodes, partitioner=HashPartitioner(4), replication=2)
        sids = [SensorId.from_codes([2, 1, leaf]) for leaf in range(1, 65)]
        cluster.insert_batch([(s, t, t, 0) for s in sids for t in range(512)])
        cluster.flush()

        def looped():
            return {s: cluster.query(s, 0, 511) for s in sids}

        def batched():
            return cluster.query_many(sids, 0, 511)

        result = benchmark(batched)
        reference = looped()
        assert set(result) == set(reference)
        for s in sids:
            assert np.array_equal(result[s][0], reference[s][0])
            assert np.array_equal(result[s][1], reference[s][1])
        if benchmark.enabled:
            looped_seconds = _best_of(3, looped)
            batched_seconds = benchmark.stats.stats.min
            speedup = looped_seconds / batched_seconds
            print(
                f"\nquery_many (64 sensors): looped {looped_seconds * 1e3:.2f} ms, "
                f"batched {batched_seconds * 1e3:.2f} ms ({speedup:.2f}x)"
            )
            assert speedup >= 2.0, (
                f"cluster query_many only {speedup:.2f}x over looped query"
            )


class _SerialResolver:
    """Hides ``series_many`` so the evaluator takes its pre-change
    per-topic fetch loop — the serial reference for the benchmark."""

    def __init__(self, inner) -> None:
        self._inner = inner

    def series(self, topic, start, end):
        return self._inner.series(topic, start, end)

    def subtree_topics(self, prefix):
        return self._inner.subtree_topics(prefix)


class TestVirtualSensorEval:
    def test_virtual_sensor_eval_batched(self, benchmark):
        """Virtual-sensor aggregation with batched operand fetches.

        sum() over 32 sensors stored on a 4-node cluster: the batched
        evaluator fetches the whole subtree through one query_many
        (one read per node) where the pre-change path issued 32
        sequential cluster queries.  Both sides hit storage every
        round; results must be bit-identical.
        """
        nodes = [StorageNode(f"n{i}", flush_threshold=10**9) for i in range(4)]
        cluster = StorageCluster(nodes, partitioner=HashPartitioner(4))
        client = DCDBClient(cluster)
        for i in range(32):
            topic = f"/vb/node{i}/power"
            sid = SensorId.from_codes([3, 1, i + 1])
            client.register_topic(topic, sid)
            cluster.insert_batch(
                [(sid, t * NS_PER_SEC, 200 + i, 0) for t in range(1, 601)]
            )
        cluster.flush()
        client.define_virtual_sensor(
            VirtualSensorDef(name="total", expression="sum(</vb>)", unit="W")
        )
        ast = parse_expression("sum(</vb>)")
        span = (NS_PER_SEC, 600 * NS_PER_SEC)
        batched_eval = Evaluator(_Resolver(client))
        serial_eval = Evaluator(_SerialResolver(batched_eval.resolver))

        def batched():
            return batched_eval.evaluate(ast, *span)

        ts, vals, unit = benchmark(batched)
        assert vals[0] == sum(200 + i for i in range(32))
        serial_ts, serial_vals, serial_unit = serial_eval.evaluate(ast, *span)
        assert np.array_equal(ts, serial_ts)
        assert np.array_equal(vals, serial_vals)  # bit-identical
        assert unit == serial_unit
        if benchmark.enabled:
            serial_seconds = _best_of(3, serial_eval.evaluate, ast, *span)
            batched_seconds = benchmark.stats.stats.min
            speedup = serial_seconds / batched_seconds
            print(
                f"\nvirtual sum over 32 sensors: serial {serial_seconds * 1e3:.2f} ms, "
                f"batched {batched_seconds * 1e3:.2f} ms ({speedup:.2f}x)"
            )
            assert speedup >= 1.2, (
                f"batched virtual-sensor evaluation only {speedup:.2f}x over "
                f"the per-operand loop"
            )


T0 = 1_700_000_000 * NS_PER_SEC


def _durable_history(data_dir, topics: int, hours: int, interval_s: int = 10) -> dict:
    """Write ``topics`` sensors x ``hours`` of one reading per
    ``interval_s`` to a 2-node durable cluster (RF 2) under
    ``data_dir``, ten minutes per batch as a writer would, and close
    it; returns the topic -> SID mapping."""
    cluster = _open_durable(data_dir)
    mapper = SidMapper()
    names = [f"/h{i // 100}/g{i // 10 % 10}/s{i % 10}" for i in range(topics)]
    sids = [mapper.sid_for_topic(name) for name in names]
    steps = 600 // interval_s
    for first in range(0, hours * 3600 // interval_s, steps):
        ts = T0 + (first + np.arange(steps, dtype=np.int64)) * interval_s * NS_PER_SEC
        values = np.arange(steps * topics, dtype=np.int64)
        cluster.insert_batch(ReadingBatch(sids, [steps] * topics, np.tile(ts, topics), values, [0] * topics))
    cluster.flush()
    for node in cluster.nodes:
        node.wait_for_compaction()
    cluster.close()
    return dict(zip(names, sids))


def _open_durable(data_dir) -> StorageCluster:
    nodes = [DurableNode(f"n{i}", data_dir=data_dir / f"n{i}") for i in range(2)]
    return StorageCluster(nodes, replication=2)


def _rest_costs(data_dir, mapping: dict, route: str) -> tuple[float, float]:
    """Median per-call seconds of the agent's ``route`` handler over
    every topic: a cold pass right after reopening, then a warm one."""
    cluster = _open_durable(data_dir)
    agent = CollectAgent(cluster, broker=MQTTBroker(port=None))
    for name, sid in mapping.items():
        agent.sid_mapper.restore(name, sid)
    handler = getattr(CollectAgentRestApi(agent), f"_{route}")
    passes = []
    for _ in range(2):
        costs = []
        for name in mapping:
            start = time.perf_counter()
            status, _body = handler({}, {"topic": name}, b"")
            costs.append(time.perf_counter() - start)
            assert status == 200
        passes.append(float(np.median(costs)))
    cluster.close()
    return passes[0], passes[1]


class TestAgentCacheCost:
    def test_rest_cache_reads_only_the_newest_rows(self, benchmark, tmp_path):
        """The Collect Agent's ``/latest`` and ``/cache`` answer from the
        store: at 1k topics on a reopened durable cluster each call
        costs at most 1 ms, cold (block cache empty) and warm, and
        ``/latest`` reads a sensor's newest run, not its history — at
        24 h it costs at most 2x what it costs at 1 h."""
        mapping = _durable_history(tmp_path / "1h", 1000, 1)
        cluster = _open_durable(tmp_path / "1h")
        agent = CollectAgent(cluster, broker=MQTTBroker(port=None))
        name, sid = next(iter(mapping.items()))
        agent.sid_mapper.restore(name, sid)
        api = CollectAgentRestApi(agent)
        latest = api._latest({}, {"topic": name}, b"")[1]
        window = benchmark(api._cache, {}, {"topic": name}, b"")[1]
        assert latest == window[-1]
        assert [row["timestamp"] for row in window] == [
            latest["timestamp"] - k * 10 * NS_PER_SEC for k in range(12, -1, -1)
        ]
        cluster.close()
        costs = {route: _rest_costs(tmp_path / "1h", mapping, route) for route in ("latest", "cache")}
        short = _durable_history(tmp_path / "short", 100, 1)
        long = _durable_history(tmp_path / "long", 100, 24)
        growth = _rest_costs(tmp_path / "long", long, "latest")[0] / _rest_costs(
            tmp_path / "short", short, "latest"
        )[0]
        if benchmark.enabled:
            print(f"\nREST per-call median (cold, warm) s at 1k topics: {costs}; "
                  f"/latest cold 24 h / 1 h: {growth:.2f}x")
            assert max(max(pair) for pair in costs.values()) <= 1e-3, costs
            assert growth <= 2.0, growth
