"""``query_dashboard``: Grafana reads over a preloaded store that was
closed and reopened, so every read starts on disk."""

from __future__ import annotations

import statistics
import time
from itertools import repeat
from pathlib import Path

import numpy as np

from repro.common.timeutil import NS_PER_SEC
from repro.core.collectagent import RollupConfig
from repro.core.sid import PersistentSidMapper
from repro.libdcdb.virtualsensors import VirtualSensorDef
from repro.storage.rollup import RollupEngine

from harness import (
    GrafanaHttp,
    Result,
    Shape,
    TracedLeg,
    bucket_means,
    check_response,
    datapoints,
    note_steal,
    note_tail,
    peak_rss_mb,
    percentile,
    query_body,
    setup_s,
    tier_bucket_ns,
    timed,
)
from layers import ingest_layers, query_layers
from stack import (
    T0_NS,
    close_cluster,
    disk_bytes,
    open_cluster,
    open_read_side,
    pin_placement,
    segment_file_bytes,
)
from trace import Recorder, budget

COLD_WINDOW_S = 600
PANEL_TARGETS = 8
PANEL_POINTS = 360
SUBTREE_WINDOW_S = 1800
#: Evaluation grid of the subtree virtual sensors: one op writes
#: window / grid rows back, so the write path stays nearly idle.
SUBTREE_GRID_S = 10


def build_ops(shape: Shape, rng: np.random.Generator, topics: list[str], segments: int):
    """The op list ``[(class, request body, reference key)]``: every
    segment holds the same ops per class, in a seeded order."""
    rows = shape.history_hours * 3600
    n_cold, n_panel, n_subtree = shape.ops_per_segment
    window_s = min(SUBTREE_WINDOW_S, rows // 2)
    # Subtree windows slide forward per rack instead of being random: a
    # virtual sensor writes its evaluation back and serves later
    # *contained* windows from that copy, which would make the ops of
    # a segment differ.  The seed sets the phase of the slide.
    per_rack = -(-(1 + segments) * n_subtree // shape.racks)
    step = max(SUBTREE_GRID_S, (rows - window_s) // per_rack // SUBTREE_GRID_S * SUBTREE_GRID_S)
    phase = int(rng.integers(0, step // SUBTREE_GRID_S)) * SUBTREE_GRID_S
    slid = [0] * shape.racks
    ops: list[tuple[str, dict, tuple]] = []
    for _segment in range(1 + segments):
        classes = rng.permutation(["cold"] * n_cold + ["panel"] * n_panel + ["subtree"] * n_subtree)
        for cls in classes:
            if cls == "cold":
                topic = topics[int(rng.integers(len(topics)))]
                first = int(rng.integers(0, rows - COLD_WINDOW_S))
                lo = T0_NS + first * NS_PER_SEC
                body = query_body([topic], lo, lo + COLD_WINDOW_S * NS_PER_SEC - 1)
                ops.append(("cold", body, (topic, first)))
            elif cls == "panel":
                picked = rng.choice(len(topics), min(PANEL_TARGETS, len(topics)), replace=False)
                chosen = tuple(topics[i] for i in picked)
                body = query_body(chosen, T0_NS, T0_NS + rows * NS_PER_SEC - 1, PANEL_POINTS)
                ops.append(("panel", body, chosen))
            else:
                rack = int(np.argmin(slid))
                first = phase + slid[rack] * step
                slid[rack] += 1
                lo = T0_NS + first * NS_PER_SEC
                body = query_body([f"/virtual/rack{rack}_power"], lo, lo + window_s * NS_PER_SEC)
                ops.append(("subtree", body, (rack, first, window_s)))
    return ops


def run_query_dashboard(
    name: str, shape: Shape, seed: int, segments: int, workdir: Path,
    recorder: Recorder | None, started: tuple[float, float], corrupt: bool,
) -> Result:
    result = Result(name)
    rng = np.random.default_rng(seed)
    racks = [
        [f"/dash/rack{rack}/node{node}/power" for node in range(shape.sensors_per_rack)]
        for rack in range(shape.racks)
    ]
    subtrees = [f"/dash/rack{rack}" for rack in range(shape.racks)]
    topics = [topic for rack in racks for topic in rack]
    hours = shape.history_hours
    rows = hours * 3600
    timestamps = T0_NS + np.arange(rows, dtype=np.int64) * NS_PER_SEC
    # Node power in mW: a random walk around a per-node base load.
    history = {
        topic: (rng.integers(80_000, 300_000) + np.cumsum(rng.integers(-400, 401, rows))).astype(np.int64)
        for topic in topics
    }

    # Load leg: bulk import in arrival order (hour by hour), rollups on.
    cluster = open_cluster(workdir)
    pin_placement(cluster, subtrees)
    mapper = PersistentSidMapper(cluster)
    rollup = RollupEngine(cluster, RollupConfig())
    sids = {topic: mapper.sid_for_topic(topic) for topic in topics}
    for topic, sid in sids.items():
        cluster.put_metadata(f"sidmap{topic}", sid.hex())
    batch_ms: list[float] = []

    def load_hour(hour: int) -> None:
        span = slice(hour * 3600, (hour + 1) * 3600)
        hour_ts = timestamps[span].tolist()
        for topic in topics:
            items = list(zip(repeat(sids[topic]), hour_ts, history[topic][span].tolist(), repeat(0)))
            start = time.perf_counter()
            cluster.insert_batch(items)
            cluster.commit_durable()
            batch_ms.append((time.perf_counter() - start) * 1e3)
            rollup.observe(items)

    # One hour of every topic is the load's segment: the same rows, the
    # same rollup seals and about one memtable seal per node.
    load_leg = TracedLeg(recorder, lambda: cluster.metrics_registries() + [rollup.metrics])
    with load_leg:
        loads = [timed(lambda: load_hour(hour)) for hour in range(hours)]
    per_hour = 3600 * len(topics)
    loaded = rows * len(topics)
    result.attempted = loaded
    result.metrics["readings_per_s"] = statistics.median(per_hour / w.busy_s for w in loads)
    result.metrics["cpu_us_per_reading"] = statistics.median(w.cpu_s / per_hour * 1e6 for w in loads)
    result.metrics["commit_p50_ms"] = percentile(batch_ms, 50)
    note_tail(result.notes, "commit_ms", batch_ms)
    rollup.flush()
    cluster.flush()
    close_cluster(cluster)
    result.metrics["disk_bytes_per_reading"] = disk_bytes(workdir) / loaded

    # Reopen cold, with a block cache the cold class cannot fit in.
    cluster = open_cluster(workdir, block_cache_bytes=shape.block_cache_bytes)
    pin_placement(cluster, subtrees)
    client, grafana = open_read_side(cluster)
    for rack in range(shape.racks):
        client.define_virtual_sensor(
            VirtualSensorDef(
                f"rack{rack}_power", f"sum(</dash/rack{rack}/>)",
                interval_ns=SUBTREE_GRID_S * NS_PER_SEC,
            )
        )
    http = GrafanaHttp(grafana.port, recorder)
    ops = build_ops(shape, rng, topics, segments)
    per_segment = sum(shape.ops_per_segment)

    def run_ops(segment: int) -> list[tuple]:
        return [http.timed(body) for _cls, body, _key in ops[segment * per_segment : (segment + 1) * per_segment]]

    responses = run_ops(0)  # warm-up
    result.metrics["setup_s"] = setup_s(started)
    read_leg = TracedLeg(recorder, lambda: cluster.metrics_registries() + [client.metrics])
    with read_leg:
        windows = [
            timed(lambda: responses.extend(run_ops(segment))) for segment in range(1, 1 + segments)
        ]
    result.metrics["peak_rss_mb"] = peak_rss_mb()
    measured = list(zip(ops[per_segment:], responses[per_segment:]))
    latencies = [response[2] * 1e3 for _op, response in measured]
    result.metrics["queries_per_s"] = statistics.median(per_segment / w.wall_s for w in windows)
    result.metrics["query_p50_ms"] = percentile(latencies, 50)
    result.metrics["cpu_ms_per_query"] = statistics.median(w.cpu_s / per_segment * 1e3 for w in windows)
    note_steal(result.notes, loads + windows)
    note_tail(result.notes, "query_ms", latencies)
    result.notes["segments"] = segments
    by_class = {
        cls: [response[2] * 1e3 for op, response in measured if op[0] == cls]
        for cls in ("cold", "panel", "subtree")
    }
    for cls, values in by_class.items():
        result.notes[f"{cls}_ms.p50"] = percentile(values, 50)
    result.work = {"queries": len(measured), "readings_loaded": loaded}
    result.work.update({cls: len(values) for cls, values in by_class.items()})
    result.attempted += len(responses)

    # Every response against the NumPy reference from the generated history.
    if corrupt:
        history = {topic: values + 1 for topic, values in history.items()}
    panel_bucket = tier_bucket_ns(rows * NS_PER_SEC, PANEL_POINTS)
    panel_reference: dict[str, list] = {}
    for (cls, _body, key), (status, data, _latency, _end) in zip(ops, responses):
        if cls == "cold":
            topic, first = key
            span = slice(first, first + COLD_WINDOW_S)
            expected = {topic: datapoints(timestamps[span], history[topic][span])}
        elif cls == "panel":
            for topic in key:
                if topic not in panel_reference:
                    panel_reference[topic] = bucket_means(timestamps, history[topic], panel_bucket)
            expected = {topic: panel_reference[topic] for topic in key}
        else:
            rack, first, window_s = key
            span = slice(first, first + window_s + 1, SUBTREE_GRID_S)
            total = np.sum([history[topic][span] for topic in racks[rack]], axis=0)
            expected = {f"/virtual/rack{rack}_power": datapoints(timestamps[span], total)}
        check_response(result, f"{cls} {key}", status, data, expected)

    if recorder is not None:
        segment_bytes = segment_file_bytes(workdir)
        result.layers.update(
            ingest_layers(load_leg, loaded, len(batch_ms), 0, segment_bytes / loaded, batch_ms)
        )
        result.layers.update(query_layers(read_leg, len(measured), by_class))
        # The budget is the read path's: the load is not this workload's
        # subject, so its spans stay out of the table.
        result.budget, result.layers["budget.coverage_pct"] = budget(
            recorder, sum(w.cpu_s for w in windows), len(measured), read_leg.window
        )
    http.close()
    grafana.stop()
    close_cluster(cluster)
    return result
