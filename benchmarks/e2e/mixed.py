"""``mixed_rw``: an open-loop writer at a quarter of capacity while one
closed-loop client reads — the only workload where reads and writes
contend."""

from __future__ import annotations

import random
import statistics
import threading
import time
from pathlib import Path

import numpy as np

from repro.common.timeutil import NS_PER_SEC
from repro.core import payload as payload_mod
from repro.core.sensor import SensorReading
from repro.libdcdb.api import DCDBClient
from repro.storage.rollup import aggregate_buckets

from harness import (
    DURABLE_TIMEOUT_S,
    GrafanaHttp,
    NotDurable,
    Result,
    Shape,
    TracedLeg,
    datapoints,
    note_steal,
    note_tail,
    now3,
    parse_series,
    peak_rss_mb,
    percentile,
    query_body,
    setup_s,
    tier_bucket_ns,
    window_between,
)
from layers import ingest_layers, query_layers
from stack import (
    GROUPS,
    T0_NS,
    IngestStack,
    close_cluster,
    disk_bytes,
    open_cluster,
    open_read_side,
    pin_placement,
    segment_file_bytes,
    tester_values,
)
from trace import Recorder, budget

#: The generator times commits, so it looks at the durable count often;
#: the stack runs at a quarter of its capacity here.
POLL_S = 0.001
RECENT_WINDOW_S = 60
PANEL_POINTS = 360
PRELOAD_S = 3600
#: libDCDB's raw-series cache may serve a result this old (its TTL),
#: so a live read must show everything durable this long before it.
VISIBILITY_SLACK_S = 5.5


class OpenLoop:
    """Publishes one cycle every ``pace_s`` of wall time, whatever the
    stack does, and times each cycle from when it was due."""

    def __init__(self, stack: IngestStack, pace_s: float, preloaded: int) -> None:
        self.stack = stack
        self.pace_s = pace_s
        self.preloaded = preloaded
        self.start = time.perf_counter() + 0.05
        self.due: list[float] = []
        self.lateness_ms: list[float] = []
        self.durable_at: list[float] = []
        #: Cycles published so far; the reader derives "now" from it.
        self.published = 0

    def _note_durable(self, now: float) -> None:
        done = (self.stack.durable() - self.preloaded) // self.stack.readings_per_cycle
        while len(self.durable_at) < min(done, self.published):
            self.durable_at.append(now)

    def publish(self, cycles: int) -> None:
        """Publish the next ``cycles`` cycles on schedule."""
        for _ in range(cycles):
            due = self.start + self.published * self.pace_s
            while (now := time.perf_counter()) < due:
                self._note_durable(now)
                time.sleep(min(POLL_S, due - now))
            self.due.append(due)
            self.lateness_ms.append((now - due) * 1e3)
            self.stack.publish_cycle(self.published)
            self.published += 1

    def drain(self) -> None:
        deadline = time.perf_counter() + DURABLE_TIMEOUT_S
        while len(self.durable_at) < self.published:
            now = time.perf_counter()
            self._note_durable(now)
            if now > deadline:
                raise NotDurable(f"{self.published - len(self.durable_at)} cycles not durable")
            time.sleep(POLL_S)

    def commit_ms(self, first_cycle: int) -> list[float]:
        return [(done - due) * 1e3 for due, done in zip(self.due[first_cycle:], self.durable_at[first_cycle:])]


def run_mixed_rw(
    name: str, shape: Shape, seed: int, segments: int, workdir: Path,
    recorder: Recorder | None, started: tuple[float, float], corrupt: bool,
) -> Result:
    result = Result(name)
    rng = random.Random(seed)
    start_values = [rng.randrange(1_000, 1_000_000)]
    stack = IngestStack(workdir, 1, shape.sensors_per_host, 1000, 1, start_values)
    topics = stack.topics()
    panel = [f"/host0/g{k % GROUPS}/s{k // GROUPS}" for k in range(shape.panel_topics)]

    # One hour of history for the panel topics, published as 100-reading
    # messages by a plain MQTT client, so the panel spans sealed tiers.
    np_rng = np.random.default_rng(seed)
    pre_ts = T0_NS - (PRELOAD_S - np.arange(PRELOAD_S, dtype=np.int64)) * NS_PER_SEC
    history = {
        topic: (start_values[0] + np.cumsum(np_rng.integers(-5, 6, PRELOAD_S))).astype(np.int64)
        for topic in panel
    }
    loader = stack.transport.make_client("history-loader")
    loader.connect()
    for offset in range(0, PRELOAD_S, 100):
        for topic in panel:
            chunk = zip(pre_ts[offset : offset + 100].tolist(), history[topic][offset : offset + 100].tolist())
            loader.publish(topic, payload_mod.encode_readings(SensorReading(t, v) for t, v in chunk))
    preloaded = PRELOAD_S * len(panel)
    deadline = time.perf_counter() + DURABLE_TIMEOUT_S
    while stack.durable() < preloaded and time.perf_counter() < deadline:
        time.sleep(POLL_S)
    loader.disconnect()

    client, grafana = open_read_side(stack.cluster)
    http = GrafanaHttp(grafana.port, recorder)
    cycles = shape.cycles_per_segment
    per_cycle = stack.readings_per_cycle
    total_cycles = (1 + segments) * cycles
    total_readings = preloaded + total_cycles * per_cycle
    result.attempted = total_readings
    loop = OpenLoop(stack, shape.pace_s, preloaded)

    # The reader: 3 `recent` to 1 `panel`, back to back, until told to stop.
    ops: list[tuple] = []  # (class, topics, send time, sim now) + GrafanaHttp.timed()
    stop_reader = threading.Event()

    def reader() -> None:
        while not stop_reader.is_set():
            if loop.published == 0:
                time.sleep(POLL_S)
                continue
            sim_now = T0_NS + loop.published * NS_PER_SEC
            if len(ops) % 4 == 3:
                cls, key = "panel", tuple(panel)
                body = query_body(key, int(pre_ts[0]), sim_now, PANEL_POINTS)
            else:
                cls, key = "recent", tuple(rng.sample(topics, 4))
                body = query_body(key, sim_now - RECENT_WINDOW_S * NS_PER_SEC, sim_now)
            sent = time.perf_counter()
            ops.append((cls, key, sent, sim_now) + http.timed(body))

    reader_thread = threading.Thread(target=reader, name="bench-reader", daemon=True)
    reader_thread.start()
    marks = []
    leg = TracedLeg(recorder, lambda: stack.agent.metrics_registries() + [client.metrics])
    sent0 = 0
    try:
        loop.publish(cycles)  # warm-up
        result.metrics["setup_s"] = setup_s(started, cpu_bound=False)  # paced by the wall clock
        sent0 = stack.pushers[0].client.bytes_sent
        with leg:
            marks.append(now3())
            for _segment in range(segments):
                loop.publish(cycles)
                marks.append(now3())
        loop.drain()
    except NotDurable as exc:
        result.fail(total_readings - stack.durable(), str(exc))
    stop_reader.set()
    reader_thread.join(timeout=35)
    result.metrics["peak_rss_mb"] = peak_rss_mb()
    wire_bytes = stack.pushers[0].client.bytes_sent - sent0

    windows = [window_between(a, b) for a, b in zip(marks, marks[1:])]
    segment_readings = cycles * per_cycle
    measured_ops = [op for op in ops if marks and marks[0][0] <= op[7] < marks[-1][0]]
    commits = loop.commit_ms(cycles)
    by_class = {cls: [op[6] * 1e3 for op in measured_ops if op[0] == cls] for cls in ("recent", "panel")}
    if windows and measured_ops and commits:
        answered = [sum(1 for op in measured_ops if a[0] <= op[7] < b[0]) for a, b in zip(marks, marks[1:])]
        latencies = [op[6] * 1e3 for op in measured_ops]
        result.metrics["readings_per_s"] = statistics.median(segment_readings / w.wall_s for w in windows)
        result.metrics["queries_per_s"] = statistics.median(n / w.wall_s for n, w in zip(answered, windows))
        result.metrics["cpu_us_per_reading"] = statistics.median(
            w.cpu_s / segment_readings * 1e6 for w in windows
        )
        result.metrics["cpu_ms_per_query"] = statistics.median(
            w.cpu_s / max(n, 1) * 1e3 for n, w in zip(answered, windows)
        )
        result.metrics["commit_p50_ms"] = percentile(commits, 50)
        result.metrics["query_p50_ms"] = percentile(latencies, 50)
        note_steal(result.notes, windows)
        note_tail(result.notes, "commit_ms", commits)
        note_tail(result.notes, "query_ms", latencies)
        result.notes["segments"] = len(windows)
        result.notes["lateness_ms.p50"] = percentile(loop.lateness_ms[cycles:], 50)
        result.notes["lateness_ms.max"] = max(loop.lateness_ms[cycles:])
        for cls, values in by_class.items():
            result.notes[f"{cls}_ms.p50"] = percentile(values, 50)
        # An open loop has no quiet instant at which to read the seal
        # counters, so the window's seals are stated (one per sensor
        # per completed bucket) and the run's total is checked below.
        result.work = {
            "readings": len(windows) * segment_readings,
            "messages": len(windows) * segment_readings,
            "seals_10s": len(windows) * (cycles // 10) * per_cycle,
            "seals_1m": len(windows) * (cycles // 60) * per_cycle,
            "seals_1h": 0,
            "queries": len(measured_ops),
        }
    result.attempted += len(ops)

    # Every returned point must equal the reference, and everything
    # durable VISIBILITY_SLACK_S before the request must be in it.
    if corrupt:
        start_values = [start_values[0] + 1]
        history = {topic: values + 1 for topic, values in history.items()}
    published = loop.published
    live_ts = T0_NS + (np.arange(published, dtype=np.int64) + 1) * NS_PER_SEC
    references: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def reference(topic: str) -> tuple[np.ndarray, np.ndarray]:
        if topic not in references:
            live = tester_values(start_values, topic, 0, published)
            if topic in history:
                references[topic] = np.concatenate((pre_ts, live_ts)), np.concatenate((history[topic], live))
            else:
                references[topic] = live_ts, live
        return references[topic]

    durable_times = np.array(loop.durable_at + [float("inf")] * (published - len(loop.durable_at)))
    for cls, key, sent, sim_now, status, data, _latency, _end in ops:
        if status != 200:
            result.fail(1, f"{cls}: HTTP {status}")
            continue
        visible = int(np.searchsorted(durable_times, sent - VISIBILITY_SLACK_S, side="right"))
        visible_ts = T0_NS + visible * NS_PER_SEC
        got = parse_series(data)
        problem = None
        for topic in key:
            points = got.get(topic)
            ts, values = reference(topic)
            if points is None:
                problem = f"{topic} missing"
            elif cls == "recent":
                first = int(np.searchsorted(ts, sim_now - RECENT_WINDOW_S * NS_PER_SEC, side="left"))
                shown = slice(first, first + len(points))
                must_show = int(np.searchsorted(ts, min(sim_now, visible_ts), side="right")) - first
                if points != datapoints(ts[shown], values[shown]) or len(points) < must_show:
                    problem = f"{topic}: recent window differs from the reference or is stale"
            else:
                # Buckets that end at or before the visible watermark
                # must be exact; later ones are still being written.
                bucket = tier_bucket_ns(sim_now - int(pre_ts[0]) + 1, PANEL_POINTS)
                upto = int(np.searchsorted(ts, visible_ts, side="right"))
                starts, _mins, _maxs, sums, counts = aggregate_buckets(ts[:upto], values[:upto], bucket)
                settled = int(np.searchsorted(starts + bucket, visible_ts + 1, side="right"))
                means = sums[:settled].astype(np.float64) / counts[:settled].astype(np.float64)
                if points[:settled] != datapoints(starts[:settled], means):
                    problem = f"{topic}: panel buckets differ from the reference"
            if problem:
                break
        result.fail(1 if problem else 0, f"{cls}: {problem}")

    # Seal counts of the whole run, then everything again after a reopen.
    http.close()
    grafana.stop()
    stack.agent.writer.wait_idle(DURABLE_TIMEOUT_S)
    seals = stack.sealed_buckets()
    for tier, width in (("10s", 10), ("1m", 60), ("1h", 3600)):
        want = (published // width) * per_cycle + (PRELOAD_S // width) * len(panel)
        result.fail(abs(want - seals[tier]), f"{seals[tier]} {tier} buckets sealed, {want} expected")
    stack.stop()
    result.metrics["disk_bytes_per_reading"] = disk_bytes(workdir) / total_readings
    cluster = open_cluster(workdir)
    pin_placement(cluster, stack.subtrees())
    reopened = DCDBClient(cluster)
    series = cluster.query_many([reopened.sid_of(topic) for topic in topics], 0, 1 << 62)
    for topic in topics:
        ts, values = series[reopened.sid_of(topic)]
        want_ts, want_values = reference(topic)
        same = np.array_equal(ts, want_ts) and np.array_equal(values, want_values)
        result.fail(0 if same else max(1, abs(int(ts.size) - int(want_ts.size))), f"{topic}: stored rows differ")

    if recorder is not None and windows:
        segment_bytes = segment_file_bytes(workdir)
        measured = len(windows) * segment_readings
        result.layers.update(
            ingest_layers(leg, measured, measured, wire_bytes, segment_bytes / total_readings, commits)
        )
        result.layers.update(query_layers(leg, len(measured_ops), by_class))
        result.layers["gen.lateness_p50_ms"] = percentile(loop.lateness_ms[cycles:], 50)
        result.budget, result.layers["budget.coverage_pct"] = budget(
            recorder, sum(w.cpu_s for w in windows), measured, leg.window
        )
    close_cluster(cluster)
    return result
