"""``ingest_grid`` and ``ingest_burst``: closed-loop ingest, then a
read-back of the closed and reopened store that verifies it."""

from __future__ import annotations

import random
import statistics
import time
from pathlib import Path

import numpy as np

from repro.common.timeutil import NS_PER_SEC
from repro.storage.rollup import aggregate_buckets

from harness import (
    DURABLE_TIMEOUT_S,
    GrafanaHttp,
    NotDurable,
    Result,
    Shape,
    TracedLeg,
    Window,
    check_response,
    datapoints,
    note_steal,
    note_tail,
    peak_rss_mb,
    percentile,
    query_body,
    setup_s,
    timed,
)
from layers import ingest_layers, query_layers
from stack import (
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

#: How often the closed loop looks at the durable count.  Coarse on
#: purpose: every wake-up of the generator takes the GIL from the
#: pipeline, and at 0.5 ms that alone cost the burst half its rate.
POLL_S = 0.005


class ClosedLoop:
    """Publishes cycles with at most two of them not yet durable and
    records when each was published and when it became durable."""

    def __init__(self, stack: IngestStack) -> None:
        self.stack = stack
        self.published_at: list[float] = []
        self.durable_at: list[float] = []

    def wait_durable(self, readings: int) -> None:
        per_cycle = self.stack.readings_per_cycle
        deadline = time.perf_counter() + DURABLE_TIMEOUT_S
        while True:
            done = self.stack.durable()
            now = time.perf_counter()
            while len(self.durable_at) < min(done // per_cycle, len(self.published_at)):
                self.durable_at.append(now)
            if done >= readings:
                return
            if now > deadline:
                raise NotDurable(f"{readings - done} readings not durable after {DURABLE_TIMEOUT_S} s")
            time.sleep(POLL_S)

    def run_segment(self, first_cycle: int, cycles: int) -> None:
        per_cycle = self.stack.readings_per_cycle
        for cycle in range(first_cycle, first_cycle + cycles):
            self.wait_durable((cycle - 1) * per_cycle)
            self.published_at.append(time.perf_counter())
            self.stack.publish_cycle(cycle)
        self.wait_durable((first_cycle + cycles) * per_cycle)
        # The writer acknowledges a batch before the rollup engine has
        # sealed what it completed; a segment ends when that is done
        # too, so each one holds exactly its own seals.
        if not self.stack.agent.writer.wait_idle(DURABLE_TIMEOUT_S):
            raise NotDurable("the writer did not go idle")

    def commit_ms(self, first_cycle: int) -> list[float]:
        return [
            (done - sent) * 1e3
            for sent, done in zip(self.published_at[first_cycle:], self.durable_at[first_cycle:])
        ]


def run_ingest(
    name: str, shape: Shape, seed: int, segments: int, workdir: Path,
    recorder: Recorder | None, started: tuple[float, float], corrupt: bool,
) -> Result:
    result = Result(name)
    rng = random.Random(seed)
    start_values = [rng.randrange(1_000, 1_000_000) for _ in range(shape.hosts)]
    stack = IngestStack(
        workdir, shape.hosts, shape.sensors_per_host, shape.interval_ms,
        shape.min_values, start_values,
    )
    loop = ClosedLoop(stack)
    cycles = shape.cycles_per_segment
    per_segment = cycles * stack.readings_per_cycle
    total_readings = (1 + segments) * per_segment
    result.attempted = total_readings

    # Ingest leg: a warm-up segment (registration, first seals), then
    # the measured ones.
    windows: list[Window] = []
    ingest = TracedLeg(recorder, stack.agent.metrics_registries)
    sent0, seals0 = 0, {}
    try:
        loop.run_segment(0, cycles)
        result.metrics["setup_s"] = setup_s(started)
        seals0 = stack.sealed_buckets()
        sent0 = sum(p.client.bytes_sent for p in stack.pushers)
        with ingest:
            for segment in range(1, 1 + segments):
                windows.append(timed(lambda: loop.run_segment(segment * cycles, cycles)))
    except NotDurable as exc:
        result.fail(total_readings - stack.durable(), str(exc))
    result.metrics["peak_rss_mb"] = peak_rss_mb()
    measured = len(windows) * per_segment
    commits = loop.commit_ms(cycles)
    if windows:
        seals1 = stack.sealed_buckets()
        result.metrics["readings_per_s"] = statistics.median(per_segment / w.busy_s for w in windows)
        result.metrics["cpu_us_per_reading"] = statistics.median(
            w.cpu_s / per_segment * 1e6 for w in windows
        )
        result.metrics["commit_p50_ms"] = percentile(commits, 50)
        note_steal(result.notes, windows)
        note_tail(result.notes, "commit_ms", commits)
        result.notes["segments"] = len(windows)
        result.work = {
            "readings": measured,
            "messages": measured // shape.min_values,
            **{f"seals_{tier}": seals1[tier] - seals0[tier] for tier in seals1},
        }
    wire_bytes = sum(p.client.bytes_sent for p in stack.pushers) - sent0
    stack.stop()
    result.metrics["disk_bytes_per_reading"] = disk_bytes(workdir) / total_readings

    # Read leg and verification, on the closed and reopened store.
    if corrupt:
        start_values = [value + 1 for value in start_values]
    cluster = open_cluster(workdir)
    pin_placement(cluster, stack.subtrees())
    client, grafana = open_read_side(cluster)
    http = GrafanaHttp(grafana.port, recorder)
    topics = stack.topics()
    interval_ns = shape.interval_ms * 1_000_000
    segment_ns = cycles * stack.cycle_ns
    ticks_per_segment = segment_ns // interval_ns
    stored_segments = 1 + len(windows)

    # One probe = one sensor's rows of one whole measured segment.
    probes = [
        (topic, rng.randrange(1, max(2, stored_segments)))
        for topic in rng.sample(topics, min(shape.probe_queries, len(topics)))
    ]

    def probe_body(topic: str, segment: int) -> dict:
        return query_body([topic], T0_NS + segment * segment_ns + 1, T0_NS + (segment + 1) * segment_ns)

    for topic, segment in probes[:3]:  # first touches of the reopened store
        http.post(probe_body(topic, segment))
    responses: list[tuple] = []
    query_cpu_ms: list[float] = []

    def run_probes() -> None:
        for topic, segment in probes:
            cpu0 = time.process_time()
            responses.append(http.timed(probe_body(topic, segment)))
            query_cpu_ms.append((time.process_time() - cpu0) * 1e3)

    read_back = TracedLeg(recorder, lambda: cluster.metrics_registries() + [client.metrics])
    with read_back:
        probe = timed(run_probes)
    latencies = [response[2] * 1e3 for response in responses]
    result.metrics["queries_per_s"] = len(probes) / probe.wall_s
    result.metrics["query_p50_ms"] = percentile(latencies, 50)
    result.metrics["cpu_ms_per_query"] = percentile(query_cpu_ms, 50)
    note_tail(result.notes, "query_ms", latencies)
    result.work["probe_queries"] = len(probes)
    result.attempted += len(probes)
    for (topic, segment), (status, data, _latency, _end) in zip(probes, responses):
        first = segment * ticks_per_segment
        timestamps = T0_NS + (np.arange(first, first + ticks_per_segment) + 1) * interval_ns
        values = tester_values(start_values, topic, first, ticks_per_segment)
        check_response(result, f"probe {topic}", status, data, {topic: datapoints(timestamps, values)})

    # Row count of every sensor.
    rows_expected = stored_segments * ticks_per_segment
    series = cluster.query_many([client.sid_of(topic) for topic in topics], 0, 1 << 62)
    for topic in topics:
        rows = int(series[client.sid_of(topic)][0].size)
        result.fail(abs(rows_expected - rows), f"{topic}: {rows} rows stored, {rows_expected} expected")

    # Tier-served == raw-computed == reference, on a seeded sample.
    lo, hi = T0_NS + segment_ns, T0_NS + stored_segments * segment_ns - 1
    checks = [
        (topic, aggregation, max_points)
        for topic in rng.sample(topics, min(8, len(topics)))
        for aggregation, max_points in (
            ("avg", (hi - lo + 1) // (10 * NS_PER_SEC)),
            ("max", max(1, (hi - lo + 1) // (60 * NS_PER_SEC))),
        )
    ]
    result.attempted += len(checks)
    result.work["aggregate_checks"] = len(checks)
    for topic, aggregation, max_points in checks:
        plan = client.plan_aggregate(topic, lo, hi, max_points)
        if plan.tier_index is None:
            result.fail(1, f"{topic}: {aggregation} over the measured window was not tier-served")
            continue
        tiered = client.query_aggregate(topic, lo, hi, aggregation, max_points)
        raw_ts, raw_values = client.query_raw(topic, lo, hi)
        first = int((lo - T0_NS) // interval_ns) - 1  # the tick read at ``lo``
        ref_values = tester_values(start_values, topic, first, int(raw_ts.size))

        def aggregate(values: np.ndarray) -> np.ndarray:
            _starts, _mins, maxs, sums, counts = aggregate_buckets(raw_ts, values, plan.bucket_ns)
            if aggregation == "max":
                return maxs.astype(np.float64)
            return sums.astype(np.float64) / counts.astype(np.float64)

        same = np.array_equal(tiered[1], aggregate(raw_values)) and np.array_equal(
            tiered[1], aggregate(ref_values)
        )
        result.fail(0 if same else 1, f"{topic}: tier-served {aggregation} != raw-computed != reference")

    if recorder is not None and windows:
        segment_bytes = segment_file_bytes(workdir)
        result.layers.update(
            ingest_layers(
                ingest, measured, measured // shape.min_values, wire_bytes,
                segment_bytes / total_readings, commits,
            )
        )
        result.layers.update(query_layers(read_back, len(probes), {"cold": latencies}))
        result.budget, result.layers["budget.coverage_pct"] = budget(
            recorder, sum(w.cpu_s for w in windows) + probe.cpu_s, measured
        )
    http.close()
    grafana.stop()
    close_cluster(cluster)
    return result
