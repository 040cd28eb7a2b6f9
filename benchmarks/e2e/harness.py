"""What the four workloads share: results, clocks, the HTTP client,
the Grafana wire shape and the traced-leg bookkeeping."""

from __future__ import annotations

import http.client
import json
import os
import resource
import socket
import time
from dataclasses import dataclass, field

import numpy as np

from repro.common.timeutil import NS_PER_SEC
from repro.storage.rollup import aggregate_buckets

from layers import snapshot
from trace import Recorder

#: Seconds a loop waits for readings to become durable before the run
#: gives up and counts them as failed.
DURABLE_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Shape:
    """Size of one workload; ``--smoke`` swaps in a tiny one."""

    hosts: int = 0
    sensors_per_host: int = 0
    interval_ms: int = 1000
    min_values: int = 1
    cycles_per_segment: int = 60
    #: Measured segments of the full-size run (the issue's target).
    full_segments: int = 1
    #: Wall seconds one segment takes on one CPU of the reference host;
    #: ``--seconds`` divided by it gives the measured segment count.
    segment_s: float = 15.0
    #: Wall seconds between open-loop cycles (mixed_rw only).
    pace_s: float = 0.0
    #: Sensors read back through Grafana after an ingest run.
    probe_queries: int = 40
    # query_dashboard
    racks: int = 3
    sensors_per_rack: int = 16
    history_hours: int = 4
    block_cache_bytes: int = 1 << 20
    ops_per_segment: tuple[int, int, int] = (60, 30, 30)  # cold, panel, subtree
    # mixed_rw: topics of the panel, each preloaded with one hour
    panel_topics: int = 8


@dataclass
class Result:
    """What one run of one workload measured."""

    workload: str
    metrics: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    #: Work the measured window contained; identical across runs and seeds.
    work: dict[str, int] = field(default_factory=dict)
    #: Sample counts and tail percentiles printed next to the medians.
    notes: dict[str, float] = field(default_factory=dict)
    budget: list[tuple[str, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, what: str) -> None:
        """Count ``count`` failed ops (0 = the check passed)."""
        if count:
            self.failed += count
            if len(self.problems) < 20:
                self.problems.append(what)


class NotDurable(Exception):
    """Readings did not become durable within DURABLE_TIMEOUT_S."""


# -- clocks ---------------------------------------------------------------


def stolen_s() -> float:
    """CPU seconds the hypervisor has withheld so far from the CPUs this
    process may run on (the ``steal`` column of their /proc/stat lines);
    0 where it is not reported."""
    try:
        mine = {f"cpu{n}" for n in os.sched_getaffinity(0)}
        with open("/proc/stat", encoding="ascii") as handle:
            ticks = sum(int(fields[8]) for fields in map(str.split, handle) if fields[0] in mine)
        return ticks / os.sysconf("SC_CLK_TCK")
    except (AttributeError, OSError, IndexError, ValueError):
        return 0.0


def effective_s(wall_s: float, steal_s: float, cpu_s: float = 0.0) -> float:
    """Wall time a CPU-bound closed loop actually had the CPU.

    On the virtual machines this benchmark runs on, neighbours take the
    CPU away in bursts of seconds (NOISE.md): a closed loop that keeps
    one CPU busy makes no progress meanwhile, so the ingest rates (and
    the set-up they dominate) divide by wall time minus stolen time.
    Stolen time cannot exceed the time the process was off the CPU, and
    the floor keeps a mis-attributed burst from doubling a rate.  Legs
    that mostly wait — the query legs, held by a 40 ms kernel timer,
    and the wall-paced open loop — use the plain wall clock.
    """
    return max(wall_s - steal_s, min(cpu_s, wall_s), 0.5 * wall_s)


@dataclass
class Window:
    """One segment (or leg): wall, process CPU and stolen time."""

    wall_s: float
    cpu_s: float
    steal_s: float = 0.0

    @property
    def busy_s(self) -> float:
        return effective_s(self.wall_s, self.steal_s, self.cpu_s)


def now3() -> tuple[float, float, float]:
    return time.perf_counter(), time.process_time(), stolen_s()


def window_between(start: tuple[float, float, float], end: tuple[float, float, float]) -> Window:
    return Window(end[0] - start[0], end[1] - start[1], end[2] - start[2])


def timed(fn) -> Window:
    start = now3()
    fn()
    return window_between(start, now3())


def setup_s(started: tuple[float, float], cpu_bound: bool = True) -> float:
    """Interpreter start -> now; ``started`` is (perf_counter, stolen_s) then."""
    wall = time.perf_counter() - started[0]
    return effective_s(wall, stolen_s() - started[1], time.process_time()) if cpu_bound else wall


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibrate() -> float:
    """Fixed micro-kernel (interpreter loop + NumPy sort), milliseconds.

    Reported beside the results so two hosts can be told apart; never
    used to normalise a metric.
    """
    best = float("inf")
    data = np.random.default_rng(7).integers(0, 1 << 40, 200_000)
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        np.sort(data)
        best = min(best, time.perf_counter() - start)
    return best * 1e3


# -- statistics -----------------------------------------------------------


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if len(values) else 0.0


def note_tail(notes: dict[str, float], name: str, values) -> None:
    """Record the sample count and the highest percentile that still
    has ten samples beyond it (choosing-metrics guide, section 1)."""
    notes[f"{name}.n"] = len(values)
    for q in (99, 95, 90):
        if len(values) * (100 - q) / 100 >= 10:
            notes[f"{name}.p{q}"] = percentile(values, q)
            return


def note_steal(notes: dict[str, float], windows: list[Window]) -> None:
    wall = sum(w.wall_s for w in windows)
    notes["stolen_share"] = sum(w.steal_s for w in windows) / wall if wall else 0.0


# -- the traced run ---------------------------------------------------------


class TracedLeg:
    """Span window and registry snapshots around one leg of a workload.

    Does nothing in the untraced run (``recorder`` is None).
    ``registries`` is called at entry and exit, so it may name objects
    that only exist by then.
    """

    def __init__(self, recorder: Recorder | None, registries) -> None:
        self.recorder = recorder
        self.registries = registries
        self.before: dict[str, float] = {}
        self.after: dict[str, float] = {}
        self.window = (0, 0)

    def __enter__(self) -> "TracedLeg":
        if self.recorder is not None:
            self.before = snapshot(self.registries())
            self.recorder.start()
        return self

    def __exit__(self, *exc: object) -> None:
        if self.recorder is not None:
            self.window = self.recorder.stop()
            self.after = snapshot(self.registries())


# -- Grafana over HTTP -------------------------------------------------------


class GrafanaHttp:
    """One keep-alive HTTP client of the Grafana data source."""

    def __init__(self, port: int, recorder: Recorder | None) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        self.conn.connect()
        self.conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if recorder is not None:
            self.post = recorder.span("bench", "bench.http_client")(self.post)

    def post(self, body: dict) -> tuple[int, bytes]:
        self.conn.request("POST", "/query", json.dumps(body), {"Content-Type": "application/json"})
        response = self.conn.getresponse()
        return response.status, response.read()

    def timed(self, body: dict) -> tuple[int, bytes, float, float]:
        """(status, response bytes, latency seconds, completion time)."""
        start = time.perf_counter()
        status, data = self.post(body)
        end = time.perf_counter()
        return status, data, end - start, end

    def close(self) -> None:
        self.conn.close()


def query_body(topics, start: int, end: int, max_points: int | None = None) -> dict:
    body = {
        "range": {"from_ns": start, "to_ns": end},
        "targets": [{"target": topic} for topic in topics],
    }
    if max_points is not None:
        body["maxDataPoints"] = max_points
    return body


def datapoints(timestamps, values) -> list[list]:
    """The Grafana wire shape of a series: [[value, epoch ms], ...]."""
    return [
        [float(v), int(t // 1_000_000)]
        for t, v in zip(np.asarray(timestamps).tolist(), np.asarray(values).tolist())
    ]


def parse_series(data: bytes) -> dict[str, list]:
    return {series["target"]: series["datapoints"] for series in json.loads(data)}


def check_response(result: Result, label: str, status: int, data: bytes, expected: dict) -> None:
    """Compare one /query response with the NumPy reference
    ``{topic: datapoints}``; any difference is one failed op."""
    if status != 200:
        result.fail(1, f"{label}: HTTP {status}")
        return
    got = parse_series(data)
    bad = [topic for topic in expected if got.get(topic) != expected[topic]]
    result.fail(1 if bad else 0, f"{label}: response differs from the reference for {bad[:2]}")


def tier_bucket_ns(window_ns: int, max_points: int) -> int:
    """Output bucket the tier-aware planner picks for a covered window:
    the desired resolution rounded up to a multiple of the coarsest
    rollup tier that is still fine enough."""
    desired = -(-window_ns // max_points)
    for tier_s in (3600, 60, 10):
        tier_ns = tier_s * NS_PER_SEC
        if tier_ns <= desired:
            return -(-desired // tier_ns) * tier_ns
    raise ValueError(f"a {window_ns} ns window at {max_points} points is finer than every tier")


def bucket_means(timestamps, values, bucket_ns: int) -> list[list]:
    """Per-bucket averages of a reference series, in wire shape."""
    starts, _mins, _maxs, sums, counts = aggregate_buckets(timestamps, values, bucket_ns)
    return datapoints(starts, sums.astype(np.float64) / counts.astype(np.float64))
