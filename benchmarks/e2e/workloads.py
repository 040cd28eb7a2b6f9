"""The four workloads of the end-to-end benchmark: sizes and dispatch.

Design rule (see README.md): **fixed work, not fixed wall time; windows
made of identical segments; latency only where the load is bounded.**
A *segment* is one sim-minute of identical work — the same readings,
the same 10 s and 1 m rollup seals, the same query ops per class — the
first segment of a run is warm-up and is discarded, and every rate is
the median of per-segment rates.

Every workload reports every end-to-end metric (the benchmark contract
asks for one list).  Each has a *primary* leg, the one the workload is
built to stress, and a short *secondary* leg that gives the remaining
metrics an honest reading: ingest workloads read a seeded sample back
through Grafana after the store was closed and reopened (this doubles
as their verification), and ``query_dashboard`` reports the bulk load
that builds its store.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

from dashboard import run_query_dashboard
from harness import Result, Shape, calibrate
from ingest import run_ingest
from mixed import run_mixed_rw
from trace import Recorder

SHAPES: dict[str, Shape] = {
    "ingest_grid": Shape(hosts=2, sensors_per_host=500, full_segments=5, segment_s=8.5),
    "ingest_burst": Shape(
        hosts=2, sensors_per_host=100, interval_ms=100, min_values=100,
        cycles_per_segment=6, full_segments=20, segment_s=2.7,
    ),
    "query_dashboard": Shape(full_segments=8, segment_s=7.5),
    "mixed_rw": Shape(hosts=1, sensors_per_host=200, full_segments=3, segment_s=15.0, pace_s=0.25),
}

SMOKE_SHAPES: dict[str, Shape] = {
    "ingest_grid": Shape(hosts=2, sensors_per_host=50, cycles_per_segment=20, probe_queries=10),
    "ingest_burst": Shape(
        hosts=2, sensors_per_host=20, interval_ms=100, min_values=100,
        cycles_per_segment=2, probe_queries=10,
    ),
    "query_dashboard": Shape(
        sensors_per_rack=4, history_hours=1, block_cache_bytes=1 << 16, ops_per_segment=(6, 3, 3)
    ),
    "mixed_rw": Shape(hosts=1, sensors_per_host=40, cycles_per_segment=20, pace_s=0.05, panel_topics=4),
}

RUNNERS = {
    "ingest_grid": run_ingest,
    "ingest_burst": run_ingest,
    "query_dashboard": run_query_dashboard,
    "mixed_rw": run_mixed_rw,
}


def measured_segments(shape: Shape, seconds: float) -> int:
    """Whole segments that fit ``seconds`` on the reference host."""
    return max(1, min(shape.full_segments, int(seconds / shape.segment_s + 0.5)))


def run_workload(
    name: str, seed: int, seconds: float, smoke: bool, workroot: Path,
    recorder: Recorder | None, started: tuple[float, float], corrupt: bool = False,
) -> Result:
    """Run one workload in a fresh data directory and clean up after."""
    shape = (SMOKE_SHAPES if smoke else SHAPES)[name]
    segments = 1 if smoke else measured_segments(shape, seconds)
    workdir = workroot / f"{name}-{seed}-{int(time.time() * 1e3) % 10**9}"
    workdir.mkdir(parents=True)
    calib_before = calibrate() if recorder is not None else 0.0
    try:
        result = RUNNERS[name](name, shape, seed, segments, workdir, recorder, started, corrupt)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if recorder is not None:
        result.layers["host.calib_ms"] = (calib_before + calibrate()) / 2
    return result
