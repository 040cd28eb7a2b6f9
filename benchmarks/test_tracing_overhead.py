"""Overhead gate for distributed tracing on the ingest path.

The trace header, span recording and exemplar stamping must be cheap
enough to leave on in production at a sampling stride; this gate
asserts that ``trace_sample_every=100`` costs at most 5% of the
untraced ingest path.

Methodology.  Naive A/B wall-clock comparison cannot resolve 5% here:
shared-runner noise is +-10% at the 100 ms scale, CPU time drifts
several percent per second (thermal/frequency), and toggling the
sampling stride in-place perturbs CPython's adaptive specialization,
inflating the apparent delta.  The gate instead *decomposes* the
overhead, which is strictly additive code:

1. run the real pipeline once at stride 100 with every tracing
   primitive wrapped by a counter — the per-reading call counts are
   deterministic;
2. microbench each primitive in a tight loop (stable to ~ns) right
   next to a baseline (stride 0) ingest run — both scale with current
   machine speed, so their *ratio* is drift-immune;
3. assert  sum(count_i * unit_cost_i) / baseline_per_reading <= 5%.

This bounds the marginal cost of every instruction tracing adds to
the hot path; steady-state systemic effects were measured separately
(blocked toggling, discarding post-switch slices) at ~1.5% and are
covered by the budget's headroom.

The primitives are the tracer's two calls — ``sample`` (the per-
candidate sampling decision, which mints the trace ID) and ``hop``
(histogram observation + span) — plus the storage layer's own span
records, the ambient trace context of a traced flush and the broker's
origin peek.  The 5% gate arms only when benchmarking is enabled; the
``--benchmark-disable`` smoke (``make bench-tracing``) still runs the
decomposition, so a tracer API change breaks it at once.
"""

from __future__ import annotations

import gc
import itertools
import time
from collections import Counter

from conftest import emit, format_table
from repro.core.payload import encode_readings, payload_origin_ns
from repro.core.sensor import SensorReading
from repro.observability import MetricsRegistry, PipelineTracer, SpanRecorder, trace_context
from repro.simulation.simcluster import SimClusterConfig, SimulatedCluster

OVERHEAD_BUDGET = 0.05  # sampled tracing may cost at most 5%
STRIDE = 100
COUNT_SIM_SECONDS = 5
BASELINE_SIM_SECONDS = 20


def _make_sim(stride: int) -> SimulatedCluster:
    return SimulatedCluster(
        SimClusterConfig(
            hosts=4,
            sensors_per_host=100,
            interval_ms=1000,
            trace_sample_every=stride,
        )
    )


def _count_primitive_calls() -> tuple[dict[str, int], int]:
    """Run the traced pipeline; return tracing-primitive call counts.

    Counts are per the whole run; the second element is the number of
    readings ingested, for per-reading normalization.
    """
    samples = Counter()
    hops = Counter()
    records = Counter()

    def counted(counter, fn, key=None):
        def wrapper(*args, **kwargs):
            counter[key if key is not None else args[0]] += 1
            return fn(*args, **kwargs)

        return wrapper

    sim = _make_sim(STRIDE)
    try:
        # Wrap the *instances* wired into this sim, so counting does
        # not disturb other tests' module state.  The writer shares the
        # agent's tracer.
        tracers = [p.tracer for p in sim.pushers] + [sim.hub.tracer, sim.agent.tracer]
        for tracer in tracers:
            tracer.sample = counted(samples, tracer.sample, "sample")
            tracer.hop = counted(hops, tracer.hop)
        sim.spans.record = counted(records, sim.spans.record, "span_record")
        stored = sim.run(COUNT_SIM_SECONDS)
        assert stored == sim.expected_readings(COUNT_SIM_SECONDS)
    finally:
        sim.stop()
    assert set(hops) == {"collect", "publish", "dispatch", "insert", "commit"}
    counts = {
        "sample": samples["sample"],
        "hop": sum(hops.values()),
        # Each hop records its span itself; the rest are the storage
        # layer's replica spans.
        "span_record": records["span_record"] - sum(hops.values()),
        # One ambient context per traced flush, one origin peek per
        # traced dispatch.
        "trace_context": hops["commit"],
        "payload_origin_ns": hops["dispatch"],
    }
    return counts, stored


def _unit_cost_s(fn, n: int = 20000, reps: int = 3) -> float:
    """Tight-loop cost of one call, best of ``reps`` (seconds)."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        best = min(best, (time.perf_counter() - t0) / n)
    return best


def _baseline_per_reading_s() -> float:
    """CPU seconds per reading of the untraced ingest path."""
    sim = _make_sim(0)
    try:
        sim.run(2)  # warm-up
        gc.collect()
        gc.disable()
        t0 = time.process_time_ns()
        stored = sim.run(BASELINE_SIM_SECONDS)
        elapsed = (time.process_time_ns() - t0) / 1e9
        gc.enable()
        assert stored == sim.expected_readings(BASELINE_SIM_SECONDS)
        return elapsed / stored
    finally:
        sim.stop()


class TestTracingOverhead:
    def test_sampled_tracing_within_five_percent(self, benchmark):
        counts, readings = _count_primitive_calls()

        # Unit costs, measured adjacent to the baseline so machine
        # speed cancels in the final ratio.  Each priced at its
        # worst case (exemplar attached, attributes recorded, a fresh
        # trace per call so the span ring evicts as in steady state).
        registry = MetricsRegistry()
        recorder = SpanRecorder()
        tracer_on = PipelineTracer(registry, sample_every=STRIDE, spans=recorder)
        tracer_off = PipelineTracer(registry, sample_every=0, spans=recorder)
        payload = encode_readings([SensorReading(1_000, 1)], trace_id=0xAB)
        ids = itertools.count(1)

        def one_hop():
            tracer_on.hop("insert", "agent", next(ids), 1_000, 0, topic="/t", readings=1)

        def one_record():
            recorder.record(next(ids), "replica-write", "cluster", 0, 10, replica="n0", retries=0)

        def one_context():
            with trace_context(0xAB):
                pass

        unit = {
            # Sampling decisions run at stride 0 too: charge the delta
            # (which includes minting the ID for one in STRIDE).
            "sample": _unit_cost_s(tracer_on.sample) - _unit_cost_s(tracer_off.sample),
            "hop": _unit_cost_s(one_hop),
            "span_record": _unit_cost_s(one_record),
            "trace_context": _unit_cost_s(one_context),
            "payload_origin_ns": _unit_cost_s(lambda: payload_origin_ns(payload)),
        }

        baseline = _baseline_per_reading_s()
        benchmark.pedantic(_baseline_per_reading_s, rounds=1, iterations=1)

        extra_per_reading = (
            sum(counts[name] * max(0.0, unit[name]) for name in counts) / readings
        )
        overhead = extra_per_reading / baseline
        rows = [
            [
                name,
                counts[name],
                f"{unit[name] * 1e9:8.0f} ns",
                f"{counts[name] * max(0.0, unit[name]) / readings * 1e9:8.1f} ns",
            ]
            for name in counts
        ]
        rows.append(["baseline ingest", readings, f"{baseline * 1e6:.2f} us/reading", ""])
        rows.append(["tracing overhead", "", f"{overhead:+.2%}", ""])
        emit(
            f"Tracing overhead decomposition (stride {STRIDE}, "
            f"{readings} readings)",
            format_table(["Primitive", "Calls", "Unit cost", "Per reading"], rows),
        )
        if benchmark.enabled:
            assert overhead <= OVERHEAD_BUDGET, (
                f"sampled tracing costs {overhead:.1%} of the untraced ingest "
                f"path (budget {OVERHEAD_BUDGET:.0%})"
            )

    def test_traced_run_actually_recorded_spans(self):
        """Guard the gate itself: the sampled config must be tracing."""
        sim = _make_sim(STRIDE)
        try:
            sim.run(5)
            assert sim.spans.traces(limit=1)
        finally:
            sim.stop()
