"""Unit tests for the pipeline tracer: one call per hop."""

from __future__ import annotations

import pytest

from repro.common.timeutil import SimClock
from repro.observability import (
    HOPS,
    PIPELINE_METRIC,
    MetricsRegistry,
    PipelineTracer,
    SpanRecorder,
)

TRACE = 0xAB


def make_tracer(clock=None, sample_every=1, registry=None):
    return PipelineTracer(
        registry if registry is not None else MetricsRegistry(),
        clock=clock if clock is not None else SimClock(0),
        sample_every=sample_every,
        spans=SpanRecorder(),
    )


class TestPipelineTracer:
    def test_stamp_observes_latency_in_seconds(self):
        clock = SimClock(5_000_000_000)
        tracer = make_tracer(clock)
        tracer.hop("collect", "pusher", TRACE, 4_000_000_000)  # 1 s old
        stats = tracer.percentiles("collect")
        assert stats["count"] == 1
        assert 0.5 <= stats["p50"] <= 2.5

    def test_hop_records_span_and_exemplar_of_one_trace(self):
        clock = SimClock(5_000_000_000)
        tracer = make_tracer(clock)
        tracer.hop("publish", "pusher", TRACE, 4_000_000_000, 4_500_000_000, topic="/t")
        (span,) = tracer.spans.trace(TRACE)
        assert (span.name, span.component) == ("publish", "pusher")
        assert (span.start_ns, span.end_ns) == (4_500_000_000, 5_000_000_000)
        assert span.attributes == {"topic": "/t"}
        sample = next(
            s
            for s in tracer.registry.get(PIPELINE_METRIC).snapshot().samples
            if dict(s.labels)["hop"] == "publish"
        )
        assert [label for _, label, _ in sample.exemplars] == [f"{TRACE:016x}"]

    def test_hop_without_start_is_an_instant(self):
        tracer = make_tracer(SimClock(7))
        tracer.hop("dispatch", "broker", TRACE, 0)
        (span,) = tracer.spans.trace(TRACE)
        assert span.start_ns == span.end_ns == 7

    def test_negative_latency_clamps_to_zero(self):
        tracer = make_tracer(SimClock(0))
        tracer.hop("collect", "pusher", TRACE, 10_000_000_000)  # origin in the future
        assert tracer.percentiles("collect")["count"] == 1

    def test_all_hops_share_one_family(self):
        registry = MetricsRegistry()
        tracer = make_tracer(registry=registry)
        for hop in HOPS:
            tracer.hop(hop, "test", TRACE, 0)
        family = registry.get(PIPELINE_METRIC)
        assert {dict(s.labels)["hop"] for s in family.snapshot().samples} == set(HOPS)

    def test_two_tracers_one_registry_share_histogram(self):
        registry = MetricsRegistry()
        a = make_tracer(registry=registry)
        b = make_tracer(registry=registry)
        a.hop("insert", "agent", TRACE, 0)
        b.hop("insert", "agent", TRACE + 1, 0)
        assert registry.value(PIPELINE_METRIC, {"hop": "insert"}) == 2.0

    def test_sampling_knob_thins_stamps(self):
        tracer = make_tracer(sample_every=10)
        ids = [tracer.sample() for _ in range(100)]
        minted = [i for i in ids if i is not None]
        assert len(minted) == 10
        assert len(set(minted)) == 10 and all(minted)

    def test_sample_every_zero_disables(self):
        tracer = make_tracer(sample_every=0)
        assert all(tracer.sample() is None for _ in range(50))

    def test_negative_sample_every_rejected(self):
        with pytest.raises(ValueError):
            PipelineTracer(MetricsRegistry(), sample_every=-1)

    def test_percentiles_none_before_any_stamp(self):
        assert make_tracer().percentiles("commit") is None
