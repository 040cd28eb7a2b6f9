"""End-to-end pipeline tracing: one model, one call per hop.

A message is traced exactly when it carries a trace ID.  The Pusher
mints one for one of every ``trace_sample_every`` collected readings
and sends it in the wire trace header (:mod:`repro.core.payload`); a
broker, hub or Collect Agent that receives a *headerless* message
samples it at its own stride by minting an ID there.  Each component
that handles a traced message then makes exactly one
:meth:`PipelineTracer.hop` call, which does both halves of the record:

* it observes ``now - origin`` (the reading's collection timestamp)
  into the shared ``dcdb_pipeline_latency_seconds{hop}`` histogram,
  with the trace ID attached as the bucket's *exemplar*, and
* it records the component's :class:`~repro.observability.spans.Span`
  in the :class:`~repro.observability.spans.SpanRecorder` under the
  same trace ID.

So every histogram observation has a span, and every exemplar resolves
to a trace on ``/traces``.  The cumulative-latency histograms give
p50/p95/p99 per hop directly, and hop-to-hop deltas by subtraction.

Hops, in pipeline order:

``collect``   sampling cycle done, readings queued (Pusher)
``publish``   MQTT message handed to the transport (Pusher)
``dispatch``  PUBLISH accepted by the broker/hub (Collect Agent side)
``insert``    payload decoded, batch about to be staged (Collect Agent)
``commit``    storage acknowledged the batch — end-to-end latency

Overhead is bounded by the *sampling knob*: ``sample_every=N`` traces
one of every N candidates (a shared atomic cycle counter, no lock).
``sample_every=0`` disables tracing entirely.
"""

from __future__ import annotations

import itertools
from typing import Callable

from repro.common.timeutil import now_ns
from repro.observability.metrics import MetricsRegistry
from repro.observability.spans import SpanRecorder, default_recorder, new_trace_id

__all__ = ["HOPS", "LATENCY_BUCKETS", "PIPELINE_METRIC", "PipelineTracer"]

#: Pipeline stages in order; ``commit`` is end-to-end.
HOPS = ("collect", "publish", "dispatch", "insert", "commit")

PIPELINE_METRIC = "dcdb_pipeline_latency_seconds"

#: 100 us .. 60 s — spans in-process hops through cross-network bursts.
LATENCY_BUCKETS = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
)


class PipelineTracer:
    """Per-hop latency histogram and span recorder behind one call.

    All tracers observing into the same :class:`MetricsRegistry` share
    one histogram family (get-or-create semantics), so a Pusher, a
    broker and a Collect Agent wired in-process produce a single
    coherent per-hop distribution; ``spans`` defaults to the
    process-global recorder.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        clock: Callable[[], int] | None = None,
        sample_every: int = 1,
        spans: SpanRecorder | None = None,
    ) -> None:
        if sample_every < 0:
            raise ValueError("sample_every must be >= 0 (0 disables tracing)")
        self.registry = registry
        self.sample_every = sample_every
        self.spans = spans if spans is not None else default_recorder()
        self._clock = clock if clock is not None else now_ns
        self._cycle = itertools.count()
        self._hist = registry.histogram(
            PIPELINE_METRIC,
            "Cumulative pipeline latency since collection, by hop",
            labelnames=("hop",),
            buckets=LATENCY_BUCKETS,
        )
        self._children = {hop: self._hist.labels(hop=hop) for hop in HOPS}

    def sample(self) -> int | None:
        """A fresh trace ID for one of every ``sample_every`` candidates.

        Returns None for the candidates left untraced.
        ``itertools.count`` is a single C-level object: advancing it is
        atomic under the GIL, so sampling costs no lock.
        """
        every = self.sample_every
        if every == 0 or (every != 1 and next(self._cycle) % every):
            return None
        return new_trace_id()

    def hop(
        self,
        hop: str,
        component: str,
        trace_id: int,
        origin_ns: int,
        start_ns: int | None = None,
        **attributes,
    ) -> None:
        """Record one component's handling of one traced message.

        Observes the latency from ``origin_ns`` to now at ``hop`` with
        ``trace_id`` as the exemplar, and records the span
        ``[start_ns, now]`` (an instant when ``start_ns`` is None).
        Negative deltas (simulated clocks running behind aligned
        sampling timestamps) clamp to zero rather than corrupting the
        distribution; the span end clamps likewise.
        """
        end_ns = self._clock()
        if start_ns is None:
            start_ns = end_ns
        elif start_ns > end_ns:
            end_ns = start_ns
        self._children[hop].observe(max(0, end_ns - origin_ns) / 1e9, f"{trace_id:016x}")
        self.spans.record(trace_id, hop, component, start_ns, end_ns, **attributes)

    def percentiles(self, hop: str) -> dict | None:
        """p50/p95/p99 summary of one hop, or None before any observation."""
        labels = {"hop": hop}
        count = int(self.registry.value(self._hist.name, labels))
        if count == 0:
            return None
        return {
            "count": count,
            "p50": self._hist.percentile(0.50, labels),
            "p95": self._hist.percentile(0.95, labels),
            "p99": self._hist.percentile(0.99, labels),
        }
