"""Span trees for sampled readings: who touched a reading, and when.

The hop histograms answer *how slow* each pipeline stage is in
aggregate; spans answer *which* reading went where — which broker
dispatched it, which flush batched it, which replica retried, whether
a fault was injected.  Each sampled message carries a compact trace ID
on the wire (:mod:`repro.core.payload`); every component that handles
it records a :class:`Span` into a :class:`SpanRecorder`, a bounded
lock-striped ring of recent traces served by the ``/traces`` REST
route.  Pipeline hops record theirs through
:meth:`repro.observability.tracing.PipelineTracer.hop`, the one call
that also observes the hop histogram; the storage layer records its
replica spans here directly.

Recording is strictly passive: spans carry explicit start/end timestamps, there
is no context-manager timing machinery on the hot path, and an
untraced message (no trace ID) costs one ``is None`` check.

Ambient context
---------------

The storage layer sits below the wire: ``StorageCluster.insert_batch``
receives plain reading lists, not payloads.  :func:`trace_context`
sets a thread-local ambient trace ID around such calls so deep layers
can pick it up via :func:`current_trace` without threading a parameter
through every backend signature.
"""

from __future__ import annotations

import itertools
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

__all__ = [
    "Span",
    "SpanRecorder",
    "current_trace",
    "default_recorder",
    "new_trace_id",
    "trace_context",
]

_id_counter = itertools.count(1)
_id_base = int.from_bytes(os.urandom(6), "big") << 16


def new_trace_id() -> int:
    """A process-unique non-zero 64-bit trace ID.

    Random high bits keep IDs distinct across processes (old/new
    pusher mixes feeding one agent); the low counter bits make IDs
    unique and cheap within a process — no per-call entropy read.
    """
    return (_id_base | (next(_id_counter) & 0xFFFF)) & 0x7FFF_FFFF_FFFF_FFFF


@dataclass(frozen=True, slots=True)
class Span:
    """One component's handling of one traced message."""

    name: str  # hop/operation: collect, publish, dispatch, insert, flush, ...
    component: str  # who recorded it: pusher, broker, agent, writer, cluster
    start_ns: int
    end_ns: int
    attributes: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "component": self.component,
            "startNs": self.start_ns,
            "endNs": self.end_ns,
            "durationNs": self.end_ns - self.start_ns,
            "attributes": dict(self.attributes),
        }


class _TraceSlot:
    __slots__ = ("trace_id", "spans")

    def __init__(self, trace_id: int) -> None:
        self.trace_id = trace_id
        self.spans: list[Span] = []


class SpanRecorder:
    """Bounded lock-striped ring buffer of recent traces.

    ``capacity`` bounds the number of distinct traces retained;
    ``max_spans_per_trace`` bounds each trace's span list (runaway
    retry loops cannot grow memory without bound).  Old traces are
    evicted FIFO per stripe.  Recording takes one stripe lock keyed by
    trace ID, so concurrent pipeline stages rarely contend.
    """

    DEFAULT_CAPACITY = 256

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        stripes: int = 8,
        max_spans_per_trace: int = 64,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if stripes < 1:
            raise ValueError("stripes must be >= 1")
        self._stripes = stripes
        self._per_stripe = max(1, capacity // stripes)
        self._max_spans = max_spans_per_trace
        self._locks = [threading.Lock() for _ in range(stripes)]
        # Insertion-ordered dicts double as FIFO rings per stripe.
        self._rings: list[dict[int, _TraceSlot]] = [{} for _ in range(stripes)]

    def _stripe_of(self, trace_id: int) -> int:
        return trace_id % self._stripes

    def record(
        self,
        trace_id: int | None,
        name: str,
        component: str,
        start_ns: int,
        end_ns: int,
        **attributes,
    ) -> None:
        """Append a span to a trace; no-op when ``trace_id`` is None."""
        if trace_id is None:
            return
        span = Span(name, component, start_ns, end_ns, attributes)
        idx = self._stripe_of(trace_id)
        with self._locks[idx]:
            ring = self._rings[idx]
            slot = ring.get(trace_id)
            if slot is None:
                while len(ring) >= self._per_stripe:
                    ring.pop(next(iter(ring)))
                slot = _TraceSlot(trace_id)
                ring[trace_id] = slot
            if len(slot.spans) < self._max_spans:
                slot.spans.append(span)

    def trace(self, trace_id: int) -> list[Span]:
        """Spans of one trace (copy), oldest first; [] if unknown."""
        idx = self._stripe_of(trace_id)
        with self._locks[idx]:
            slot = self._rings[idx].get(trace_id)
            return list(slot.spans) if slot is not None else []

    def traces(
        self,
        limit: int = 50,
        sid: str | None = None,
        min_latency_ns: int = 0,
    ) -> list[dict]:
        """Recent traces as JSON-ready documents, newest first.

        ``sid`` filters to traces whose spans mention that sensor ID
        (substring match on the ``sid``/``topic`` attributes);
        ``min_latency_ns`` filters on whole-trace wall span.
        """
        docs = []
        for idx in range(self._stripes):
            with self._locks[idx]:
                slots = list(self._rings[idx].values())
            for slot in slots:
                spans = slot.spans
                if not spans:
                    continue
                start = min(s.start_ns for s in spans)
                end = max(s.end_ns for s in spans)
                if end - start < min_latency_ns:
                    continue
                if sid is not None and not any(
                    sid in str(s.attributes.get(key, ""))
                    for s in spans
                    for key in ("sid", "topic")
                ):
                    continue
                docs.append(
                    {
                        "traceId": f"{slot.trace_id:016x}",
                        "startNs": start,
                        "endNs": end,
                        "durationNs": end - start,
                        "spanCount": len(spans),
                        "spans": [s.as_dict() for s in spans],
                    }
                )
        docs.sort(key=lambda d: d["startNs"], reverse=True)
        return docs[:limit]

    def __len__(self) -> int:
        return sum(len(ring) for ring in self._rings)

    def clear(self) -> None:
        for idx in range(self._stripes):
            with self._locks[idx]:
                self._rings[idx].clear()


_default = SpanRecorder()


def default_recorder() -> SpanRecorder:
    """The process-global recorder.

    Components record here unless handed an explicit recorder, so a
    pusher, broker, agent and storage cluster wired in one process
    (the simulated-cluster topology) contribute to a single span tree
    per trace, and either REST API's ``/traces`` sees all hops.
    """
    return _default


_ambient = threading.local()


def current_trace() -> int | None:
    """The ambient trace ID set by :func:`trace_context`, if any."""
    return getattr(_ambient, "trace_id", None)


@contextmanager
def trace_context(trace_id: int | None) -> Iterator[None]:
    """Set the ambient trace ID for the current thread.

    Nested use restores the outer value on exit; ``None`` is a cheap
    no-op pass-through so untraced paths need no branching at the
    call site.
    """
    if trace_id is None:
        yield
        return
    previous = getattr(_ambient, "trace_id", None)
    _ambient.trace_id = trace_id
    try:
        yield
    finally:
        _ambient.trace_id = previous
