"""Layer tracing for the traced run of the end-to-end benchmark.

The benchmark, not the program, records the spans: :data:`WRAPPERS`
(the single wrapper table) names the public callables at each layer
boundary, :meth:`Recorder.install` replaces each with a thin wrapper,
and every call made while the recorder is enabled appends one span to
a per-thread in-memory buffer:

====== =====================================================
column meaning
====== =====================================================
0      span name id (index into ``Recorder.names``)
1      parent span (row index in the same thread's buffer, -1 = root)
2      wall start, ``perf_counter_ns``
3      wall end, ``perf_counter_ns`` (0 = never finished)
4      CPU the thread spent inside the span, ``thread_time_ns`` delta
5      value reported by the span's probe (bytes written, ...), else 0
====== =====================================================

A span's **self time** is its own time minus that of the spans it
directly caused on the same thread.  Work a layer hands to another
thread (replica fan-out, background compaction) shows up as root spans
of that thread, so per-layer *CPU* self times add up to the CPU the
wrapped layers burned — :func:`budget` compares that sum with the
process CPU of the traced window.

Tracing costs a few microseconds per wrapped call, so end-to-end
metrics are always taken with the wrappers absent; the traced run is a
separate process.
"""

from __future__ import annotations

import functools
import importlib
import threading
from array import array
from dataclasses import dataclass
from time import perf_counter_ns, thread_time_ns

import numpy as np


def _batch_len(args, _result) -> int:
    """Rows (or SIDs) in the list a batch call was handed."""
    return len(args[1]) if isinstance(args[1], (list, tuple)) else 0


def _count_arg(args, _result) -> int:
    return int(args[1])


def _file_bytes(_args, result) -> int:
    return result.file_bytes if result is not None else 0


def _truthy(_args, result) -> int:
    return 1 if result else 0


def _rows_returned(_args, result) -> int:
    if isinstance(result, dict):
        return sum(int(ts.size) for ts, _vals in result.values())
    return int(result[0].size)


#: The wrapper table: (layer, span name, module, owner class or None,
#: attribute[, option]).  Functions imported by name are patched in the
#: module that *calls* them.  The option is either ``"hook:<i>"`` —
#: wrap the callback passed as positional argument ``i`` instead of the
#: call itself (the Collect Agent's ingest entry point is the publish
#: hook it registers; Grafana's are its route handlers) — or a probe
#: ``(args, result) -> int`` whose value is stored with the span.
WRAPPERS: tuple[tuple, ...] = (
    # -- write path ---------------------------------------------------
    ("pusher", "pusher.advance_to", "repro.core.pusher.pusher", "Pusher", "advance_to"),
    ("payload", "payload.encode", "repro.core.payload", None, "encode_readings"),
    ("mqtt", "mqtt.publish", "repro.mqtt.client", "MQTTClient", "publish"),
    ("mqtt", "mqtt.feed", "repro.mqtt.packets", "StreamDecoder", "feed"),
    ("agent", "agent.on_publish", "repro.mqtt.broker", "MQTTBroker", "add_publish_hook", "hook:1"),
    ("payload", "payload.decode", "repro.core.payload", None, "decode_message"),
    ("sid", "sid.lookup", "repro.core.sid", "SidMapper", "lookup_topic"),
    ("sid", "sid.allocate", "repro.core.sid", "PersistentSidMapper", "sid_for_topic"),
    ("writer", "writer.put", "repro.core.collectagent.writer", "BatchingWriter", "put"),
    ("cache", "cache.store", "repro.core.sensor", "SensorCache", "store"),
    ("rollup", "rollup.observe", "repro.storage.rollup", "RollupEngine", "observe"),
    ("cluster", "cluster.insert_batch", "repro.storage.cluster", "StorageCluster", "insert_batch", _batch_len),
    ("cluster", "cluster.commit_durable", "repro.storage.cluster", "StorageCluster", "commit_durable"),
    ("cluster", "cluster.put_metadata", "repro.storage.cluster", "StorageCluster", "put_metadata"),
    ("node", "node.insert_batch", "repro.storage.durable.node", "DurableNode", "insert_batch", _batch_len),
    ("node", "node.commit_durable", "repro.storage.durable.node", "DurableNode", "commit_durable"),
    ("node", "node.put_metadata", "repro.storage.durable.node", "DurableNode", "put_metadata"),
    ("node", "node.memtable", "repro.storage.node", "StorageNode", "insert_batch"),
    ("wal", "wal.append", "repro.storage.durable.wal", "WriteAheadLog", "append"),
    ("wal", "wal.commit", "repro.storage.durable.wal", "WriteAheadLog", "commit", _truthy),
    ("wal", "wal.rotate", "repro.storage.durable.wal", "WriteAheadLog", "rotate"),
    ("segment", "segment.write", "repro.storage.durable.node", None, "write_segment", _file_bytes),
    ("codec", "codec.encode_timestamps", "repro.storage.durable.segment", None, "encode_timestamps"),
    ("codec", "codec.encode_values", "repro.storage.durable.segment", None, "encode_values"),
    # -- read path ----------------------------------------------------
    ("httpjson", "httpjson.request", "http.server", "BaseHTTPRequestHandler", "handle_one_request"),
    ("grafana", "grafana.handler", "repro.common.httpjson", "JsonHttpServer", "route", "hook:3"),
    ("libdcdb", "libdcdb.plan_aggregate", "repro.libdcdb.api", "DCDBClient", "plan_aggregate"),
    ("libdcdb", "libdcdb.query", "repro.libdcdb.api", "DCDBClient", "query"),
    ("libdcdb", "libdcdb.query_aggregate", "repro.libdcdb.api", "DCDBClient", "query_aggregate"),
    ("libdcdb", "libdcdb.query_aggregate_many", "repro.libdcdb.api", "DCDBClient", "query_aggregate_many"),
    ("libdcdb", "libdcdb.query_raw", "repro.libdcdb.api", "DCDBClient", "query_raw"),
    ("libdcdb", "libdcdb.query_raw_many", "repro.libdcdb.api", "DCDBClient", "query_raw_many"),
    ("libdcdb", "libdcdb.prefetch_raw", "repro.libdcdb.api", "DCDBClient", "prefetch_raw"),
    ("libdcdb", "libdcdb.sensor_config", "repro.libdcdb.api", "DCDBClient", "sensor_config"),
    ("cluster", "cluster.query", "repro.storage.cluster", "StorageCluster", "query"),
    ("cluster", "cluster.query_many", "repro.storage.cluster", "StorageCluster", "query_many", _batch_len),
    ("cluster", "cluster.get_metadata", "repro.storage.cluster", "StorageCluster", "get_metadata"),
    ("cluster", "cluster.metadata_keys", "repro.storage.cluster", "StorageCluster", "metadata_keys"),
    ("node", "node.query", "repro.storage.node", "StorageNode", "query", _rows_returned),
    ("node", "node.query_many", "repro.storage.node", "StorageNode", "query_many", _rows_returned),
    ("segment", "segment.read", "repro.storage.durable.segment", "SegmentFile", "read", _rows_returned),
    ("codec", "codec.decode_timestamps", "repro.storage.durable.segment", None, "decode_timestamps"),
    ("codec", "codec.decode_values", "repro.storage.durable.segment", None, "decode_values", _count_arg),
)

#: Span columns (see the module docstring).
NAME, PARENT, START, END, CPU, VALUE = range(6)
_WIDTH = 6


@dataclass
class SpanStats:
    """Aggregate of every finished span of one name."""

    count: int
    wall_ns: np.ndarray  # per span
    values: np.ndarray  # per span, the probe's value
    cpu_ns: int
    self_cpu_ns: int

    @property
    def value(self) -> int:
        return int(self.values.sum())


_EMPTY_STATS = SpanStats(0, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 0, 0)


class Recorder:
    """Installs the wrapper table and keeps the spans in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self.enabled = False
        self._window_start = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[tuple[str, array]] = []

    # -- installation -------------------------------------------------

    def _name_id(self, layer: str, name: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        return len(self.names) - 1

    def install(self) -> None:
        """Replace every callable in :data:`WRAPPERS` with a traced one."""
        for layer, name, module_name, owner_name, attr, *option in WRAPPERS:
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            original = getattr(owner, attr)
            name_id = self._name_id(layer, name)
            mode = option[0] if option else None
            if isinstance(mode, str):
                traced = self._hook_wrapper(original, name_id, int(mode.removeprefix("hook:")))
            else:
                traced = self.wrap(original, name_id, probe=mode)
            setattr(owner, attr, traced)

    def start(self) -> None:
        """Open a recording window."""
        self._window_start = perf_counter_ns()
        self.enabled = True

    def stop(self) -> tuple[int, int]:
        """Close the recording window; returns it for :meth:`stats`."""
        self.enabled = False
        return self._window_start, perf_counter_ns()

    def span(self, layer: str, name: str):
        """Decorator giving the benchmark's own functions (its HTTP
        client, its load generator) a span, so their CPU is accounted."""
        name_id = self._name_id(layer, name)
        return lambda fn: self.wrap(fn, name_id)

    def _thread_state(self) -> tuple[array, list[int]]:
        buffer = array("q")
        state = (buffer, [])
        self._local.state = state
        with self._lock:
            self._buffers.append((threading.current_thread().name, buffer))
        return state

    def wrap(self, fn, name_id: int, probe=None):
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            try:
                buffer, stack = local.state
            except AttributeError:
                buffer, stack = self._thread_state()
            row = len(buffer)
            buffer.extend(
                (name_id, stack[-1] if stack else -1, perf_counter_ns(), 0, thread_time_ns(), 0)
            )
            stack.append(row // _WIDTH)
            try:
                result = fn(*args, **kwargs)
                if probe is not None:
                    buffer[row + VALUE] = probe(args, result)
                return result
            finally:
                cpu_end = thread_time_ns()
                buffer[row + END] = perf_counter_ns()
                buffer[row + CPU] = cpu_end - buffer[row + CPU]
                stack.pop()

        return traced

    def _hook_wrapper(self, register, name_id: int, position: int):
        @functools.wraps(register)
        def traced_register(*args, **kwargs):
            args = list(args)
            args[position] = self.wrap(args[position], name_id)
            return register(*args, **kwargs)

        return traced_register

    # -- analysis -----------------------------------------------------

    def tables(self) -> list[tuple[str, np.ndarray]]:
        """(thread name, spans x 6 int64 array) per thread that recorded."""
        with self._lock:
            buffers = list(self._buffers)
        return [
            (thread, np.frombuffer(buffer, dtype=np.int64).reshape(-1, _WIDTH).copy())
            for thread, buffer in buffers
            if len(buffer)
        ]

    def stats(
        self, window: tuple[int, int] | None = None, threads=None, roots_only: bool = False
    ) -> dict[str, SpanStats]:
        """Per-name aggregates over finished spans.

        ``window`` keeps spans that started inside one recording window
        (as returned by :meth:`stop`); ``threads`` is a predicate on
        the recording thread's name; ``roots_only`` keeps only spans no
        other span caused (a writer flush's ``insert_batch``, not the
        rollup engine's).
        """
        parts: dict[int, list[tuple]] = {}
        for thread, table in self.tables():
            if threads is not None and not threads(thread):
                continue
            done = table[:, END] > 0
            cpu = np.where(done, table[:, CPU], 0)
            child_cpu = np.zeros(len(table), dtype=np.int64)
            has_parent = table[:, PARENT] >= 0
            np.add.at(child_cpu, table[has_parent, PARENT], cpu[has_parent])
            keep = done & ~has_parent if roots_only else done
            if window is not None:
                keep = keep & (table[:, START] >= window[0]) & (table[:, START] <= window[1])
            for name_id in np.unique(table[keep, NAME]):
                rows = keep & (table[:, NAME] == name_id)
                parts.setdefault(int(name_id), []).append(
                    (
                        table[rows, END] - table[rows, START],
                        table[rows, VALUE],
                        int(cpu[rows].sum()),
                        int((cpu[rows] - child_cpu[rows]).sum()),
                    )
                )
        return {
            self.names[name_id]: SpanStats(
                count=sum(len(c[0]) for c in chunks),
                wall_ns=np.concatenate([c[0] for c in chunks]),
                values=np.concatenate([c[1] for c in chunks]),
                cpu_ns=sum(c[2] for c in chunks),
                self_cpu_ns=sum(c[3] for c in chunks),
            )
            for name_id, chunks in parts.items()
        }

    def layer_self_cpu_ns(self, stats: dict[str, SpanStats]) -> dict[str, int]:
        """Self CPU summed per layer, layers in wrapper-table order."""
        out: dict[str, int] = {}
        for name, layer in zip(self.names, self.layers):
            out[layer] = out.get(layer, 0) + stats.get(name, _EMPTY_STATS).self_cpu_ns
        return out

    def save(self, path: str) -> None:
        """Write the raw spans: one ``.npz`` with the name/layer tables
        and one (spans x 6) int64 array per thread."""
        arrays = {
            "names": np.array(self.names),
            "layers": np.array(self.layers),
            "columns": np.array(["name", "parent", "start_ns", "end_ns", "cpu_ns", "value"]),
        }
        for index, (thread, table) in enumerate(self.tables()):
            arrays[f"thread{index:03d}:{thread}"] = table
        np.savez_compressed(path, **arrays)


def budget(
    recorder: Recorder, process_cpu_s: float, units: int, window: tuple[int, int] | None = None
) -> tuple[list[tuple[str, float]], float]:
    """The layer budget of the traced windows (or of one of them).

    Returns ``([(layer, self CPU microseconds per unit)...], coverage)``
    where a unit is a reading or a query and coverage is the share (in
    percent) of ``process_cpu_s`` — the process CPU of the same windows
    — that the wrapped layers account for; the rest ran outside every
    wrapper.
    """
    per_layer = recorder.layer_self_cpu_ns(recorder.stats(window))
    rows = [(layer, ns / 1e3 / max(units, 1)) for layer, ns in per_layer.items()]
    coverage = 100.0 * sum(per_layer.values()) / 1e9 / process_cpu_s if process_cpu_s else 0.0
    return rows, coverage


def stat(stats: dict[str, SpanStats], name: str) -> SpanStats:
    return stats.get(name, _EMPTY_STATS)
