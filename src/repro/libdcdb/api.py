"""DCDBClient: the user-facing data-access API.

The entry point for everything downstream of storage — command-line
tools, the Grafana data source, analysis scripts.  Responsibilities:

* resolving sensor topics to storage SIDs through the persisted
  mapping the Collect Agent writes (``sidmap<topic>`` metadata keys);
* sensor configuration (unit, scaling factor, integrability — the
  properties the ``config`` tool manages, paper section 5.2);
* raw and physical-valued time-range queries;
* hierarchy navigation (the drill-down the Grafana plugin exposes,
  paper section 5.4);
* virtual sensors: definitions are persisted in storage metadata,
  evaluated lazily on query, and their results written back for reuse
  (paper section 3.2).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.common.errors import QueryError
from repro.common.units import get_converter
from repro.core.sid import SensorId
from repro.libdcdb.interpolation import regular_grid, resample_linear
from repro.libdcdb.virtualsensors import (
    BinOp,
    Evaluator,
    Neg,
    SensorRef,
    VirtualSensorDef,
    parse_expression,
    referenced_sensors,
)
from repro.observability import MetricsRegistry
from repro.storage.backend import ReadingBatch, StorageBackend
from repro.storage.rollup import (
    FIELDS,
    ROLLUP_TIERS,
    aggregate_buckets,
    coverage_key,
    reduce_rows,
    rollup_sid,
)

_SIDMAP_PREFIX = "sidmap"
_SENSORCFG_PREFIX = "sensorconfig"
_VSENSOR_PREFIX = "virtualsensor/"
_VCACHE_PREFIX = "vcache/"

#: Aggregations the tier-aware planner serves.  All are derived from
#: the four decomposable rollup statistics (avg = sum / count).
AGGREGATIONS = ("avg", "min", "max", "sum", "count")


@dataclass(frozen=True, slots=True)
class AggregatePlan:
    """How one aggregate query will be served.

    ``tier_index`` is None for a raw scan; otherwise the tier serves
    the complete output buckets in ``[head_end, tail_start)`` and raw
    readings fill the window-clipped head (``[start, head_end)``) and
    the unsealed/partial tail (``[tail_start, end]``).  ``bucket_ns``
    is the output bucket width — a multiple of the tier's bucket, so
    tier rows regroup exactly onto the output grid.
    """

    topic: str
    tier_index: int | None
    tier_label: str
    bucket_ns: int
    head_end: int = 0
    tail_start: int = 0


@dataclass(slots=True)
class SensorConfig:
    """Interpretive properties of a stored sensor.

    ``scale`` maps stored integers to physical values
    (physical = stored / scale); ``unit`` names the physical unit.
    """

    topic: str
    unit: str = "count"
    scale: float = 1.0
    integrable: bool = False
    ttl_s: int = 0
    attributes: dict[str, str] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "topic": self.topic,
                "unit": self.unit,
                "scale": self.scale,
                "integrable": self.integrable,
                "ttl_s": self.ttl_s,
                "attributes": self.attributes,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "SensorConfig":
        raw = json.loads(text)
        return cls(
            topic=raw["topic"],
            unit=raw.get("unit", "count"),
            scale=float(raw.get("scale", 1.0)),
            integrable=bool(raw.get("integrable", False)),
            ttl_s=int(raw.get("ttl_s", 0)),
            attributes=raw.get("attributes", {}),
        )


class DCDBClient:
    """High-level query interface over a :class:`StorageBackend`.

    Every read goes to the backend, so it always reflects the store:
    the store's memtable and block cache are the only caches of
    readings.  Many-topic reads travel in one batched ``query_many``.
    """

    def __init__(self, backend: StorageBackend, metrics: MetricsRegistry | None = None) -> None:
        self.backend = backend
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._sid_cache: dict[str, SensorId] = {}
        self._query_latency = self.metrics.histogram(
            "dcdb_libdcdb_query_seconds", "libDCDB-layer query latency", ("op",)
        )
        self._tier_selected = self.metrics.counter(
            "dcdb_rollup_tier_selected_total",
            "Aggregate queries by the rollup tier that served them (raw = fallback)",
            ("tier",),
        )

    # -- topic resolution ---------------------------------------------------

    def sid_of(self, topic: str) -> SensorId:
        """Resolve ``topic`` to its SID via the persisted mapping."""
        sid = self._sid_cache.get(topic)
        if sid is None:
            text = self.backend.get_metadata(f"{_SIDMAP_PREFIX}{topic}")
            if text is None:
                raise QueryError(f"unknown sensor topic {topic!r}")
            sid = SensorId.from_hex(text)
            self._sid_cache[topic] = sid
        return sid

    def register_topic(self, topic: str, sid: SensorId) -> None:
        """Persist a topic->SID mapping (importers, virtual sensors)."""
        self.backend.put_metadata(f"{_SIDMAP_PREFIX}{topic}", sid.hex())
        self._sid_cache[topic] = sid

    def topics(self, prefix: str = "") -> list[str]:
        """All known sensor topics, optionally below a prefix."""
        keys = self.backend.metadata_keys(f"{_SIDMAP_PREFIX}{prefix}")
        return [k[len(_SIDMAP_PREFIX) :] for k in keys]

    def hierarchy_children(self, prefix: str = "") -> list[str]:
        """Distinct next-level names under ``prefix`` (Grafana drill-down).

        ``prefix`` of ``"/hpc/rack0"`` returns e.g. ``["chassis0",
        "chassis1"]``; leaf sensors appear as their final component.
        """
        base = prefix.rstrip("/")
        depth = len([p for p in base.split("/") if p])
        children: set[str] = set()
        for topic in self.topics(base + "/" if base else "/"):
            parts = [p for p in topic.split("/") if p]
            if len(parts) > depth:
                children.add(parts[depth])
        return sorted(children)

    # -- sensor configuration --------------------------------------------------

    def set_sensor_config(self, config: SensorConfig) -> None:
        self.backend.put_metadata(f"{_SENSORCFG_PREFIX}{config.topic}", config.to_json())

    def sensor_config(self, topic: str) -> SensorConfig:
        """Stored configuration of ``topic`` (defaults when absent)."""
        text = self.backend.get_metadata(f"{_SENSORCFG_PREFIX}{topic}")
        if text is None:
            return SensorConfig(topic=topic)
        return SensorConfig.from_json(text)

    # -- queries ---------------------------------------------------------------

    def query_raw(self, topic: str, start: int, end: int) -> tuple[np.ndarray, np.ndarray]:
        """Stored integer readings of a concrete sensor: the one-topic
        :meth:`query_raw_many`."""
        return self.query_raw_many([topic], start, end)[topic]

    def query_raw_many(
        self, topics, start: int, end: int
    ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Stored integer readings of concrete sensors: every topic in
        one :meth:`~repro.storage.backend.StorageBackend.query_many`
        call, which the cluster backend splits into one read per node.
        Raises :class:`QueryError` on the first unknown topic.
        """
        started = perf_counter()
        sids = {topic: self.sid_of(topic) for topic in topics}
        fetched = self.backend.query_many(list(sids.values()), start, end)
        self._query_latency.labels(op="query_raw_many").observe(perf_counter() - started)
        return {topic: fetched[sid] for topic, sid in sids.items()}

    def prefetch_raw(self, topics, start: int, end: int) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """The stored series of every concrete, known topic among
        ``topics`` in one :meth:`query_raw_many` read.

        Unknown and virtual topics are skipped silently (virtual
        sensors are evaluated, not fetched).
        """
        concrete: list[str] = []
        for topic in dict.fromkeys(topics):
            if self._virtual_def_for(topic) is not None:
                continue
            try:
                self.sid_of(topic)
            except QueryError:
                continue
            concrete.append(topic)
        return self.query_raw_many(concrete, start, end) if concrete else {}

    def query(
        self,
        topic: str,
        start: int,
        end: int,
        unit: str | None = None,
        aggregation: str | None = None,
        max_points: int = 1000,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Physical-valued series of a sensor or virtual sensor.

        Decodes stored integers via the sensor's scaling factor and
        optionally converts into ``unit``.  Virtual sensors (topics
        under ``/virtual/`` or names with a stored definition) are
        evaluated lazily with result write-back.

        With ``aggregation`` set (one of :data:`AGGREGATIONS`), the
        query is routed through the tier-aware planner instead: it
        returns at most ~``max_points`` bucketed aggregates, served
        from the coarsest rollup tier that satisfies the resolution
        and falling back to raw for uncovered spans (see
        :meth:`query_aggregate_many`).
        """
        if aggregation is not None:
            return self.query_aggregate(
                topic, start, end, aggregation, max_points, unit
            )
        started = perf_counter()
        vdef = self._virtual_def_for(topic)
        if vdef is not None:
            result = self._query_virtual(vdef, start, end, unit)
        else:
            config = self.sensor_config(topic)
            timestamps, raw = self.query_raw_many([topic], start, end)[topic]
            result = timestamps, _physical(raw, config.scale, config.unit, unit)
        self._query_latency.labels(op="query").observe(perf_counter() - started)
        return result

    # -- tier-aware aggregate planner -----------------------------------------

    def plan_aggregate(
        self, topic: str, start: int, end: int, max_points: int = 1000
    ) -> AggregatePlan:
        """Decide how an aggregate query over ``[start, end]`` is served.

        Picks the *coarsest* rollup tier whose bucket still satisfies
        the requested resolution (``desired = ceil(window / max_points)``
        with the inclusive window ``end - start + 1``)
        and whose persisted coverage reaches the window; the sealed
        middle is then read from 4 rollup series instead of the raw
        scan.  Falls back to a raw plan when the window needs finer
        buckets than the finest tier, the topic is virtual, or no tier
        has usable coverage (sensor predates the engine, all 8 SID
        levels in use, unsealed span only).
        """
        if max_points < 1:
            raise QueryError("max_points must be >= 1")
        # Query ranges are inclusive of both ends, and the bucket width
        # rounds UP so the output bucket count never exceeds max_points.
        window = end - start + 1
        raw_plan = AggregatePlan(
            topic=topic,
            tier_index=None,
            tier_label="raw",
            bucket_ns=max(1, -(-window // max_points)),
        )
        if window <= 0 or self._virtual_def_for(topic) is not None:
            return raw_plan
        sid = self.sid_of(topic)
        desired = -(-window // max_points)
        qend = end + 1
        for tier_index in range(len(ROLLUP_TIERS) - 1, -1, -1):
            tier = ROLLUP_TIERS[tier_index]
            if tier.bucket_ns > desired:
                continue
            text = self.backend.get_metadata(coverage_key(sid, tier.label))
            if not text:
                continue
            try:
                doc = json.loads(text)
                cov_lo, cov_hi = int(doc["lo"]), int(doc["hi"])
            except (ValueError, KeyError, TypeError):
                continue
            # Output buckets are a multiple of the tier bucket, so tier
            # rows regroup onto the output grid without splitting.
            bucket_ns = (
                (desired + tier.bucket_ns - 1) // tier.bucket_ns
            ) * tier.bucket_ns
            head_end = -(-start // bucket_ns) * bucket_ns
            tail_start = min(
                (qend // bucket_ns) * bucket_ns,
                (cov_hi // bucket_ns) * bucket_ns,
            )
            # Usable iff the tier covers every complete output bucket
            # from head_end on: the window-clipped head and the
            # unsealed (or uncovered) tail stay raw.
            if cov_lo <= head_end and tail_start > head_end:
                return AggregatePlan(
                    topic=topic,
                    tier_index=tier_index,
                    tier_label=tier.label,
                    bucket_ns=bucket_ns,
                    head_end=head_end,
                    tail_start=tail_start,
                )
        return raw_plan

    def query_aggregate(
        self,
        topic: str,
        start: int,
        end: int,
        aggregation: str = "avg",
        max_points: int = 1000,
        unit: str | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Bucketed aggregate series of ``topic`` over ``[start, end]``:
        the one-topic :meth:`query_aggregate_many`."""
        return self.query_aggregate_many(
            [topic], start, end, aggregation, max_points, unit
        )[topic]

    def query_aggregate_many(
        self,
        topics,
        start: int,
        end: int,
        aggregation: str = "avg",
        max_points: int = 1000,
        unit: str | None = None,
    ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Bucketed aggregate series of every topic over ``[start, end]``.

        Each result is ``(bucket_start_timestamps, values)`` with at
        most ~``max_points`` buckets on the absolute ``ts // bucket_ns``
        grid (empty buckets omitted), converted into ``unit`` when one
        is given.  A topic is served from a rollup tier when
        :meth:`plan_aggregate` finds one — dashboard-scale windows read
        hundreds of pre-aggregated rows instead of millions of raw ones
        — and otherwise from a raw scan.  Either path runs the
        identical aggregation arithmetic on the identical stored
        integers, so results are bit-identical regardless of the tier
        chosen.

        Topics sharing plan geometry (same tier, bucket and head/tail
        split — the common case for a dashboard of co-sampled sensors)
        have their rollup middles fetched in one ``query_many`` call;
        raw-planned topics share one bulk raw read.  Virtual topics
        are evaluated one by one and bucketed from their series.
        """
        if aggregation not in AGGREGATIONS:
            raise QueryError(
                f"unknown aggregation {aggregation!r}; expected one of {AGGREGATIONS}"
            )
        started = perf_counter()
        unique = list(dict.fromkeys(topics))
        out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        plans: dict[str, AggregatePlan] = {}
        raw_topics: list[str] = []
        for topic in unique:
            plan = plans[topic] = self.plan_aggregate(topic, start, end, max_points)
            if plan.tier_index is not None:
                continue
            vdef = self._virtual_def_for(topic)
            if vdef is None:
                raw_topics.append(topic)
                continue
            # Virtual series are already physical-valued (and unit
            # converted); bucket the floats directly.
            timestamps, values = self._query_virtual(vdef, start, end, unit)
            stats = aggregate_buckets(timestamps, values, plan.bucket_ns)
            out[topic] = self._decode_stats(None, aggregation, stats, None)
        if raw_topics:
            raw = self.query_raw_many(raw_topics, start, end)
            for topic in raw_topics:
                stats = aggregate_buckets(*raw[topic], plans[topic].bucket_ns)
                out[topic] = self._decode_stats(
                    self.sensor_config(topic), aggregation, stats, unit
                )
        groups: dict[tuple[int, int, int, int], list[str]] = {}
        for topic, plan in plans.items():
            if plan.tier_index is not None:
                key = (plan.tier_index, plan.bucket_ns, plan.head_end, plan.tail_start)
                groups.setdefault(key, []).append(topic)
        for (tier_index, _bucket_ns, head_end, tail_start), group in groups.items():
            fsids_by_topic = {
                topic: self._field_sids(topic, tier_index) for topic in group
            }
            flat = [fsid for fsids in fsids_by_topic.values() for fsid in fsids]
            fetched = self.backend.query_many(flat, head_end, tail_start - 1)
            heads = (
                self.query_raw_many(group, start, head_end - 1)
                if start < head_end
                else {}
            )
            tails = (
                self.query_raw_many(group, tail_start, end)
                if tail_start <= end
                else {}
            )
            for topic in group:
                field_rows = [fetched[fsid] for fsid in fsids_by_topic[topic]]
                stats = self._assemble_tier_stats(
                    plans[topic], field_rows, heads.get(topic), tails.get(topic)
                )
                out[topic] = self._decode_stats(
                    self.sensor_config(topic), aggregation, stats, unit
                )
        for plan in plans.values():
            self._tier_selected.labels(tier=plan.tier_label).inc()
        self._query_latency.labels(op="query_aggregate_many").observe(
            perf_counter() - started
        )
        return {topic: out[topic] for topic in unique}

    def delete_before(self, topic: str, cutoff: int) -> int:
        """Delete readings of ``topic`` strictly older than ``cutoff``.

        Routes through the backend's vectorized ``delete_before``.
        Returns the number of readings removed.
        """
        return int(self.backend.delete_before(self.sid_of(topic), cutoff))

    def _field_sids(self, topic: str, tier_index: int) -> list[SensorId]:
        sid = self.sid_of(topic)
        fsids = [
            rollup_sid(sid, tier_index, field_index)
            for field_index in range(len(FIELDS))
        ]
        if any(fsid is None for fsid in fsids):
            # Unreachable in practice: a coverage doc only exists when
            # the engine had a spare level to derive rollup SIDs from.
            raise QueryError(f"sensor {topic!r} cannot carry rollup series")
        return fsids  # type: ignore[return-value]

    @staticmethod
    def _assemble_tier_stats(plan: AggregatePlan, field_rows, head, tail):
        """Concatenate head (raw), middle (tier rows) and tail (raw) stats.

        The three regions are disjoint and increasing on the output
        bucket grid — the head ends where the first complete bucket
        begins and the tail starts on a bucket boundary — so per-bucket
        statistics concatenate without merging.  ``field_rows`` holds
        the four (timestamps, values) tier series in ``FIELDS`` order;
        all four are written in one batch, so their grids match.
        """
        parts = []
        if head is not None and head[0].size:
            parts.append(aggregate_buckets(head[0], head[1], plan.bucket_ns))
        ufuncs = (np.minimum, np.maximum, np.add, np.add)
        reduced = [
            reduce_rows(timestamps, values, plan.bucket_ns, ufunc)
            for (timestamps, values), ufunc in zip(field_rows, ufuncs)
        ]
        starts = reduced[0][0]
        if starts.size:
            parts.append(
                (starts, reduced[0][1], reduced[1][1], reduced[2][1], reduced[3][1])
            )
        if tail is not None and tail[0].size:
            parts.append(aggregate_buckets(tail[0], tail[1], plan.bucket_ns))
        if not parts:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty, empty, empty
        if len(parts) == 1:
            return parts[0]
        return tuple(np.concatenate(columns) for columns in zip(*parts))

    @staticmethod
    def _decode_stats(
        config: SensorConfig | None,
        aggregation: str,
        stats,
        unit: str | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Derive the requested aggregation and decode to physical values.

        ``count`` is returned unscaled (it counts readings, not a
        physical quantity).  ``config=None`` skips decoding (virtual
        series are already physical).

        Unit conversion is affine (``out = scale * in + offset``) and
        must commute with the aggregation, not be applied to its
        result: a per-bucket ``sum`` picks up the offset once per
        reading (``scale * sum + offset * count``), and an
        order-reversing (negative-scale) conversion swaps which stored
        statistic is the converted minimum/maximum.  ``avg`` is a
        plain per-reading mean, so the bare affine transform is exact
        for it.
        """
        starts, mins, maxs, sums, counts = stats
        if aggregation == "count":
            return starts, counts.astype(np.float64)
        converter = None
        if config is not None and unit is not None and unit != config.unit:
            converter = get_converter(config.unit, unit)
        reversing = converter is not None and converter._scale < 0
        if aggregation == "avg":
            values = sums.astype(np.float64) / counts.astype(np.float64)
        elif aggregation == "min":
            values = (maxs if reversing else mins).astype(np.float64)
        elif aggregation == "max":
            values = (mins if reversing else maxs).astype(np.float64)
        else:  # sum
            values = sums.astype(np.float64)
        if config is None:
            return starts, values
        if config.scale != 1.0:
            values = values / config.scale
        if converter is not None:
            if aggregation == "sum":
                values = converter._scale * values + converter._offset * counts.astype(
                    np.float64
                )
            else:
                values = converter._scale * values + converter._offset
        return starts, values

    # -- virtual sensors -----------------------------------------------------------

    def define_virtual_sensor(self, vdef: VirtualSensorDef) -> None:
        """Validate and persist a virtual-sensor definition."""
        node = parse_expression(vdef.expression)  # syntax check
        if vdef.name in {
            ref.split("/")[-1] for ref in referenced_sensors(node)
        } or f"/virtual/{vdef.name}" in referenced_sensors(node):
            raise QueryError(f"virtual sensor {vdef.name!r} references itself")
        self._check_cycles(vdef.name, vdef.expression)
        self.backend.put_metadata(f"{_VSENSOR_PREFIX}{vdef.name}", vdef.to_json())

    def _check_cycles(self, name: str, expression: str) -> None:
        """Reject definitions whose reference chain loops back."""
        seen = {name}
        frontier = [expression]
        while frontier:
            expr = frontier.pop()
            for ref in referenced_sensors(parse_expression(expr)):
                child = self._virtual_def_for(ref)
                if child is None:
                    continue
                if child.name in seen:
                    raise QueryError(
                        f"virtual sensor cycle involving {child.name!r}"
                    )
                seen.add(child.name)
                frontier.append(child.expression)

    def virtual_sensor(self, name: str) -> VirtualSensorDef | None:
        text = self.backend.get_metadata(f"{_VSENSOR_PREFIX}{name}")
        return VirtualSensorDef.from_json(text) if text else None

    def virtual_sensors(self) -> list[VirtualSensorDef]:
        defs = []
        for key in self.backend.metadata_keys(_VSENSOR_PREFIX):
            text = self.backend.get_metadata(key)
            if text:
                defs.append(VirtualSensorDef.from_json(text))
        return defs

    def delete_virtual_sensor(self, name: str) -> None:
        self.backend.delete_metadata(f"{_VSENSOR_PREFIX}{name}")
        self.backend.delete_metadata(f"{_VCACHE_PREFIX}{name}")

    def _virtual_def_for(self, topic: str) -> VirtualSensorDef | None:
        if topic.startswith("/virtual/"):
            return self.virtual_sensor(topic[len("/virtual/") :])
        return self.virtual_sensor(topic)

    def _query_virtual(
        self, vdef: VirtualSensorDef, start: int, end: int, unit: str | None
    ) -> tuple[np.ndarray, np.ndarray]:
        cached = self._cached_intervals(vdef.name)
        if not _covers(cached, start, end):
            self._evaluate_and_store(vdef, start, end)
        sid = self._virtual_sid(vdef)
        timestamps, raw = self.backend.query_many([sid], start, end)[sid]
        return timestamps, _physical(raw, vdef.scale, vdef.unit, unit)

    def evaluate_virtual(
        self, name: str, start: int, end: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Force evaluation of a virtual sensor (bypassing the cache)."""
        vdef = self.virtual_sensor(name)
        if vdef is None:
            raise QueryError(f"unknown virtual sensor {name!r}")
        return self._evaluate(vdef, start, end)

    def _evaluate(
        self, vdef: VirtualSensorDef, start: int, end: int, stack: frozenset[str] = frozenset()
    ) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate ``vdef`` with a resolver of its own; ``stack`` names
        the virtual sensors whose evaluation this one is nested in."""
        node = parse_expression(vdef.expression)
        # Every concrete operand series travels in one batched read up
        # front; aggregation prefixes batch inside series_many.
        raw = self.prefetch_raw(_sensor_refs(node), start, end)
        evaluator = Evaluator(_Resolver(self, raw, stack))
        timestamps, values, _unit = evaluator.evaluate(node, start, end)
        # Resample onto the definition's regular grid, clipped to the
        # span where real data exists (no extrapolated tails).
        grid = regular_grid(start, end, vdef.interval_ns)
        grid = grid[(grid >= timestamps[0]) & (grid <= timestamps[-1])]
        if grid.size == 0:
            return np.empty(0, dtype=np.int64), np.empty(0)
        return grid, resample_linear(timestamps, values, grid)

    def _evaluate_and_store(self, vdef: VirtualSensorDef, start: int, end: int) -> None:
        grid, values = self._evaluate(vdef, start, end)
        sid = self._virtual_sid(vdef)
        if grid.size:
            scaled = np.rint(values * vdef.scale).astype(np.int64)
            self.backend.insert_batch(ReadingBatch.of(sid, grid, scaled))
        intervals = self._cached_intervals(vdef.name)
        intervals = _merge_intervals(intervals + [(start, end)])
        self.backend.put_metadata(
            f"{_VCACHE_PREFIX}{vdef.name}", json.dumps(intervals)
        )

    def _virtual_sid(self, vdef: VirtualSensorDef) -> SensorId:
        topic = vdef.topic
        sid = self._sid_cache.get(topic)
        if sid is not None:
            return sid
        text = self.backend.get_metadata(f"{_SIDMAP_PREFIX}{topic}")
        if text is not None:
            sid = SensorId.from_hex(text)
        else:
            # Allocate a SID in the reserved /virtual subtree: level 0
            # is the fixed virtual-space marker, deeper levels hash the
            # name (collision-checked against existing mappings).
            base = 0xFFFF
            digest = abs(hash(vdef.name))
            codes = [base, (digest & 0x7FFF) + 1, ((digest >> 15) & 0x7FFF) + 1]
            sid = SensorId.from_codes(codes)
            taken = {
                v
                for k in self.backend.metadata_keys(f"{_SIDMAP_PREFIX}/virtual/")
                if (v := self.backend.get_metadata(k)) is not None
            }
            while sid.hex() in taken:
                codes[2] = codes[2] % 0x7FFF + 1
                sid = SensorId.from_codes(codes)
            self.backend.put_metadata(f"{_SIDMAP_PREFIX}{topic}", sid.hex())
        self._sid_cache[topic] = sid
        return sid

    def _cached_intervals(self, name: str) -> list[tuple[int, int]]:
        text = self.backend.get_metadata(f"{_VCACHE_PREFIX}{name}")
        if not text:
            return []
        return [(int(a), int(b)) for a, b in json.loads(text)]

    # -- convenience -------------------------------------------------------------

    def latest(self, topic: str) -> tuple[int, float] | None:
        """Most recent (timestamp, physical value) of a sensor."""
        config = self.sensor_config(topic)
        result = self.backend.latest(self.sid_of(topic))
        if result is None:
            return None
        timestamp, raw = result
        return timestamp, raw / config.scale


class _Resolver:
    """Adapter giving the expression evaluator access to the client,
    built for one evaluation: ``raw`` holds the concrete operands that
    evaluation read up front, ``stack`` the virtual sensors it is
    nested in (a cycle check that concurrent evaluations do not share).
    """

    def __init__(
        self,
        client: DCDBClient,
        raw: dict[str, tuple[np.ndarray, np.ndarray]] | None = None,
        stack: frozenset[str] = frozenset(),
    ) -> None:
        self.client = client
        self.raw = raw if raw is not None else {}
        self.stack = stack

    def series(self, topic: str, start: int, end: int):
        vdef = self.client._virtual_def_for(topic)
        if vdef is not None:
            if vdef.name in self.stack:
                raise QueryError(f"virtual sensor cycle at {vdef.name!r}")
            timestamps, values = self.client._evaluate(vdef, start, end, self.stack | {vdef.name})
            return timestamps, values, vdef.unit
        config = self.client.sensor_config(topic)
        raw = self.raw.get(topic)
        if raw is None:
            raw = self.client.query_raw_many([topic], start, end)[topic]
        timestamps, stored = raw
        return timestamps, _physical(stored, config.scale, config.unit), config.unit

    def series_many(self, topics, start: int, end: int, max_points: int | None = None):
        """Batched :meth:`series`: concrete topics in one bulk read.

        Returns ``{topic: (timestamps, values, unit)}``.  Virtual
        topics fall back to per-topic :meth:`series` (each evaluation
        batches its own operands); concrete topics travel in a single
        ``query_raw_many`` and are decoded exactly like
        :meth:`DCDBClient.query` would, so results are bit-identical
        to the per-topic path.  With ``max_points`` set, concrete
        topics are served as ~``max_points`` per-bucket averages
        through the tier-aware planner instead of at raw resolution.
        """
        out: dict[str, tuple] = {}
        concrete: list[str] = []
        for topic in topics:
            if topic in out or topic in concrete:
                continue
            if self.client._virtual_def_for(topic) is not None:
                out[topic] = self.series(topic, start, end)
            else:
                concrete.append(topic)
        if concrete and max_points is not None:
            bucketed = self.client.query_aggregate_many(
                concrete, start, end, "avg", max_points
            )
            for topic in concrete:
                config = self.client.sensor_config(topic)
                timestamps, values = bucketed[topic]
                out[topic] = (timestamps, values, config.unit)
        elif concrete:
            raw = self.client.query_raw_many(concrete, start, end)
            for topic in concrete:
                config = self.client.sensor_config(topic)
                timestamps, stored = raw[topic]
                out[topic] = (timestamps, _physical(stored, config.scale, config.unit), config.unit)
        return out

    def subtree_topics(self, prefix: str) -> list[str]:
        normalized = prefix if prefix.startswith("/") else "/" + prefix
        return self.client.topics(normalized)


def _physical(
    stored: np.ndarray, scale: float, stored_unit: str, unit: str | None = None
) -> np.ndarray:
    """Stored integers as physical values (physical = stored / scale),
    converted from ``stored_unit`` into ``unit`` when one is given."""
    values = stored.astype(np.float64)
    if scale != 1.0:
        values = values / scale
    if unit is not None and unit != stored_unit:
        converter = get_converter(stored_unit, unit)
        values = converter._scale * values + converter._offset
    return values


def _sensor_refs(node) -> list[str]:
    """Concrete ``<topic>`` operands of an expression, in eval order.

    Aggregation prefixes are excluded — their expansion happens inside
    the evaluator, which batches them through ``series_many``.
    """
    if isinstance(node, SensorRef):
        return [node.topic]
    if isinstance(node, Neg):
        return _sensor_refs(node.operand)
    if isinstance(node, BinOp):
        return _sensor_refs(node.left) + _sensor_refs(node.right)
    return []


def _merge_intervals(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Coalesce overlapping/adjacent [start, end] intervals."""
    if not intervals:
        return []
    ordered = sorted(intervals)
    merged = [list(ordered[0])]
    for start, end in ordered[1:]:
        if start <= merged[-1][1] + 1:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(a, b) for a, b in merged]


def _covers(intervals: list[tuple[int, int]], start: int, end: int) -> bool:
    """True if one cached interval fully contains [start, end]."""
    return any(a <= start and end <= b for a, b in intervals)
