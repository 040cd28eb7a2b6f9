"""Rollup tiers: continuous aggregation of raw series at ingest.

The paper's storage design (section 4.3) assumes query cost bounded by
the *requested* resolution, not the ingest rate — a dashboard plotting
a month of data must not re-scan a month of raw readings on every
refresh.  This module maintains pre-aggregated **rollup tiers** per
sensor (10 s / 1 m / 1 h buckets by default), each carrying the four
decomposable statistics min / max / sum / count, from which every
aggregation libDCDB serves (including avg = sum/count) is exactly
reconstructible.

Rollup series are *ordinary* series: each (tier, field) pair is stored
under a SID derived from the raw sensor's SID by setting the deepest
(8th) hierarchy level to a reserved code.  Because the rollup SID
shares the raw SID's prefix, the hierarchical partitioner co-locates a
sensor's rollups with its raw data, and replication, hinted handoff,
segment pruning and ``delete_before`` all apply unchanged — the engine
needs no storage-layer support beyond ``insert_batch``.

Sealing follows the same rule as the streaming
:class:`~repro.analytics.operators.Aggregator`: a bucket is complete
once a reading with a *later* timestamp arrives (sensors are
synchronized in DCDB).  Buckets seal **from running aggregates**: the
engine keeps, per sensor and tier, the min/max/sum/count of the open
bucket in columnar state, folds each observed batch into the finest
tier and every sealed bucket into the next coarser one (the four
statistics are decomposable), and writes everything that became due
with one ``insert_batch`` and one ``put_metadata_many`` per batch.
Rollup rows stay bit-identical to aggregating the last-write-wins raw
series because the running aggregates are used only while a sensor's
readings are strictly newer than everything seen for it; otherwise
the affected tiers are **read back** — recomputed from the raw series
the backend holds (the engine observes batches only after the backend
accepted them) and their open buckets re-seeded from the same read.
The read-back triggers: a reading at or below the newest one seen
(late below a watermark — the buckets from the one holding it are
re-sealed, LWW overwrite on re-insert — or a duplicate timestamp); the
first seal of each tier after the engine met the sensor (a restart
mid-bucket, history stored before the engine existed); a failed
rollup write; stored rows newer than any observed.  Per-sensor/
per-tier coverage windows are persisted as backend metadata, so the
query planner knows exactly which span a tier can serve and falls
back to raw outside it, and the engine resumes after a restart
without double-counting.

Retention (:class:`RetentionPolicy`) demotes raw data to its rollups
via the vectorized ``delete_before`` path: the effective cutoff is
clamped to the sealed watermark of the coarsest surviving tier, and
raw history *below* the coverage windows — data ingested before the
engine first saw the sensor, which is normally served from raw — is
backfilled into every tier first, so demotion can never drop readings
that have not yet been folded into every series that outlives them.
"""

from __future__ import annotations

import json
import logging
import threading
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from repro.common.timeutil import NS_PER_SEC, now_ns
from repro.core.sid import (
    SID_BITS_PER_LEVEL,
    SID_LEVELS,
    SID_RESERVED_DEEPEST_BASE,
    SensorId,
)
from repro.observability import MetricsRegistry
from repro.storage.backend import InsertItem, StorageBackend

logger = logging.getLogger(__name__)

__all__ = [
    "FIELDS",
    "ROLLUP_TIERS",
    "RetentionPolicy",
    "RollupConfig",
    "RollupEngine",
    "RollupTier",
    "aggregate_buckets",
    "coverage_key",
    "is_rollup_sid",
    "reduce_rows",
    "rollup_sid",
]


@dataclass(frozen=True, slots=True)
class RollupTier:
    """One rollup resolution: a label and its bucket width."""

    label: str
    bucket_ns: int


#: The built-in tier ladder.  Coarser buckets are exact multiples of
#: finer ones, so every tier boundary is aligned with every finer tier
#: and with the absolute ``timestamp // bucket_ns`` grid.
ROLLUP_TIERS: tuple[RollupTier, ...] = (
    RollupTier("10s", 10 * NS_PER_SEC),
    RollupTier("1m", 60 * NS_PER_SEC),
    RollupTier("1h", 3600 * NS_PER_SEC),
)

#: Statistics maintained per bucket.  All four are decomposable
#: (min of mins, sum of sums, ...), which is what lets the planner
#: merge tier rows into arbitrary coarser output buckets exactly.
FIELDS: tuple[str, ...] = ("min", "max", "sum", "count")

#: Rollup series occupy the deepest SID level with codes from this
#: base upward: code = _ROLLUP_BASE + tier_index * 16 + field_index.
#: The SID mappers never allocate deepest-level component codes in
#: this range, so a real sensor can never collide with (or be
#: misclassified as) a rollup series.  Sensors already using all 8
#: hierarchy levels have no room for a rollup suffix and simply stay
#: raw-only (the planner falls back).
_ROLLUP_BASE = SID_RESERVED_DEEPEST_BASE
_ROLLUP_LEVEL = SID_LEVELS - 1
_ROLLUP_SHIFT = SID_BITS_PER_LEVEL * (SID_LEVELS - 1 - _ROLLUP_LEVEL)

#: Metadata key prefix of the per-(sid, tier) coverage documents.
_COVERAGE_PREFIX = "rollupcov/"


def rollup_sid(sid: SensorId, tier_index: int, field_index: int) -> SensorId | None:
    """SID storing one (tier, field) rollup series of ``sid``.

    Returns None when the raw SID populates all 8 levels — there is no
    spare level to carve the reserved suffix from.
    """
    if sid.level_code(_ROLLUP_LEVEL) != 0:
        return None
    code = _ROLLUP_BASE + tier_index * 16 + field_index
    return SensorId(sid.value | (code << _ROLLUP_SHIFT))


def is_rollup_sid(sid: SensorId) -> bool:
    """True when ``sid`` is a derived rollup series, not a raw sensor."""
    return sid.level_code(_ROLLUP_LEVEL) >= _ROLLUP_BASE


def coverage_key(sid: SensorId, tier_label: str) -> str:
    """Metadata key of the (sid, tier) coverage document."""
    return f"{_COVERAGE_PREFIX}{tier_label}/{sid.hex()}"


def aggregate_buckets(
    timestamps: np.ndarray, values: np.ndarray, bucket_ns: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-bucket (start, min, max, sum, count) of a sorted series.

    Buckets follow the absolute ``timestamp // bucket_ns`` grid; empty
    buckets are omitted.  This is the single aggregation kernel shared
    by the ingest-side engine and the query planner's raw fallback, so
    tier-served and raw-computed aggregates are bit-identical by
    construction.
    """
    empty = np.empty(0, dtype=np.int64)
    if timestamps.size == 0:
        return empty, empty, empty, empty, empty
    buckets = timestamps // bucket_ns
    starts_idx = np.flatnonzero(np.diff(buckets)) + 1
    idx = np.concatenate((np.zeros(1, dtype=np.intp), starts_idx))
    mins = np.minimum.reduceat(values, idx)
    maxs = np.maximum.reduceat(values, idx)
    sums = np.add.reduceat(values, idx)
    counts = np.diff(np.concatenate((idx, [timestamps.size]))).astype(np.int64)
    starts = buckets[idx] * bucket_ns
    return starts, mins, maxs, sums, counts


def reduce_rows(
    timestamps: np.ndarray, values: np.ndarray, bucket_ns: int, ufunc
) -> tuple[np.ndarray, np.ndarray]:
    """Combine tier rows into coarser buckets with one decomposable ufunc.

    The planner's middle section: tier rows (bucket starts + one
    statistic) are regrouped onto the output-bucket grid — min of mins
    via ``np.minimum``, sum of sums / count of counts via ``np.add``.
    ``bucket_ns`` must be a multiple of the rows' native bucket width
    so no row straddles an output boundary.
    """
    if timestamps.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    buckets = timestamps // bucket_ns
    starts_idx = np.flatnonzero(np.diff(buckets)) + 1
    idx = np.concatenate((np.zeros(1, dtype=np.intp), starts_idx))
    return buckets[idx] * bucket_ns, ufunc.reduceat(values, idx)


@dataclass(frozen=True, slots=True)
class RetentionPolicy:
    """Age horizons of the demotion lifecycle (0 = keep forever).

    ``raw_horizon_s``
        raw readings older than this are deleted once the coarsest
        surviving tier has sealed past them.
    ``tier_horizons_s``
        per-tier horizons for the rollup series themselves (finest
        first); a tier's rows are only deleted up to the sealed
        watermark of the coarsest tier above it, so the demotion chain
        never drops data no surviving series still covers.
    """

    raw_horizon_s: int = 0
    tier_horizons_s: tuple[int, ...] = (0, 0, 0)

    def __post_init__(self) -> None:
        if self.raw_horizon_s < 0:
            raise ValueError("raw_horizon_s must be >= 0")
        if any(h < 0 for h in self.tier_horizons_s):
            raise ValueError("tier horizons must be >= 0")


@dataclass(frozen=True, slots=True)
class RollupConfig:
    """Tuning knobs of the continuous-aggregation engine.

    ``tiers``
        the rollup ladder (finest first; each coarser ``bucket_ns``
        must be an exact multiple of the finer one).
    ``ttl_s``
        TTL applied to rollup rows (0 = keep forever — rollups are the
        long-lived representation, raw data is what expires).
    ``retention``
        when set, :meth:`RollupEngine.observe` opportunistically runs
        the demotion lifecycle every ``retention_check_every_s``.
    """

    tiers: tuple[RollupTier, ...] = ROLLUP_TIERS
    ttl_s: int = 0
    retention: RetentionPolicy | None = None
    retention_check_every_s: int = 600

    def __post_init__(self) -> None:
        if not self.tiers:
            raise ValueError("at least one rollup tier is required")
        previous = 0
        for tier in self.tiers:
            if tier.bucket_ns <= 0:
                raise ValueError(f"tier {tier.label}: bucket_ns must be positive")
            if previous and tier.bucket_ns % previous != 0:
                raise ValueError(
                    f"tier {tier.label}: bucket must be a multiple of the finer tier"
                )
            previous = tier.bucket_ns
        if self.retention_check_every_s <= 0:
            raise ValueError("retention_check_every_s must be positive")


#: ``_redo_from`` of a sensor with nothing to recompute.
_NEVER = np.iinfo(np.int64).max
#: Upper bound of the read-back: everything stored, also rows newer
#: than any the engine has observed.
_FOREVER = 1 << 62
#: Sensors recomputed from raw per ``query_many`` (bounds the read).
_REDO_CHUNK = 256
#: Row of the per-tier open-bucket table (start, min, max, sum,
#: count) that says whether a bucket is open at all.
_COUNT = 4


def _group_starts(keys: np.ndarray) -> np.ndarray:
    """Index of the first row of every run of equal ``keys``."""
    head = np.ones(keys.size, dtype=bool)
    head[1:] = keys[1:] != keys[:-1]
    return np.flatnonzero(head)


class _Pass:
    """What one engine pass is about to write, as lists of column
    tuples: sealed buckets ``(tier, slot, start, min, max, sum,
    count)`` and moved coverage ``(tier, slot, lo, hi)``."""

    def __init__(self) -> None:
        self.rows: list[tuple] = []
        self.spans: list[tuple] = []

    @staticmethod
    def columns(parts: list[tuple], width: int) -> list[np.ndarray]:
        if not parts:
            return [np.empty(0, dtype=np.int64)] * width
        return [np.concatenate(column) for column in zip(*parts)]


class RollupEngine:
    """Maintains the rollup tiers of every sensor flowing through ingest.

    ``observe()`` is called by the batching writer with the exact item
    list a successful
    ``insert_batch`` just persisted; it advances sealed watermarks and
    writes rollup rows through the same backend.  It never raises —
    rollups are derived data, and a rollup failure must cost freshness,
    not raw durability.  Failed rollup writes are retried on the next
    observation (watermarks only advance after a successful write).
    """

    def __init__(
        self,
        backend: StorageBackend,
        config: RollupConfig | None = None,
        metrics: MetricsRegistry | None = None,
        clock=None,
    ) -> None:
        self.backend = backend
        self.config = config if config is not None else RollupConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._clock = clock if clock is not None else now_ns
        #: Serializes passes (observe, flush, backfill), backend I/O
        #: included; ``coverage()``/``status()`` read without it.
        self._lock = threading.Lock()
        tiers = len(self.config.tiers)
        self._widths = np.array([tier.bucket_ns for tier in self.config.tiers])[:, None]
        #: sid -> slot; -1 for series that stay raw-only (rollup series
        #: themselves, sensors with no spare SID level).
        self._slot_of: dict[SensorId, int] = {}
        self._sids: list[SensorId] = []  # slot -> sid
        self._pending: set[int] = set()  # slots whose last write failed
        self._field_sids = np.empty((tiers * len(FIELDS), 64), dtype=object)
        self._high = np.zeros(64, dtype=np.int64)  # newest timestamp observed
        self._cov = np.zeros((tiers, 2, 64), dtype=np.int64)  # sealed [lo, hi)
        self._open = np.zeros((tiers, 5, 64), dtype=np.int64)
        self._depth = np.zeros(64, dtype=np.int64)
        #: Oldest reading since the last pass that did not simply
        #: extend its series (late, duplicate): sealed buckets from the
        #: one holding it onward no longer match the raw rows.
        self._redo_from = np.full(64, _NEVER, dtype=np.int64)
        self._last_retention_ns: int | None = None
        self._observed = self.metrics.counter(
            "dcdb_rollup_readings_observed_total",
            "Raw readings observed by the rollup engine after durable insert",
        )
        self._buckets_written = self.metrics.counter(
            "dcdb_rollup_buckets_written_total",
            "Sealed rollup buckets written, per tier",
            ("tier",),
        )
        self._flushes = self.metrics.counter(
            "dcdb_rollup_flushes_total",
            "Sensor seals: per engine pass, the sensors it wrote at least one bucket for",
        )
        self._errors = self.metrics.counter(
            "dcdb_rollup_write_errors_total",
            "Rollup batches the backend failed to accept (retried later)",
        )
        self._late = self.metrics.counter(
            "dcdb_rollup_late_readings_total",
            "Readings that arrived below a sealed watermark (bucket recomputed)",
        )
        self._retention_deleted = self.metrics.counter(
            "dcdb_rollup_retention_deleted_total",
            "Readings removed by the demotion lifecycle, per series kind",
            ("tier",),
        )

    # -- ingest side --------------------------------------------------------

    def observe(self, items: list[InsertItem]) -> None:
        """Fold one durably-inserted batch into the rollup state.

        Must be called only after ``insert_batch`` succeeded for
        ``items`` — a recompute reads the raw series back, so observing
        unpersisted readings would roll up data that may not exist.
        Never raises; failures are counted and retried.
        """
        self._pass(items)
        self._maybe_retention()

    def flush(self) -> None:
        """Retry every sensor whose last rollup write failed.

        Called on agent shutdown and by tests.  Observed readings are
        folded as they arrive, so nothing else is ever outstanding;
        sealing still requires a later reading, so the open bucket
        stays open (the planner's raw tail covers it).
        """
        self._pass([])

    def _pass(self, items: list[InsertItem]) -> None:
        try:
            with self._lock:
                self._observe(items)
        except Exception:  # noqa: BLE001 - derived data must not break ingest
            self._errors.inc()
            logger.exception("rollup observe failed for %d readings", len(items))

    def _observe(self, items: list[InsertItem]) -> None:
        slot, ts, values = self._columns(items)
        out = _Pass()
        touched = slot[:0]
        if slot.size:
            self._observed.inc(int(slot.size))
            late = int((ts < self._cov[0, 1, slot]).sum())
            if late:
                self._late.inc(late)
            first = _group_starts(slot)
            touched = slot[first]
            # A sensor's rows extend its series when each is newer than
            # the one before, the first newer than anything seen.
            before = np.empty_like(ts)
            before[1:] = ts[:-1]
            before[first] = self._high[touched]
            odd = np.logical_or.reduceat(ts <= before, first)
            if odd.any():
                self._depth[touched[odd]] = 0
                self._redo_from[touched[odd]] = np.minimum(
                    self._redo_from[touched[odd]], np.minimum.reduceat(ts, first)[odd]
                )
            self._high[touched] = np.maximum(before[first], np.maximum.reduceat(ts, first))
            self._fold(out, slot, ts, values, values, values, np.ones_like(ts))
        redo = self._due(np.union1d(touched, np.array(sorted(self._pending), dtype=np.intp)))
        try:
            self._recompute(out, redo)
            self._write(out)
        except Exception:  # noqa: BLE001 - retried on the next observation
            # Nothing was committed: coverage stays behind, and what the
            # running aggregates already absorbed is rebuilt from raw.
            failed = np.union1d(_Pass.columns(out.spans, 4)[1], redo)
            self._depth[failed] = 0
            self._pending.update(failed.tolist())
            self._errors.inc()
            logger.exception("rollup write failed for %d sensors", failed.size)
            return
        self._redo_from[redo] = _NEVER
        self._pending.difference_update(redo.tolist())

    def _columns(self, items: list[InsertItem]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(slot, timestamp, value)`` columns of the rows of tracked
        sensors, grouped by slot in arrival order."""
        if not items:
            empty = np.empty(0, dtype=np.int64)
            return empty.astype(np.intp), empty, empty
        sids, timestamps, values, _ttls = zip(*items)
        slots = list(map(self._slot_of.get, sids))
        if None in slots:
            slots = [
                self._register(sid, timestamp) if slot is None else slot
                for slot, sid, timestamp in zip(slots, sids, timestamps)
            ]
        slot = np.array(slots, dtype=np.intp)
        ts = np.array(timestamps, dtype=np.int64)
        vals = np.array(values, dtype=np.int64)
        order = np.argsort(slot, kind="stable")
        slot = slot[order]
        tracked = slice(int(np.searchsorted(slot, 0)), None)  # past the -1s
        return slot[tracked], ts[order][tracked], vals[order][tracked]

    def _register(self, sid: SensorId, first_ts: int) -> int:
        """Slot of a sensor not seen before (restoring its coverage
        from metadata), or -1 when it stays raw-only."""
        slot = self._slot_of.get(sid)  # an earlier row of the same batch
        if slot is not None:
            return slot
        if is_rollup_sid(sid) or sid.level_code(_ROLLUP_LEVEL) != 0:
            self._slot_of[sid] = -1
            return -1
        slot = len(self._sids)
        if slot == self._high.size:
            # Double every column; the copied half is overwritten slot
            # by slot, here and (open buckets) on the first re-seed.
            for name in ("_field_sids", "_high", "_cov", "_open", "_depth", "_redo_from"):
                column = getattr(self, name)
                setattr(self, name, np.concatenate((column, column), axis=-1))
        for tier_index, tier in enumerate(self.config.tiers):
            try:
                doc = json.loads(self.backend.get_metadata(coverage_key(sid, tier.label)) or "")
                span = int(doc["lo"]), int(doc["hi"])
            except (ValueError, KeyError, TypeError):
                # Fresh sensor: coverage starts at the bucket holding
                # the first observed reading — earlier data (ingested
                # before the engine existed) stays raw-only and the
                # planner serves it from raw, until the retention
                # lifecycle backfills it ahead of demotion.
                aligned = (first_ts // tier.bucket_ns) * tier.bucket_ns
                span = aligned, aligned
            self._cov[tier_index, :, slot] = span
            for field_index in range(len(FIELDS)):
                self._field_sids[tier_index * len(FIELDS) + field_index, slot] = rollup_sid(
                    sid, tier_index, field_index
                )
        # Nothing is known about the rows already stored (a restart, or
        # history from before the engine): the first seal of every tier
        # reads them back.
        self._high[slot] = max(first_ts, int(self._cov[0, 1, slot]))
        self._depth[slot] = 0
        self._redo_from[slot] = _NEVER
        self._sids.append(sid)
        self._slot_of[sid] = slot
        return slot

    def _fold(self, out: _Pass, slot, start, mins, maxs, sums, counts) -> None:
        """Fold rows (grouped by slot, ascending in time) into the
        running aggregates, finest tier first; what seals in one tier
        is the input of the next."""
        for tier_index, tier in enumerate(self.config.tiers):
            live = self._depth[slot] > tier_index
            if not live.all():
                slot, start, mins, maxs, sums, counts = (
                    column[live] for column in (slot, start, mins, maxs, sums, counts)
                )
            if slot.size == 0:
                return
            width = tier.bucket_ns
            opened = self._open[tier_index]
            first = _group_starts(slot)
            sensors = slot[first]
            # Each sensor's open bucket goes in as a row ahead of its input.
            carried = opened[:, sensors]
            has = carried[_COUNT] > 0
            at = first[has]
            slot = np.insert(slot, at, sensors[has])
            start, mins, maxs, sums, counts = (
                np.insert(column, at, carried[row, has])
                for column, row in zip((start, mins, maxs, sums, counts), range(5))
            )
            bucket = start // width * width
            edge = np.ones(slot.size, dtype=bool)
            edge[1:] = (slot[1:] != slot[:-1]) | (bucket[1:] != bucket[:-1])
            runs = np.flatnonzero(edge)
            slot, start = slot[runs], bucket[runs]
            mins = np.minimum.reduceat(mins, runs)
            maxs = np.maximum.reduceat(maxs, runs)
            sums = np.add.reduceat(sums, runs)
            counts = np.add.reduceat(counts, runs)
            # Everything below the bucket holding the newest reading
            # has sealed; that bucket (one per sensor) stays open.
            sealed = start < self._high[slot] // width * width
            opened[_COUNT, sensors] = 0
            opened[:, slot[~sealed]] = np.stack((start, mins, maxs, sums, counts))[:, ~sealed]
            slot, start, mins, maxs, sums, counts = (
                column[sealed] for column in (slot, start, mins, maxs, sums, counts)
            )
            tier_column = np.full(slot.size, tier_index)
            out.rows.append((tier_column, slot, start, mins, maxs, sums, counts))
            seal_end = self._high[sensors] // width * width
            moved = seal_end > self._cov[tier_index, 1, sensors]
            sensors, seal_end = sensors[moved], seal_end[moved]
            tier_column = np.full(sensors.size, tier_index)
            out.spans.append((tier_column, sensors, self._cov[tier_index, 0, sensors], seal_end))

    def _due(self, slots: np.ndarray) -> np.ndarray:
        """Those of ``slots`` with a region to seal (or re-seal) in a
        tier whose running aggregates cannot be used."""
        widths, sealed_to = self._widths, self._cov[:, 1, slots]
        due = self._high[slots] // widths * widths > sealed_to
        due |= self._redo_from[slots] < sealed_to
        due &= np.arange(len(widths))[:, None] >= self._depth[slots]
        return slots[due.any(axis=0)]

    def _recompute(self, out: _Pass, slots: np.ndarray) -> None:
        """Seal the due regions of ``slots`` from the stored raw series
        (one ``query_many`` per chunk of sensors) and re-seed their open
        buckets; a late arrival re-seals from the bucket holding it."""
        tiers = self.config.tiers
        for at in range(0, slots.size, _REDO_CHUNK):
            plans = []
            for slot in slots[at : at + _REDO_CHUNK].tolist():
                high, redo_from = int(self._high[slot]), int(self._redo_from[slot])
                regions = []
                for tier_index in range(int(self._depth[slot]), len(tiers)):
                    width = tiers[tier_index].bucket_ns
                    cov_lo, cov_hi = self._cov[tier_index, :, slot].tolist()
                    lo = max(cov_lo, redo_from // width * width) if redo_from < cov_hi else cov_hi
                    if high // width * width > lo:
                        regions.append((tier_index, lo, high // width * width, cov_lo, cov_hi))
                if regions:
                    plans.append((slot, regions))
            if not plans:
                continue
            raw_lo = min(region[1] for _, regions in plans for region in regions)
            sids = [self._sids[slot] for slot, _ in plans]
            series = self.backend.query_many(sids, raw_lo, _FOREVER)
            for slot, regions in plans:
                ts, values = series[self._sids[slot]]
                for tier_index, lo, hi, cov_lo, cov_hi in regions:
                    left, right = np.searchsorted(ts, (lo, hi))
                    self._seal_raw(out, slot, tier_index, ts[left:right], values[left:right])
                    span = [min(cov_lo, lo)], [max(cov_hi, hi)]
                    out.spans.append(([tier_index], [slot], *span))
                self._reseed(slot, ts, values, raw_lo)

    def _seal_raw(self, out: _Pass, slot: int, tier_index: int, ts, values) -> np.ndarray:
        """Queue the buckets of one raw slice; returns their starts."""
        starts, *stats = aggregate_buckets(ts, values, self.config.tiers[tier_index].bucket_ns)
        tier, slots = np.full(starts.size, tier_index), np.full(starts.size, slot)
        out.rows.append((tier, slots, starts, *stats))
        return starts

    def _reseed(self, slot: int, ts: np.ndarray, values: np.ndarray, raw_lo: int) -> None:
        """Rebuild the open buckets of ``slot`` from the raw rows at and
        after ``raw_lo``, as far up the tiers as those reach back."""
        high = int(self._high[slot])
        if ts.size and ts[-1] > high:
            return  # stored rows newer than any observed: keep reading back
        depth = int(self._depth[slot])
        widths = [tier.bucket_ns for tier in self.config.tiers]
        # A coarser open bucket holds sealed finer buckets only.
        upper = high // widths[depth - 1] * widths[depth - 1] if depth else high + 1
        for tier_index in range(depth, len(widths)):
            start = high // widths[tier_index] * widths[tier_index]
            if start < raw_lo:
                break
            left, right = np.searchsorted(ts, (start, upper))
            part = values[left:right]
            self._open[tier_index, :, slot] = (
                (start, part.min(), part.max(), part.sum(), part.size) if part.size else 0
            )
            upper = start
            depth = tier_index + 1
        self._depth[slot] = depth

    def _write(self, out: _Pass) -> None:
        """Write a pass: one ``insert_batch``, one ``put_metadata_many``,
        and only then the coverage they stand for."""
        labels = [tier.label for tier in self.config.tiers]
        tier, slot, start, *stats = _Pass.columns(out.rows, 7)
        starts, ttl = start.tolist(), repeat(self.config.ttl_s)
        items: list[InsertItem] = []
        for field_index, column in enumerate(stats):
            field_sids = self._field_sids[tier * len(FIELDS) + field_index, slot]
            items.extend(zip(field_sids.tolist(), starts, column.tolist(), ttl))
        moved_tier, moved, lo, hi = _Pass.columns(out.spans, 4)
        docs = [
            (coverage_key(self._sids[s], labels[k]), json.dumps({"lo": a, "hi": b}))
            for k, s, a, b in zip(moved_tier.tolist(), moved.tolist(), lo.tolist(), hi.tolist())
        ]
        if items:
            self.backend.insert_batch(items)
        if docs:
            self.backend.put_metadata_many(docs)
        self._cov[moved_tier, 0, moved] = lo
        self._cov[moved_tier, 1, moved] = hi
        for label, buckets in zip(labels, np.bincount(tier, minlength=len(labels)).tolist()):
            if buckets:
                self._buckets_written.labels(tier=label).inc(buckets)
        if slot.size:
            self._flushes.inc(int(np.unique(slot).size))

    # -- retention lifecycle -------------------------------------------------

    def _maybe_retention(self) -> None:
        policy = self.config.retention
        if policy is None:
            return
        now = self._clock()
        interval = self.config.retention_check_every_s * NS_PER_SEC
        if self._last_retention_ns is not None and (
            now - self._last_retention_ns < interval
        ):
            return
        self._last_retention_ns = now
        try:
            self.apply_retention(policy, now)
        except Exception:  # noqa: BLE001 - lifecycle must not break ingest
            self._errors.inc()
            logger.exception("rollup retention pass failed")

    def apply_retention(
        self, policy: RetentionPolicy, now: int | None = None
    ) -> dict[str, int]:
        """Demote aged data via ``delete_before``; returns removals per kind.

        The raw cutoff is clamped to the sealed watermark of the
        coarsest surviving tier, and each tier's cutoff to the
        watermark of the coarsest tier above it — data is only dropped
        from a series once every series outliving it has sealed past
        that point.  Raw history below the coverage windows (ingested
        before the engine tracked the sensor, hence never rolled up)
        is backfilled into every tier first; when that backfill fails,
        raw demotion for the sensor is skipped rather than risk
        deleting readings no rollup has absorbed.
        """
        if now is None:
            now = self._clock()
        tiers = self.config.tiers
        removed = {"raw": 0, **{tier.label: 0 for tier in tiers}}
        sids = list(self._sids)
        sealed_to = self._cov[:, 1, : len(sids)].copy()
        horizons = list(policy.tier_horizons_s)
        horizons += [0] * (len(tiers) - len(horizons))
        # Sealed watermark of the coarsest tier kept forever (the last
        # tier always survives: its horizon guards only finer series,
        # never itself without a coarser successor).
        surviving = [
            index
            for index in range(len(tiers))
            if horizons[index] == 0 or index == len(tiers) - 1
        ]
        for slot, sid in enumerate(sids):
            if policy.raw_horizon_s > 0:
                guard_all = int(sealed_to[surviving, slot].min())
                cutoff = min(now - policy.raw_horizon_s * NS_PER_SEC, guard_all)
                if cutoff > 0 and self._backfill(slot):
                    removed["raw"] += int(self.backend.delete_before(sid, cutoff))
            for tier_index, tier in enumerate(tiers[:-1]):
                horizon = horizons[tier_index]
                if horizon <= 0:
                    continue
                coarser = [index for index in surviving if index > tier_index]
                cutoff = min(now - horizon * NS_PER_SEC, int(sealed_to[coarser, slot].min()))
                if cutoff <= 0:
                    continue
                base = tier_index * len(FIELDS)
                removed[tier.label] += sum(
                    int(self.backend.delete_before(fsid, cutoff))
                    for fsid in self._field_sids[base : base + len(FIELDS), slot]
                )
        for label, count in removed.items():
            if count:
                self._retention_deleted.labels(tier=label).inc(count)
        return removed

    def _backfill(self, slot: int) -> bool:
        """Fold pre-coverage raw history of a sensor into every tier.

        Raw readings ingested before the engine first tracked a sensor
        sit below the tiers' coverage lo watermarks and were never
        rolled up; they are served from raw and must not be demoted
        as-is.  Called by the retention lifecycle before raw deletion,
        this aggregates everything below each tier's lo into that tier
        and extends the persisted coverage downward, so the subsequent
        ``delete_before`` only removes readings every tier has
        absorbed.  Returns False when the fold failed — the caller
        must then skip raw demotion for this sensor.  Cheap when there
        is nothing to do: one bounded backend read per pass.
        """
        sid = self._sids[slot]
        try:
            with self._lock:
                ceiling = int(self._cov[:, 0, slot].max())
                if ceiling <= 0:
                    return True
                ts, values = self.backend.query(sid, 0, ceiling - 1)
                out = _Pass()
                for tier_index in range(len(self.config.tiers)):
                    cov_lo, cov_hi = self._cov[tier_index, :, slot].tolist()
                    # Buckets below cov_lo end exactly at the (aligned)
                    # watermark, and a reading at or above it exists — the
                    # one the coverage was anchored on — so every
                    # backfilled bucket is complete by the sealing rule.
                    right = int(np.searchsorted(ts, cov_lo))
                    if right:
                        starts = self._seal_raw(out, slot, tier_index, ts[:right], values[:right])
                        lo = min(cov_lo, int(starts[0]))
                        out.spans.append(([tier_index], [slot], [lo], [cov_hi]))
                self._write(out)
            return True
        except Exception:  # noqa: BLE001 - caller skips demotion instead
            self._errors.inc()
            logger.exception("rollup backfill failed for sid %s", sid.hex())
            return False

    # -- introspection -------------------------------------------------------

    def coverage(self, sid: SensorId, tier_index: int) -> tuple[int, int] | None:
        """Sealed [lo, hi) span of one tier of ``sid`` (None if untracked)."""
        slot = self._slot_of.get(sid, -1)
        if slot < 0:
            return None
        lo, hi = self._cov[tier_index, :, slot].tolist()
        return lo, hi

    def status(self) -> dict:
        """JSON-friendly snapshot for the REST ``/status`` document."""
        return {
            "tiers": [
                {"label": tier.label, "bucketNs": tier.bucket_ns}
                for tier in self.config.tiers
            ],
            "trackedSensors": len(self._sids),
            "pendingSensors": len(self._pending),
            "observed": int(self._observed.value),
            "flushes": int(self._flushes.value),
            "writeErrors": int(self._errors.value),
            "lateReadings": int(self._late.value),
            "retention": (
                {
                    "rawHorizonSeconds": self.config.retention.raw_horizon_s,
                    "tierHorizonsSeconds": list(self.config.retention.tier_horizons_s),
                }
                if self.config.retention is not None
                else None
            ),
        }
