"""The sensor data model: readings, metadata, and the sensor cache.

Paper section 3.2: *"each data point of a monitored entity is called a
sensor ... Each sensor's data consists of a time series, in which
readings are represented by a timestamp and a numerical value.  This
format is enforced across DCDB."*

Values are stored as integers in DCDB (Cassandra column type);
physical quantities are mapped to integers with per-sensor scaling
factors.  We keep that convention: :class:`SensorReading` carries an
``int`` value, and :class:`SensorMetadata` holds the unit and scaling
factor needed to interpret it.  Floating-point sources multiply by the
scale before storage and divide on the query path.

:class:`CycleCache` (a Pusher group's, per sampling cycle) is the
time-bounded cache of most recent readings a Pusher exposes over its
RESTful API (paper section 5.3: "a sensor cache that stores the latest
readings of all sensors ... configurable in size"); a Collect Agent
answers the same routes from its store.  :class:`SensorCache` is the
reference model of one sensor's window: what both answer, per sensor,
when fed readings in time order.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.common.timeutil import NS_PER_SEC


@dataclass(frozen=True, slots=True, order=True)
class SensorReading:
    """One data point: a nanosecond timestamp and an integer value."""

    timestamp: int
    value: int

    def scaled(self, scale: float) -> float:
        """The physical value this reading encodes under ``scale``."""
        return self.value / scale if scale != 1.0 else float(self.value)


@dataclass(slots=True)
class SensorMetadata:
    """Descriptive and interpretive properties of one sensor.

    These mirror the attributes DCDB's config tool manages (paper
    section 5.2): unit, scaling factor, integrability, plus operational
    hints (TTL, whether deltas should be published instead of raw
    monotonic counter values).
    """

    name: str = ""
    topic: str = ""
    unit: str = "count"
    scale: float = 1.0
    #: True for monotonically increasing counters published as deltas.
    delta: bool = False
    #: True if integrating this sensor over time is meaningful
    #: (e.g. power -> energy).
    integrable: bool = False
    #: Storage time-to-live in seconds; 0 keeps data forever.
    ttl_s: int = 0
    #: Whether readings should be published over MQTT at all.
    publish: bool = True
    #: Sampling interval in nanoseconds (informational; groups own it).
    interval_ns: int = NS_PER_SEC
    #: Free-form extra attributes (e.g. physical location tags).
    attributes: dict[str, str] = field(default_factory=dict)

    def to_physical(self, reading: SensorReading) -> float:
        """Decode a stored reading into its physical value."""
        return reading.value / self.scale

    def from_physical(self, value: float) -> int:
        """Encode a physical value into the stored integer domain."""
        return int(round(value * self.scale))


class _CachedReadings:
    """The read side both caches share, over a ``_columns()`` copy of
    the cached ``(timestamps, values)``, oldest first."""

    __slots__ = ()

    def _columns(self) -> tuple[list[int], list[int]]:
        raise NotImplementedError

    def latest(self) -> SensorReading | None:
        """Most recent reading, or None when empty."""
        timestamps, values = self._columns()
        return SensorReading(timestamps[-1], values[-1]) if timestamps else None

    def snapshot(self) -> list[SensorReading]:
        """A copy of all cached readings, oldest first."""
        return list(map(SensorReading, *self._columns()))

    def view(self, start_ns: int, end_ns: int) -> list[SensorReading]:
        """Cached readings with start <= timestamp <= end."""
        pairs = zip(*self._columns())
        return [SensorReading(t, v) for t, v in pairs if start_ns <= t <= end_ns]

    def average(self, window_ns: int | None = None) -> float | None:
        """Mean raw value over the trailing ``window_ns`` (or all).

        DCDB's cache answers smoothed reads for consumers that want a
        stable recent value rather than the instantaneous sample.
        """
        timestamps, values = self._columns()
        if window_ns is not None and timestamps:
            horizon = timestamps[-1] - window_ns
            values = [v for t, v in zip(timestamps, values) if t >= horizon]
        return sum(values) / len(values) if values else None

    def __len__(self) -> int:
        return len(self._columns()[0])


class SensorCache(_CachedReadings):
    """Time-bounded cache of the latest readings of one topic: the
    reference model the Pusher's :class:`CachedSensor` views and the
    Collect Agent's store-backed ``/cache`` are tested against.

    Readings older than ``maxage_ns`` relative to the newest entry are
    evicted on insert.  The default 120 s matches the paper's
    evaluation setup ("a sensor cache size of two minutes",
    section 6.1).  Thread-safe.  Timestamps and values are kept as two
    parallel columns.
    """

    __slots__ = ("maxage_ns", "_timestamps", "_values", "_lock")

    def __init__(self, maxage_ns: int = 120 * NS_PER_SEC) -> None:
        if maxage_ns <= 0:
            raise ValueError("cache max age must be positive")
        self.maxage_ns = maxage_ns
        self._timestamps: deque[int] = deque()
        self._values: deque[int] = deque()
        self._lock = threading.Lock()

    def store(self, readings: tuple[list[int], list[int]]) -> None:
        """Insert a ``(timestamps, values)`` pair of int lists (one
        message) and evict entries older than the window; the outcome
        equals storing its readings one at a time."""
        timestamps, values = readings
        if timestamps:
            horizon = max(timestamps) - self.maxage_ns
            with self._lock:
                self._timestamps.extend(timestamps)
                self._values.extend(values)
                while self._timestamps[0] < horizon:
                    self._timestamps.popleft()
                    self._values.popleft()

    def _columns(self) -> tuple[list[int], list[int]]:
        with self._lock:
            return list(self._timestamps), list(self._values)


class CycleCache:
    """The sensor cache of one Pusher group: a ring of its last cycles.

    A group reads all its sensors at one instant, so its cache is one
    timestamp column plus ``(slots x sensors)`` value and valid columns,
    and a sampling cycle is one row store.  ``slots`` is ``ceil(window /
    interval) + 1``, where the window is the largest max age of the
    group's sensors: enough rows for every cycle of the window, as
    cycle timestamps are at least one interval apart.  Memory is
    ``slots x (9 x sensors + 8)`` bytes (paper Fig. 7).
    """

    def __init__(self, interval_ns: int) -> None:
        self.interval_ns = interval_ns
        self.window_ns = 0
        self._shape = (1, 0)  # (slots, sensors) the arrays are fitted to on use
        self._stamps = np.zeros(1, np.int64)
        self._values = np.zeros((1, 0), np.int64)
        self._valid = np.zeros((1, 0), bool)
        self._rows = 0  # cycles stored; the newest is row (rows - 1) % slots
        self._lock = threading.Lock()

    @property
    def slots(self) -> int:
        return self._shape[0]

    def attach(self, view: "CachedSensor") -> None:
        """Add a column for ``view``'s sensor, widening the window to its
        max age.  The arrays grow on their next use, once per group
        configuration rather than once per sensor."""
        with self._lock:
            self.window_ns = max(self.window_ns, view.maxage_ns)
            width = self._shape[1] + 1
            self._shape = (-(-self.window_ns // self.interval_ns) + 1, width)
        view._ring, view._index = self, width - 1

    def _fit(self) -> None:
        """Grow the arrays to ``_shape``, keeping the cycles held."""
        held = self._held()
        grow = self._shape[0] - len(held), self._shape[1] - self._values.shape[1]
        self._stamps = np.pad(self._stamps[held], (0, grow[0]))
        self._values = np.pad(self._values[held], ((0, grow[0]), (0, grow[1])))
        self._valid = np.pad(self._valid[held], ((0, grow[0]), (0, grow[1])))
        self._rows = len(held)

    def store(self, timestamp: int, values: np.ndarray, valid: np.ndarray) -> None:
        """Cache one cycle: ``values[i]`` of sensor ``i`` where ``valid[i]``."""
        with self._lock:
            if self._values.shape != self._shape:
                self._fit()
            row = self._rows % len(self._stamps)
            self._stamps[row] = timestamp
            self._values[row] = values
            self._valid[row] = valid
            self._rows += 1

    def _held(self) -> np.ndarray:
        """Row indices of the cycles held, oldest first."""
        held = min(self._rows, len(self._stamps))
        return np.arange(self._rows - held, self._rows) % len(self._stamps)

    def readings(self, index: int, maxage_ns: int) -> tuple[list[int], list[int]]:
        """Sensor ``index``'s cached ``(timestamps, values)``, oldest
        first, no older than ``maxage_ns`` before its newest one."""
        with self._lock:
            if self._values.shape != self._shape:
                self._fit()
            held = self._held()
            valid = self._valid[held, index]
            stamps = self._stamps[held][valid]
            values = self._values[held, index][valid]
        if stamps.size:
            recent = stamps >= stamps[-1] - maxage_ns
            stamps, values = stamps[recent], values[recent]
        return stamps.tolist(), values.tolist()


class CachedSensor(_CachedReadings):
    """One Pusher sensor's read-only view of its group's :class:`CycleCache`.

    Answers as a :class:`SensorCache` of ``maxage_ns`` fed the same
    readings would, with one exception: the ring holds the group's last
    ``slots`` cycles, so a sensor whose newest reading is older than the
    group's newest cycle answers from those cycles only (and a sensor
    that produced nothing for a whole window answers empty).
    """

    __slots__ = ("maxage_ns", "_ring", "_index")

    def __init__(self, maxage_ns: int = 120 * NS_PER_SEC) -> None:
        if maxage_ns <= 0:
            raise ValueError("cache max age must be positive")
        self.maxage_ns = maxage_ns
        self._ring: CycleCache | None = None  # set when the sensor joins a group
        self._index = 0

    def _columns(self) -> tuple[list[int], list[int]]:
        if self._ring is None:
            return [], []
        return self._ring.readings(self._index, self.maxage_ns)

    @property
    def memory_bytes(self) -> int:
        """This sensor's share of the ring: one value and one valid
        column."""
        return 0 if self._ring is None else 9 * self._ring.slots
