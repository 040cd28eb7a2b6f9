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

:class:`SensorCache` is the time-bounded ring of most recent readings
that both Pushers and Collect Agents expose over their RESTful APIs
(paper section 5.3: "a sensor cache that stores the latest readings of
all sensors ... configurable in size").
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field

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


class SensorCache:
    """Time-bounded cache of the latest readings of one sensor.

    Readings older than ``maxage_ns`` relative to the newest entry are
    evicted on insert.  The default 120 s matches the paper's
    evaluation setup ("a sensor cache size of two minutes",
    section 6.1).  Thread-safe: the sampling thread appends while REST
    handlers snapshot.  Timestamps and values are kept as two parallel
    columns, so a burst message is stored without one object per
    reading.
    """

    __slots__ = ("maxage_ns", "_timestamps", "_values", "_lock")

    def __init__(self, maxage_ns: int = 120 * NS_PER_SEC) -> None:
        if maxage_ns <= 0:
            raise ValueError("cache max age must be positive")
        self.maxage_ns = maxage_ns
        self._timestamps: deque[int] = deque()
        self._values: deque[int] = deque()
        self._lock = threading.Lock()

    def store(self, readings) -> None:
        """Insert readings and evict entries older than the window.

        ``readings`` is one :class:`SensorReading` (a Pusher's sample)
        or a ``(timestamps, values)`` pair of int lists (a Collect Agent
        message); the outcome equals storing its readings one at a time.
        """
        if isinstance(readings, SensorReading):
            horizon = readings.timestamp - self.maxage_ns
            with self._lock:
                self._timestamps.append(readings.timestamp)
                self._values.append(readings.value)
                self._evict(horizon)
            return
        timestamps, values = readings
        if timestamps:
            horizon = max(timestamps) - self.maxage_ns
            with self._lock:
                self._timestamps.extend(timestamps)
                self._values.extend(values)
                self._evict(horizon)

    def _evict(self, horizon: int) -> None:
        """Drop the oldest readings while they precede ``horizon``."""
        timestamps, values = self._timestamps, self._values
        while timestamps[0] < horizon:
            timestamps.popleft()
            values.popleft()

    def latest(self) -> SensorReading | None:
        """Most recent reading, or None when empty."""
        with self._lock:
            if not self._timestamps:
                return None
            return SensorReading(self._timestamps[-1], self._values[-1])

    def snapshot(self) -> list[SensorReading]:
        """A copy of all cached readings, oldest first."""
        with self._lock:
            return list(map(SensorReading, self._timestamps, self._values))

    def view(self, start_ns: int, end_ns: int) -> list[SensorReading]:
        """Cached readings with start <= timestamp <= end."""
        with self._lock:
            pairs = zip(self._timestamps, self._values)
            return [SensorReading(t, v) for t, v in pairs if start_ns <= t <= end_ns]

    def average(self, window_ns: int | None = None) -> float | None:
        """Mean raw value over the trailing ``window_ns`` (or all).

        DCDB's cache answers smoothed reads for consumers that want a
        stable recent value rather than the instantaneous sample.
        """
        with self._lock:
            if not self._timestamps:
                return None
            if window_ns is None:
                items = self._values
            else:
                horizon = self._timestamps[-1] - window_ns
                items = [v for t, v in zip(self._timestamps, self._values) if t >= horizon]
            if not items:
                return None
            return sum(items) / len(items)

    def __len__(self) -> int:
        with self._lock:
            return len(self._timestamps)

    def clear(self) -> None:
        with self._lock:
            self._timestamps.clear()
            self._values.clear()

    @property
    def memory_bytes(self) -> int:
        """Approximate memory footprint of the cached readings.

        Used by the resource-footprint model (paper Figure 6b ties
        Pusher memory to cache contents: interval x sensor count).
        """
        # The model's constant per cached reading (a reading object
        # with two Python ints, sys.getsizeof on CPython 3.11).
        with self._lock:
            return 120 * len(self._timestamps)
