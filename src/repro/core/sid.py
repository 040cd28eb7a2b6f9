"""128-bit hierarchical Sensor IDs (SIDs).

Paper section 4.2: *"Upon retrieval of an MQTT message, a Collect
Agent parses the topic of the message and translates it into a unique
numerical Sensor ID (SID) that is used as the key to store a sensor's
reading in a Storage Backend.  There is a 1:1 mapping of topics to
SIDs which maintains the hierarchical organization of MQTT topics:
each topic is split into its hierarchical components and each such
component is mapped to a numeric value that is stored in a particular
bit field of the 128-bit SID."*

We reproduce that scheme: the 128 bits are divided into
``SID_LEVELS`` fields of ``SID_BITS_PER_LEVEL`` bits each (8 × 16 by
default).  A :class:`SidMapper` assigns, per level, a dense numeric
code to every distinct component string it sees; code 0 is reserved to
mean "level unused", so topics shallower than 8 levels embed cleanly.
The mapping is bidirectional, which is what makes SIDs usable both as
compact storage keys and as recoverable topic names on the query path.

Because component codes are assigned top-down, every sensor below the
same subtree shares a SID *prefix* — the property the storage layer's
hierarchical partitioner exploits (paper section 4.3) to place a
subtree's data on one server.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.common.errors import StorageError, TransportError
from repro.mqtt.topics import split_topic, validate_topic

SID_LEVELS = 8
SID_BITS_PER_LEVEL = 16
SID_LEVEL_MASK = (1 << SID_BITS_PER_LEVEL) - 1
SID_TOTAL_BITS = SID_LEVELS * SID_BITS_PER_LEVEL
assert SID_TOTAL_BITS == 128

#: Deepest-level codes from this value upward are reserved for derived
#: series (the storage layer's rollup tiers carve their SIDs out of
#: this range).  The mappers never allocate them for topic components,
#: so a real sensor SID can never collide with — or be misclassified
#: as — a rollup series.
SID_RESERVED_DEEPEST_BASE = 0xFD00


def _level_code_limit(level_idx: int) -> int:
    """Highest component code the mappers may assign at ``level_idx``."""
    if level_idx == SID_LEVELS - 1:
        return SID_RESERVED_DEEPEST_BASE - 1
    return SID_LEVEL_MASK


@dataclass(frozen=True, slots=True, order=True)
class SensorId:
    """An immutable 128-bit sensor identifier.

    The most significant field holds the topmost hierarchy level, so
    integer ordering groups sensors by subtree — range scans over a
    rack's sensors are contiguous.
    """

    value: int
    #: Big-endian 16-byte image, precomputed once: hot serialization
    #: paths (WAL payload framing) split a SID into two u64 halves per
    #: reading, and slicing these cached bytes beats redoing 128-bit
    #: shift/mask arithmetic every time.  Excluded from eq/order/hash —
    #: it is derived from ``value``.
    packed: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.value < (1 << SID_TOTAL_BITS):
            raise ValueError("SID out of 128-bit range")
        object.__setattr__(self, "packed", self.value.to_bytes(16, "big"))

    def level_code(self, level: int) -> int:
        """Numeric code stored for hierarchy ``level`` (0 = topmost)."""
        if not 0 <= level < SID_LEVELS:
            raise IndexError(f"SID level {level} out of range")
        shift = SID_BITS_PER_LEVEL * (SID_LEVELS - 1 - level)
        return (self.value >> shift) & SID_LEVEL_MASK

    def depth(self) -> int:
        """Number of populated levels (trailing zero fields unused)."""
        for level in range(SID_LEVELS - 1, -1, -1):
            if self.level_code(level) != 0:
                return level + 1
        return 0

    def prefix(self, levels: int) -> int:
        """The SID value with all but the top ``levels`` fields zeroed.

        Used as a partition key: all sensors in a subtree share it.
        """
        if not 0 <= levels <= SID_LEVELS:
            raise ValueError(f"prefix levels {levels} out of range")
        keep_bits = SID_BITS_PER_LEVEL * levels
        if keep_bits == 0:
            return 0
        mask = ((1 << keep_bits) - 1) << (SID_TOTAL_BITS - keep_bits)
        return self.value & mask

    def hex(self) -> str:
        """Canonical 32-hex-digit rendering."""
        return f"{self.value:032x}"

    @classmethod
    def from_hex(cls, text: str) -> "SensorId":
        return cls(int(text, 16))

    @classmethod
    def from_codes(cls, codes: list[int]) -> "SensorId":
        """Build a SID from per-level codes (topmost first)."""
        if len(codes) > SID_LEVELS:
            raise ValueError(f"too many levels: {len(codes)} > {SID_LEVELS}")
        value = 0
        for i, code in enumerate(codes):
            if not 0 <= code <= SID_LEVEL_MASK:
                raise ValueError(f"level code {code} out of range at level {i}")
            shift = SID_BITS_PER_LEVEL * (SID_LEVELS - 1 - i)
            value |= code << shift
        return cls(value)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.hex()


class SidMapper:
    """Bidirectional topic ↔ SID mapping.

    Thread-safe: Collect Agents translate topics on multiple reader
    threads concurrently.  Component codes start at 1 per level (0 is
    the "unused" sentinel).  A level can hold at most 65 535 distinct
    component names — 64 767 at the deepest level, whose top codes are
    reserved for rollup series — which comfortably covers DCDB
    deployments (the widest level in practice is per-node sensors, a
    few thousand).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # Per level: component string -> code, and the inverse.
        self._forward: list[dict[str, int]] = [dict() for _ in range(SID_LEVELS)]
        self._reverse: list[dict[int, str]] = [dict() for _ in range(SID_LEVELS)]
        self._topic_cache: dict[str, SensorId] = {}

    def sid_for_topic(self, topic: str) -> SensorId:
        """Translate (and register) ``topic`` into its SID.

        The empty leading level produced by DCDB's ``/``-prefixed
        topics is dropped, so ``/a/b`` and ``a/b`` map identically —
        matching the Collect Agent's canonicalization.
        """
        cached = self._topic_cache.get(topic)
        if cached is not None:
            return cached
        validate_topic(topic)
        levels = [lvl for lvl in split_topic(topic) if lvl != ""]
        if not levels:
            raise TransportError(f"topic {topic!r} has no hierarchy levels")
        if len(levels) > SID_LEVELS:
            raise TransportError(
                f"topic {topic!r} has {len(levels)} levels, max is {SID_LEVELS}"
            )
        codes: list[int] = []
        with self._lock:
            for level_idx, component in enumerate(levels):
                forward = self._forward[level_idx]
                code = forward.get(component)
                if code is None:
                    code = len(forward) + 1
                    limit = _level_code_limit(level_idx)
                    if code > limit:
                        raise StorageError(
                            f"SID level {level_idx} exhausted "
                            f"({limit} distinct components)"
                        )
                    forward[component] = code
                    self._reverse[level_idx][code] = component
                codes.append(code)
            sid = SensorId.from_codes(codes)
            self._topic_cache[topic] = sid
        return sid

    def lookup_topic(self, topic: str) -> SensorId | None:
        """Return the SID of a previously *registered* topic, or None.

        Strictly consults the topic registry: a topic whose components
        all happen to be known from other topics still returns None
        until :meth:`sid_for_topic` registers it.  Callers rely on this
        to trigger registration side effects (e.g. the Collect Agent
        persisting the mapping) exactly once per topic.
        """
        return self._topic_cache.get(topic)

    def topic_for_sid(self, sid: SensorId) -> str:
        """Reconstruct the canonical topic (``/``-prefixed) for ``sid``.

        Raises :class:`StorageError` for codes never issued by this
        mapper — the 1:1 property means that can only happen when
        mixing mappers or corrupting state.
        """
        parts: list[str] = []
        with self._lock:
            for level in range(SID_LEVELS):
                code = sid.level_code(level)
                if code == 0:
                    break
                component = self._reverse[level].get(code)
                if component is None:
                    raise StorageError(
                        f"SID {sid.hex()} has unknown code {code} at level {level}"
                    )
                parts.append(component)
        if not parts:
            raise StorageError("SID has no populated levels")
        return "/" + "/".join(parts)

    def prefix_for_topic_prefix(self, topic_prefix: str) -> tuple[int, int] | None:
        """Map a topic prefix to its (SID prefix value, level count).

        Returns None if any component is unknown.  Used by query
        planning to turn hierarchy-level queries into SID range scans.
        """
        levels = [lvl for lvl in split_topic(topic_prefix) if lvl != ""]
        codes: list[int] = []
        with self._lock:
            for level_idx, component in enumerate(levels):
                code = self._forward[level_idx].get(component)
                if code is None:
                    return None
                codes.append(code)
        return SensorId.from_codes(codes).value, len(codes)

    def known_topics(self) -> list[str]:
        """All topics ever registered, in registration order."""
        return list(self._topic_cache)

    def components_at_level(self, level: int) -> list[str]:
        """Distinct component names seen at hierarchy ``level``."""
        with self._lock:
            return list(self._forward[level])

    def __len__(self) -> int:
        return len(self._topic_cache)

    def restore(self, topic: str, sid: SensorId) -> None:
        """Install a known topic->SID mapping (e.g. read from storage).

        Registers each topic component under the code the SID carries,
        so future allocations are consistent with mappings created by
        earlier runs or by other Collect Agents sharing the backend.
        Raises :class:`StorageError` if a component/code pairing
        conflicts with what this mapper already holds.
        """
        levels = [lvl for lvl in split_topic(topic) if lvl != ""]
        with self._lock:
            for level_idx, component in enumerate(levels):
                code = sid.level_code(level_idx)
                forward = self._forward[level_idx]
                existing = forward.get(component)
                if existing is not None and existing != code:
                    raise StorageError(
                        f"component {component!r} at level {level_idx} maps to "
                        f"code {existing}, cannot restore as {code}"
                    )
                held_by = self._reverse[level_idx].get(code)
                if held_by is not None and held_by != component:
                    raise StorageError(
                        f"code {code} at level {level_idx} held by {held_by!r}, "
                        f"cannot restore for {component!r}"
                    )
                forward[component] = code
                self._reverse[level_idx][code] = component
            self._topic_cache[topic] = sid


class PersistentSidMapper(SidMapper):
    """A SidMapper coordinating component codes through storage metadata.

    Multiple Collect Agents write into one Storage Backend (paper
    Figure 1); their topic->SID mappings must agree or distinct topics
    would collide on storage keys.  This mapper persists each
    component-code assignment under ``sidcomp/<level>/<component>``
    and each topic's SID under ``sidmap<topic>``, and consults the
    backend before allocating, so mappings are
    consistent across agents sharing a backend and across restarts.

    Coordination is read-check-write on the metadata table; agents in
    one process (or writes serialized by the backend) are safe.  Truly
    concurrent multi-process allocation of the *same new component*
    would need a conditional-put primitive, which the substrate's
    metadata API deliberately keeps out of scope.
    """

    _COMP_PREFIX = "sidcomp"
    _NEXT_PREFIX = "sidnext"

    def __init__(self, backend) -> None:
        super().__init__()
        self._backend = backend

    def _load_component(self, level_idx: int, component: str) -> int | None:
        text = self._backend.get_metadata(
            f"{self._COMP_PREFIX}/{level_idx}/{component}"
        )
        return int(text) if text else None

    def _next_code(self, level_idx: int) -> int:
        text = self._backend.get_metadata(f"{self._NEXT_PREFIX}/{level_idx}")
        code = int(text) if text else 1
        limit = _level_code_limit(level_idx)
        if code > limit:
            raise StorageError(
                f"SID level {level_idx} exhausted ({limit} components)"
            )
        return code

    def sid_for_topic(self, topic: str) -> SensorId:
        cached = self._topic_cache.get(topic)
        if cached is not None:
            return cached
        validate_topic(topic)
        levels = [lvl for lvl in split_topic(topic) if lvl != ""]
        if not levels:
            raise TransportError(f"topic {topic!r} has no hierarchy levels")
        if len(levels) > SID_LEVELS:
            raise TransportError(
                f"topic {topic!r} has {len(levels)} levels, max is {SID_LEVELS}"
            )
        codes: list[int] = []
        allocated: list[tuple[str, str]] = []
        with self._lock:
            for level_idx, component in enumerate(levels):
                code = self._forward[level_idx].get(component)
                if code is None:
                    code = self._load_component(level_idx, component)
                if code is None:
                    code = self._next_code(level_idx)
                    allocated += [
                        (f"{self._NEXT_PREFIX}/{level_idx}", str(code + 1)),
                        (f"{self._COMP_PREFIX}/{level_idx}/{component}", str(code)),
                    ]
                codes.append(code)
            # Every component this topic introduced and the topic's own
            # ``sidmap<topic>`` key (libDCDB resolves topics through it),
            # in one metadata write — and before any is installed, so a
            # failed write leaves the mapper as it was and the next
            # message retries it.
            sid = SensorId.from_codes(codes)
            self._backend.put_metadata_many([*allocated, (f"sidmap{topic}", sid.hex())])
            for level_idx, (component, code) in enumerate(zip(levels, codes)):
                self._forward[level_idx][component] = code
                self._reverse[level_idx][code] = component
            self._topic_cache[topic] = sid
        return sid
