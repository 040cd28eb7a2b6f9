"""Exception hierarchy for the DCDB reproduction.

All library errors derive from :class:`DCDBError` so callers can catch
one base type at API boundaries.  Subsystem-specific subclasses allow
targeted handling (e.g. retrying transport errors while letting
configuration errors abort start-up).
"""

from __future__ import annotations


class DCDBError(Exception):
    """Base class of all errors raised by this library."""


class ConfigError(DCDBError):
    """Raised for malformed or inconsistent configuration input.

    This covers property-tree parse failures, unknown plugin names,
    out-of-range sampling intervals and similar start-up problems.
    """


class TransportError(DCDBError):
    """Raised for MQTT protocol violations and transport failures."""


class StorageError(DCDBError):
    """Raised by storage backends for ingest/query failures."""


class NodeDownError(StorageError):
    """Raised when an operation reaches a storage node that is down.

    Emitted by the fault-injection proxy
    (:class:`repro.faults.FaultyBackend`) between ``kill()`` and
    ``restart()``.  The cluster treats it like any other
    :class:`StorageError` — failover to another replica, or queue a
    hinted handoff — except that the failure detector condemns the
    node at once instead of accruing suspicion, and tests can match it
    to assert *why* an operation failed.
    """


class FaultInjectedError(StorageError):
    """Raised by fault-injection wrappers for a deliberately failed op.

    Distinct from organic :class:`StorageError` failures so chaos tests
    can assert that every observed failure was one they scheduled.
    """


class QueryError(DCDBError):
    """Raised by libDCDB for invalid queries (unknown sensors, bad
    time ranges, malformed virtual-sensor expressions)."""


class PluginError(DCDBError):
    """Raised by Pusher plugins for acquisition failures.

    A :class:`PluginError` during a single sampling cycle is not fatal:
    the Pusher logs it and continues with the next cycle, matching
    DCDB's production behaviour where a flaky device must not take the
    whole collector down.
    """


class UnitError(DCDBError):
    """Raised when two units cannot be converted into one another."""
