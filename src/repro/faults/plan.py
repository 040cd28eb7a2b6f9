"""Deterministic, seedable fault schedules.

A :class:`FaultPlan` is the single source of randomness and timing for
every fault a test or simulation injects.  It combines:

* **scheduled faults** — :class:`FaultEvent` entries pinned to an
  injected-clock timestamp ("kill node1 at t=3s, restart it at t=5s"),
  popped by whoever drives the clock (usually
  :meth:`repro.simulation.simcluster.SimulatedCluster.apply_due_faults`);
* **probabilistic faults** — named substreams derived from one seed via
  :class:`repro.common.rng.RngFactory`, drawn by the wrapper classes
  (:class:`~repro.faults.backend.FaultyBackend`,
  :class:`~repro.faults.network.BrokerFaultInjector`).

Determinism contract: the same ``(seed, stream name)`` pair always
yields an identical decision sequence, and adding a new stream never
perturbs existing ones (the :mod:`repro.common.rng` property).  Two
runs that perform the same operations against the same plan therefore
observe the same faults — the foundation of the seeded chaos suite
(``make chaos``).
"""

from __future__ import annotations

import heapq
import itertools
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.common.rng import RngFactory

__all__ = ["FaultEvent", "FaultPlan"]

#: Actions understood by the simulation driver.  Wrappers are free to
#: define their own; these are the ones ``apply_due_faults`` executes.
KILL = "kill"
RESTART = "restart"


@dataclass(frozen=True, slots=True, order=True)
class FaultEvent:
    """One scheduled fault: do ``action`` to ``target`` at ``at_ns``.

    Ordering is (time, sequence number), so two events scheduled for
    the same instant fire in the order they were added — important for
    kill-then-restart pairs at equal timestamps.
    """

    at_ns: int
    seq: int = field(compare=True)
    action: str = field(compare=False, default=KILL)
    target: str = field(compare=False, default="")


class FaultPlan:
    """Seeded fault schedule + named random substreams.

    Thread-safe: the writer thread, broker reader threads and the test
    driver may consult the plan concurrently.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._rng_factory = RngFactory(self.seed)
        self._streams: dict[str, np.random.Generator] = {}
        self._events: list[FaultEvent] = []  # heap by (at_ns, seq)
        self._seq = itertools.count()
        self._lock = threading.Lock()

    # -- probabilistic faults ------------------------------------------------

    def stream(self, name: str) -> np.random.Generator:
        """The named substream; one generator per name, created lazily."""
        with self._lock:
            gen = self._streams.get(name)
            if gen is None:
                gen = self._rng_factory.stream(name)
                self._streams[name] = gen
            return gen

    def chance(self, name: str, probability: float) -> bool:
        """One deterministic Bernoulli draw from substream ``name``.

        Always consumes exactly one draw (even for probability 0 or 1)
        so the decision sequence of a stream depends only on how many
        times it was consulted, not on the rates asked for.
        """
        gen = self.stream(name)
        with self._lock:
            draw = gen.random()
        return draw < probability

    # -- scheduled faults ----------------------------------------------------

    def schedule(self, at_ns: int, action: str, target: str) -> FaultEvent:
        """Add one timed fault; returns the event for introspection."""
        with self._lock:
            event = FaultEvent(int(at_ns), next(self._seq), action, target)
            heapq.heappush(self._events, event)
            return event

    def kill_at(self, at_ns: int, target: str) -> FaultEvent:
        return self.schedule(at_ns, KILL, target)

    def restart_at(self, at_ns: int, target: str) -> FaultEvent:
        return self.schedule(at_ns, RESTART, target)

    def due(self, now_ns: int) -> list[FaultEvent]:
        """Pop every event scheduled at or before ``now_ns``, in order."""
        fired: list[FaultEvent] = []
        with self._lock:
            while self._events and self._events[0].at_ns <= now_ns:
                fired.append(heapq.heappop(self._events))
        return fired

    def pending(self) -> list[FaultEvent]:
        """Events not yet fired, soonest first (non-destructive)."""
        with self._lock:
            return sorted(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)
