"""Shared fixtures for the DCDB reproduction test suite."""

from __future__ import annotations

import threading
import time

import pytest

from repro.common.timeutil import SimClock
from repro.core.collectagent import CollectAgent
from repro.core.pusher import Pusher, PusherConfig
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient
from repro.observability import EventLoopLagProbe, current_trace
from repro.storage import MemoryBackend


class SimPipeline:
    """One Pusher -> memory pipe -> broker -> Collect Agent -> memory backend."""

    def __init__(self, prefix: str = "/test/host0") -> None:
        self.clock = SimClock(0)
        self.broker = MQTTBroker(port=None)
        self.backend = MemoryBackend()
        self.agent = CollectAgent(self.backend, broker=self.broker)
        self.pusher = Pusher(
            PusherConfig(mqtt_prefix=prefix),
            client=MQTTClient("pusher0", broker=self.broker),
            clock=self.clock,
        )

    def load_and_start(self, plugin: str, config: str, alias: str | None = None) -> None:
        self.pusher.load_plugin(plugin, config, plugin_alias=alias)
        if not self.pusher.client.connected:
            self.pusher.client.connect()
        self.pusher.start_plugin(alias or plugin)

    def run(self, seconds: float) -> None:
        target = self.clock() + int(seconds * 1_000_000_000)
        self.pusher.advance_to(target)
        self.clock.set(target)


@pytest.fixture(autouse=True)
def no_leaked_nondaemon_threads():
    """Every test must release its non-daemon threads.

    Broker/client shutdown paths historically leaked reader threads
    blocked in ``recv``; the event-loop transport joins its loop
    thread on stop.  Daemon threads (the loops themselves, sampling
    pools) are exempt — they cannot keep the interpreter alive — but
    anything non-daemon still running after teardown is a shutdown
    bug.
    """
    before = {t.ident for t in threading.enumerate()}
    yield
    deadline = time.monotonic() + 2.0
    leaked: list[threading.Thread] = []
    while time.monotonic() < deadline:
        leaked = [
            t
            for t in threading.enumerate()
            if t.ident not in before
            and t.is_alive()
            and not t.daemon
        ]
        if not leaked:
            break
        time.sleep(0.02)
    else:
        assert not leaked, f"test leaked non-daemon threads: {leaked}"
    # Observability shutdown hygiene: a stopped broker must have
    # cancelled its event-loop lag probe, and nothing may leave the
    # ambient trace context set on the test runner's thread.
    probes = EventLoopLagProbe.active_probes()
    assert not probes, f"test leaked running lag probes: {[p.name for p in probes]}"
    assert current_trace() is None, "test leaked an ambient trace context"


@pytest.fixture
def pipeline() -> SimPipeline:
    return SimPipeline()


@pytest.fixture
def sim_clock() -> SimClock:
    return SimClock(0)
