"""Ablation: push-based vs pull-based collection timing.

Paper section 4.1: "DCDB's push-based monitoring approach allows for
more precise timings compared to pull-based monitoring, especially at
fine-grained (i.e., sub-second) sampling intervals.  This allows for
easily correlating different sensors without having to interpolate
readings ... Additionally, this minimizes jitter on compute nodes."

This bench quantifies that claim with both disciplines implemented
over the same substrate:

* **push**: N Pushers align reads to the shared clock (the DCDB way);
  we record per-cycle timestamps across nodes.
* **pull**: a central poller contacts nodes sequentially each cycle
  (the LDMS/Nagios way); per-node read times skew by their polling
  position plus per-request latency.

Metric: cross-node timestamp spread within one nominal cycle — zero
for push (perfect alignment), hundreds of milliseconds for pull at
scale.
"""

import numpy as np
import pytest

from conftest import emit
from repro.common.rng import RngFactory
from repro.common.timeutil import NS_PER_MS, NS_PER_SEC, SimClock, align_interval
from repro.core.pusher import Pusher, PusherConfig
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient

NODES = 64
INTERVAL_MS = 1000
CYCLES = 20
#: Per-request service time of a central poller (network RTT + read),
#: a conservative 3 ms.
PULL_SERVICE_NS = 3 * NS_PER_MS


def run_push() -> np.ndarray:
    """Cross-node read-time spread per cycle under push collection."""
    broker = MQTTBroker(port=None)
    clock = SimClock(0)
    timestamps: dict[int, list[int]] = {}

    def hook(client_id, packets):
        from repro.core.payload import decode_readings

        for packet in packets:
            for reading in decode_readings(packet.payload):
                cycle = reading.timestamp // (INTERVAL_MS * NS_PER_MS)
                timestamps.setdefault(cycle, []).append(reading.timestamp)

    broker.add_publish_hook(hook)
    pushers = []
    rngs = RngFactory(77)
    for node in range(NODES):
        pusher = Pusher(
            PusherConfig(mqtt_prefix=f"/push/node{node}"),
            client=MQTTClient(f"p{node}", broker=broker),
            clock=clock,
        )
        pusher.load_plugin("tester", f"group g {{ interval {INTERVAL_MS}\n numSensors 1 }}")
        pusher.client.connect()
        # Nodes start at staggered (arbitrary) times, as in production.
        start_offset = int(rngs.stream(f"start/{node}").uniform(0, INTERVAL_MS * NS_PER_MS))
        pusher.plugins["tester"].running = True
        for group in pusher.plugins["tester"].groups:
            group.schedule_after(start_offset)
        pushers.append(pusher)
    end = CYCLES * INTERVAL_MS * NS_PER_MS
    for pusher in pushers:
        pusher.advance_to(end)
    spreads = [
        max(ts) - min(ts) for cycle, ts in timestamps.items() if len(ts) == NODES
    ]
    return np.asarray(spreads, dtype=np.float64)


def run_pull() -> np.ndarray:
    """Cross-node read-time spread per cycle under central polling."""
    rngs = RngFactory(78)
    rng = rngs.stream("latency")
    spreads = []
    for cycle in range(1, CYCLES + 1):
        cycle_start = cycle * INTERVAL_MS * NS_PER_MS
        t = cycle_start
        read_times = []
        for node in range(NODES):
            # Sequential polling: each request costs service time with
            # jitter; the node's data is read when its turn comes.
            t += int(PULL_SERVICE_NS * max(0.2, rng.normal(1.0, 0.2)))
            read_times.append(t)
        spreads.append(max(read_times) - min(read_times))
    return np.asarray(spreads, dtype=np.float64)


def test_push_vs_pull_alignment(benchmark):
    push_spread = benchmark.pedantic(run_push, rounds=1, iterations=1)
    pull_spread = run_pull()
    emit(
        "Ablation: cross-node read-time spread per cycle (64 nodes, 1 s interval)",
        [
            f"push (DCDB):       max spread = {push_spread.max():.0f} ns",
            f"pull (sequential): mean spread = {pull_spread.mean() / 1e6:.1f} ms, "
            f"max = {pull_spread.max() / 1e6:.1f} ms",
        ],
    )
    # Push: perfectly aligned reads despite staggered starts.
    assert push_spread.max() == 0.0
    # Pull: spread is on the order of NODES x service time.
    assert pull_spread.mean() > 100 * NS_PER_MS
    # The paper's claim, quantified: orders of magnitude difference.
    assert pull_spread.mean() > 1000 * (push_spread.max() + 1)


def test_push_alignment_across_intervals(benchmark):
    """Groups with different intervals still share common fire points."""

    def run():
        fire_250 = align_interval(123_456_789, 250 * NS_PER_MS)
        fire_1000 = align_interval(987_654_321, 1000 * NS_PER_MS)
        # Every 1 s boundary is also a 250 ms boundary.
        common = align_interval(fire_1000, 250 * NS_PER_MS)
        return fire_1000, common

    fire_1000, common = benchmark(run)
    assert fire_1000 == common
