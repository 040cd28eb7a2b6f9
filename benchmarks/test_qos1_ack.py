"""One QoS 1 publisher against a TCP Collect Agent: what a PUBACK that
follows the commit costs.

One :class:`~repro.mqtt.client.MQTTClient` (64 messages in flight)
publishes single-reading QoS 1 messages to an agent on loopback: one
:class:`~repro.storage.durable.DurableNode` at ``fsync=interval``,
default writer, tracing off.  The agent PUBACKs a message only after
the flush that commits it, so the client's window is end-to-end flow
control and the rate is set by how soon the writer flushes a read that
holds acks: at the end of its loop turn.  The Pushers, and the e2e
benchmark's, publish QoS 0 and wait for the idle and age triggers
instead; this module is the workload of the QoS 1 side of that choice.

The reference is the same agent whose held acks wait for the idle
deadline (``poll_interval_s``, 5 ms) like a QoS 0 read.  Every round
asserts that each message is stored and acked.  ``make bench-qos1``
smoke-runs this module with ``--benchmark-disable``; the >= 1.5x gate
only arms when benchmarking is enabled (``make bench``).
"""

import itertools
import time

from conftest import emit
from repro.common.timeutil import NS_PER_SEC
from repro.core import payload as payload_mod
from repro.core.collectagent import BatchingWriter, CollectAgent
from repro.mqtt.client import MQTTClient
from repro.storage.durable import DurableNode

MESSAGES = 4_000
ROUNDS = 3
TOPIC = "/bench/qos1/s0"


def publish_rate(data_dir, idle_deadline_acks: bool = False) -> float:
    """Messages per second for one QoS 1 publisher, first PUBLISH to
    last PUBACK; asserts every message was stored and acked."""
    backend = DurableNode(data_dir=data_dir, fsync="interval")
    agent = CollectAgent(backend, port=0, trace_sample_every=0)
    if idle_deadline_acks:
        writer = agent.writer
        writer._arm = lambda delay_s=None, now=False: BatchingWriter._arm(writer, delay_s)
    payloads = [payload_mod.encode_reading(NS_PER_SEC + i, i) for i in range(MESSAGES)]
    agent.start()
    try:
        client = MQTTClient("qos1-bench", port=agent.port)
        client.connect()
        start = time.perf_counter()
        for payload in payloads[:-1]:
            client.publish(TOPIC, payload, qos=1)
        client.publish(TOPIC, payloads[-1], qos=1, wait_ack=True, timeout=30.0)
        elapsed = time.perf_counter() - start
        assert not client._inflight
        client.disconnect()
        # The last PUBACK follows the last commit, and flushes leave in
        # staging order: everything is in the store already.
        assert backend.count(agent.sid_of(TOPIC), 0, 1 << 62) == MESSAGES
    finally:
        agent.stop()
        backend.close()
    return MESSAGES / elapsed


class TestQos1Publisher:
    def test_end_of_turn_flush_vs_idle_deadline(self, benchmark, tmp_path):
        """Gate: a read holding acks flushed at the end of its loop turn
        must give one QoS 1 publisher >= 1.5x the messages/s it gets
        when the acks wait for the idle deadline."""
        fresh = itertools.count()
        rates = []
        benchmark.pedantic(
            lambda: rates.append(publish_rate(tmp_path / f"run{next(fresh)}")),
            rounds=ROUNDS,
            iterations=1,
        )
        if benchmark.enabled:
            reference = max(
                publish_rate(tmp_path / f"ref{i}", idle_deadline_acks=True) for i in range(ROUNDS)
            )
            speedup = max(rates) / reference
            emit(
                "one QoS 1 publisher, 64 in flight",
                [
                    f"acks wait for the idle deadline: {reference:,.0f} msg/s",
                    f"acks flush at the end of the loop turn: {max(rates):,.0f} msg/s "
                    f"({speedup:.2f}x)",
                ],
            )
            assert speedup >= 1.5, f"end-of-turn flush only {speedup:.2f}x the idle deadline"
