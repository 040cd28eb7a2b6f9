"""Ablations: burst-interval sweep and sensor-cache sizing.

Two design choices the paper discusses qualitatively, swept here:

* **Burst sending** (section 6.2.1): AMG performed best with Pusher
  data sent "in regular bursts twice per minute".  We sweep the burst
  interval's effect on (a) modelled AMG interference and (b) the real
  Pusher's message count per window (fewer, larger messages).

* **Sensor cache sizing** (sections 5.3, 6.2.2): the cache window
  drives the Pusher's memory footprint; the paper notes memory "can be
  further reduced by tuning the size of sensor caches".  We sweep the
  window against the real cache and the memory model.
"""

import pytest

from conftest import emit, format_table
from repro.common.timeutil import NS_PER_SEC, SimClock
from repro.core.pusher import Pusher, PusherConfig
from repro.core.sensor import SensorCache
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient
from repro.simulation.architectures import SKYLAKE
from repro.simulation.overhead import OverheadModel, PusherSetup
from repro.simulation.resources import ResourceModel
from repro.simulation.workloads import AMG


class TestBurstSweep:
    def test_message_batching_vs_burst_interval(self, benchmark):
        """Real Pusher: burst flushes trade message count for size."""

        def run(burst_every_s: int):
            broker = MQTTBroker(port=None)
            pusher = Pusher(
                PusherConfig(mqtt_prefix="/b/h0", send_mode="burst"),
                client=MQTTClient("p", broker=broker),
                clock=SimClock(0),
            )
            pusher.load_plugin("tester", "group g { interval 1000\n numSensors 100 }")
            pusher.client.connect()
            pusher.start_plugin("tester")
            t = 0
            for _ in range(60 // burst_every_s):
                t += burst_every_s * NS_PER_SEC
                pusher.advance_to(t)
                pusher.flush()
            metrics = broker.metrics
            return (
                int(metrics.value("dcdb_broker_messages_received_total")),
                int(metrics.value("dcdb_broker_bytes_received_total")),
            )

        results = {}
        for burst_s in (1, 10, 30, 60):
            results[burst_s] = run(burst_s)
        benchmark.pedantic(run, args=(30,), rounds=1, iterations=1)
        rows = [
            [f"{burst_s} s", msgs, bytes_ // max(msgs, 1)]
            for burst_s, (msgs, bytes_) in results.items()
        ]
        emit(
            "Ablation: burst interval vs MQTT messages (100 sensors, 60 s)",
            format_table(["Burst every", "Messages", "Payload bytes/message"], rows),
        )
        # Same readings, fewer messages as bursts lengthen.
        assert results[60][0] < results[30][0] < results[10][0] < results[1][0]
        # 30 s bursts (paper's twice-per-minute) send 30 readings/message.
        msgs_30, bytes_30 = results[30]
        assert msgs_30 == 2 * 100
        assert bytes_30 // msgs_30 >= 30 * 16

    def test_modelled_amg_interference_vs_burst(self, benchmark):
        model = OverheadModel(SKYLAKE)

        def run():
            continuous = model.mpi_overhead_pct(
                PusherSetup(2477, 1000, send_mode="continuous"), AMG, 1024
            )
            burst = model.mpi_overhead_pct(
                PusherSetup(2477, 1000, send_mode="burst"), AMG, 1024
            )
            return continuous, burst

        continuous, burst = benchmark(run)
        assert burst < continuous
        assert burst > 0


class TestCacheSizing:
    def test_real_cache_population_vs_window(self, benchmark):
        def fill(window_s: int) -> int:
            cache = SensorCache(maxage_ns=window_s * NS_PER_SEC)
            for t in range(1, 4 * 120 + 1):
                cache.store(([t * NS_PER_SEC], [t]))
            return len(cache)

        populations = {w: fill(w) for w in (30, 60, 120, 240)}
        benchmark(fill, 120)
        emit(
            "Ablation: sensor-cache window vs steady-state population (1 Hz sensor)",
            format_table(
                ["Window", "Cached readings"],
                [[f"{w} s", n] for w, n in populations.items()],
            ),
        )
        assert populations[30] == 31
        assert populations[240] == pytest.approx(8 * populations[30], rel=0.05)

    def test_memory_model_vs_window(self, benchmark):
        model = ResourceModel(SKYLAKE)

        def run():
            return {
                w: model.memory_mb(10_000, 100, cache_ms=w * 1000.0)
                for w in (30, 60, 120, 240)
            }

        memory = benchmark(run)
        emit(
            "Ablation: modelled Pusher memory vs cache window (10k sensors @ 100 ms)",
            [f"{w} s window: {mb:.0f} MB" for w, mb in memory.items()],
        )
        # Halving the default 120 s window nearly halves the hot
        # configuration's footprint — the paper's tuning lever.
        assert memory[60] < 0.6 * memory[120]
        assert memory[240] > 1.8 * memory[120]
