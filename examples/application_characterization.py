#!/usr/bin/env python3
"""Application characterization: the paper's case study 2.

Monitors the four CORAL-2 applications (workload models) through the
perfevents plugin at 100 ms on a simulated KNL node, queries the
instructions and power series back from storage, and characterizes
each application by its instructions-per-Watt distribution — the
paper's Figure 10 analysis, with an ASCII density sketch.

Run:  python examples/application_characterization.py
"""

import numpy as np

from repro import CollectAgent, DCDBClient, MemoryBackend, Pusher, PusherConfig
from repro.analysis import distribution_modes, kde_pdf
from repro.common.timeutil import NS_PER_SEC, SimClock
from repro.core.pusher.plugin import Plugin, PluginSensor, SensorGroup
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient
from repro.plugins.perfevents import PerfGroup, PerfSensor, SyntheticPerfSource
from repro.plugins.tester import TesterConfigurator
from repro.simulation.workloads import CORAL2_APPS

DURATION_S = 300
INTERVAL_MS = 100


def monitor(app_name: str) -> np.ndarray:
    """Run one application under monitoring; return its IPW series."""
    app = CORAL2_APPS[app_name]
    clock = SimClock(0)
    broker = MQTTBroker(port=None)
    backend = MemoryBackend()
    agent = CollectAgent(backend, broker=broker)
    pusher = Pusher(
        PusherConfig(mqtt_prefix=f"/knl/{app_name}"),
        client=MQTTClient("p", broker=broker),
        clock=clock,
    )
    # Instructions counter driven by the application's phase model.
    perf = PerfGroup(
        "perf",
        interval_ns=INTERVAL_MS * 1_000_000,
        source=SyntheticPerfSource(rate_fn=app.perf_rate_fn(seed=7)),
    )
    instr = PerfSensor(cpu=0, event="instructions", name="instr", mqtt_suffix="/instr")
    instr.metadata.delta = True
    perf.add_sensor(instr)
    # Node power from the same phase model (mW resolution).
    _, _, power_trace = app.trace(DURATION_S + 5, INTERVAL_MS, seed=7)

    class PowerGroup(SensorGroup):
        def read_raw(self, timestamp):
            idx = min(
                int(timestamp // (INTERVAL_MS * 1_000_000)) - 1, power_trace.size - 1
            )
            return [int(round(power_trace[idx] * 1000.0))]

    power_group = PowerGroup("power", interval_ns=INTERVAL_MS * 1_000_000)
    power_group.add_sensor(PluginSensor("node_power", "/power"))
    plugin = Plugin(
        name="char", configurator=TesterConfigurator(), groups=[perf, power_group]
    )
    pusher.plugins["char"] = plugin
    for group in plugin.groups:
        for sensor in group.sensors:
            pusher._topics[sensor] = pusher.config.mqtt_prefix + sensor.mqtt_suffix
    pusher.client.connect()
    pusher.start_plugin("char")
    pusher.advance_to(DURATION_S * NS_PER_SEC)

    dcdb = DCDBClient(backend)
    _, deltas = dcdb.query(f"/knl/{app_name}/instr", 0, DURATION_S * NS_PER_SEC)
    _, power_mw = dcdb.query(f"/knl/{app_name}/power", 0, DURATION_S * NS_PER_SEC)
    n = min(deltas.size, power_mw.size)
    rate = deltas[-n:] * (1000.0 / INTERVAL_MS)
    return rate / (power_mw[-n:] / 1000.0)


def sketch(ipw: np.ndarray, lo: float, hi: float, width: int = 48) -> str:
    """A one-line ASCII density sketch over [lo, hi]."""
    grid = np.linspace(lo, hi, width)
    _, density = kde_pdf(ipw, grid=grid)
    peak = density.max() or 1.0
    glyphs = " .:-=+*#%@"
    return "".join(glyphs[int(d / peak * (len(glyphs) - 1))] for d in density)


def main() -> None:
    print(f"monitoring {len(CORAL2_APPS)} applications at {INTERVAL_MS} ms for {DURATION_S}s each ...\n")
    series = {name: monitor(name) for name in CORAL2_APPS}
    lo = 0.0
    hi = max(ipw.max() for ipw in series.values()) * 1.05
    print(f"instructions per Watt, density over [0, {hi:.3g}]:\n")
    for name, ipw in sorted(series.items(), key=lambda kv: -kv[1].mean()):
        modes = distribution_modes(ipw)
        trend = "single trend" if len(modes) == 1 else f"{len(modes)} trends"
        print(f"  {name:<12} |{sketch(ipw, lo, hi)}|  mean={ipw.mean():.3g}  {trend}")
    print(
        "\npaper's finding: Kripke/Quicksilver high computational density,"
        "\nLAMMPS/AMG lower with multiple trends (dynamic phase behaviour)."
    )


if __name__ == "__main__":
    main()
