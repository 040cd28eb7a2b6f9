"""Figure 10 / case study 2: application characterization.

Paper: four CORAL-2 applications run on one CooLMUC-3 (KNL) node while
DCDB samples at 100 ms; the probability density of per-core retired
instructions per Watt separates the applications — Kripke and
Quicksilver high-mean and single-trend, LAMMPS and AMG lower with
multiple trends (dynamic phase behaviour).

Regeneration runs the real monitoring path: each application's
workload model drives the perfevents plugin's counter source
(instructions, published as deltas at 100 ms) alongside a node power
sensor; readings flow through the Pusher/Collect Agent into storage;
the instructions-per-Watt series is computed from *queried* data and
its KDE modality is asserted.
"""

import numpy as np
import pytest

from conftest import emit, format_table
from repro.analysis import distribution_modes, kde_pdf
from repro.common.timeutil import NS_PER_SEC, SimClock
from repro.core.collectagent import CollectAgent
from repro.core.pusher import Pusher, PusherConfig
from repro.libdcdb.api import DCDBClient
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient
from repro.plugins.perfevents import PerfGroup, PerfSensor, SyntheticPerfSource
from repro.simulation.workloads import CORAL2_APPS
from repro.storage import MemoryBackend

DURATION_S = 600
INTERVAL_MS = 100
CORES = 64  # KNL node


def run_app(app_name: str) -> np.ndarray:
    """Monitor one application through the pipeline; return IPW series."""
    app = CORAL2_APPS[app_name]
    clock = SimClock(0)
    broker = MQTTBroker(port=None)
    backend = MemoryBackend()
    agent = CollectAgent(backend, broker=broker)
    pusher = Pusher(
        PusherConfig(mqtt_prefix=f"/cm3/node0/{app_name}"),
        client=MQTTClient("p", broker=broker),
        clock=clock,
    )
    # Build the perf group programmatically so the workload's rate
    # function drives the counter source (one aggregated
    # instructions counter standing for the per-core average, plus a
    # power "sensor" derived from the same phase model).
    rate_fn = app.perf_rate_fn(seed=42)
    source = SyntheticPerfSource(rate_fn=rate_fn)
    group = PerfGroup(
        "instr", interval_ns=INTERVAL_MS * 1_000_000, source=source
    )
    sensor = PerfSensor(cpu=0, event="instructions", name="instr", mqtt_suffix="/instr")
    sensor.metadata.delta = True
    group.add_sensor(sensor)

    _, _, power_trace = app.trace(DURATION_S + 5, INTERVAL_MS, seed=42)

    from repro.core.pusher.plugin import SensorGroup, PluginSensor

    class PowerGroup(SensorGroup):
        def read_raw(self, timestamp):
            idx = min(int(timestamp // (INTERVAL_MS * 1_000_000)) - 1, power_trace.size - 1)
            return [int(round(power_trace[idx] * 1000.0))]  # mW resolution

    power_group = PowerGroup("power", interval_ns=INTERVAL_MS * 1_000_000)
    power_group.add_sensor(PluginSensor("node_power", "/power"))

    from repro.core.pusher.plugin import Plugin
    from repro.core.pusher.registry import register_plugin
    from repro.plugins.tester import TesterConfigurator

    plugin = Plugin(name="charL", configurator=TesterConfigurator(), groups=[group, power_group])
    pusher.plugins["char"] = plugin
    for g in plugin.groups:
        for s in g.sensors:
            pusher._topics[s] = pusher.config.mqtt_prefix + s.mqtt_suffix
    pusher.client.connect()
    pusher.start_plugin("char")
    pusher.advance_to(DURATION_S * NS_PER_SEC)

    dcdb = DCDBClient(backend)
    prefix = f"/cm3/node0/{app_name}"
    ts_i, instr = dcdb.query(f"{prefix}/instr", 0, DURATION_S * NS_PER_SEC)
    ts_p, power = dcdb.query(f"{prefix}/power", 0, DURATION_S * NS_PER_SEC)
    # Align: instruction deltas start one interval late.
    n = min(instr.size, power.size)
    instr, power = instr[-n:], power[-n:]
    # Per-100ms instruction deltas -> per-second rate; power stored in mW.
    instr_rate = instr * (1000.0 / INTERVAL_MS)
    power_w = power / 1000.0
    return instr_rate / power_w


def run_all():
    return {name: run_app(name) for name in CORAL2_APPS}


def test_fig10_shape(benchmark):
    series = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = []
    modality = {}
    for name, ipw in series.items():
        modes = distribution_modes(ipw)
        modality[name] = modes
        rows.append(
            [
                name,
                f"{ipw.mean():.3g}",
                f"{ipw.std():.3g}",
                len(modes),
                ", ".join(f"{m:.3g}" for m in modes),
            ]
        )
    emit(
        "Figure 10: instructions-per-Watt distributions (100 ms sampling, KNL node)",
        format_table(["Application", "Mean IPW", "Std", "Modes", "Mode locations"], rows),
    )
    means = {name: ipw.mean() for name, ipw in series.items()}
    # Kripke & Quicksilver high computational density.
    assert means["kripke"] > 2.0 * means["lammps"]
    assert means["kripke"] > 2.0 * means["amg"]
    assert means["quicksilver"] > 1.5 * means["lammps"]
    assert means["quicksilver"] > 1.5 * means["amg"]
    # Paper's axis: everything within 0 .. 4.5e5 IPW.
    for name, ipw in series.items():
        assert 0 <= ipw.min() and ipw.max() < 4.5e5, name
    # Single trend vs multiple trends.
    assert len(modality["kripke"]) == 1
    assert len(modality["quicksilver"]) == 1
    assert len(modality["lammps"]) >= 2
    assert len(modality["amg"]) >= 2
    # The KDE itself is well-formed (a probability density).
    grid, density = kde_pdf(series["amg"])
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    assert trapezoid(density, grid) == pytest.approx(1.0, abs=0.05)
