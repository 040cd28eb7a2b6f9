"""Property test: virtual-sensor evaluation vs a direct numpy oracle.

Generates random arithmetic expressions over sensors sharing one time
grid and compares the evaluator's output against computing the same
expression directly on the raw arrays.  Shared grids remove the
interpolation degree of freedom, so any mismatch is an evaluator bug.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.timeutil import NS_PER_SEC
from repro.core.sid import SidMapper
from repro.libdcdb.api import DCDBClient, SensorConfig, _Resolver
from repro.libdcdb.virtualsensors import Evaluator, parse_expression
from repro.storage.memory import MemoryBackend

N_SENSORS = 3
N_POINTS = 20


def build_env(values: np.ndarray):
    """Backend with N_SENSORS series on a shared 1 s grid."""
    backend = MemoryBackend()
    mapper = SidMapper()
    client = DCDBClient(backend)
    for i in range(N_SENSORS):
        topic = f"/o/s{i}"
        sid = mapper.sid_for_topic(topic)
        backend.put_metadata(f"sidmap{topic}", sid.hex())
        client.set_sensor_config(SensorConfig(topic=topic, unit="count"))
        backend.insert_batch(
            (sid, (t + 1) * NS_PER_SEC, int(values[i, t]), 0) for t in range(N_POINTS)
        )
    return client


@st.composite
def expressions(draw, depth=0):
    """Random expression text plus a numpy-evaluating oracle."""
    choice = draw(
        st.sampled_from(
            ["sensor", "const"] if depth >= 3 else ["sensor", "const", "binop", "neg"]
        )
    )
    if choice == "sensor":
        idx = draw(st.integers(0, N_SENSORS - 1))
        return f"</o/s{idx}>", lambda vals: vals[idx].astype(np.float64), True
    if choice == "const":
        value = draw(st.integers(1, 9))
        return str(value), lambda vals, v=value: float(v), False
    if choice == "neg":
        text, fn, has_sensor = draw(expressions(depth=depth + 1))
        return f"-({text})", lambda vals: -fn(vals), has_sensor
    op = draw(st.sampled_from(["+", "-", "*"]))
    lt, lf, ls = draw(expressions(depth=depth + 1))
    rt, rf, rs = draw(expressions(depth=depth + 1))
    return (
        f"({lt} {op} {rt})",
        lambda vals: {
            "+": lambda: lf(vals) + rf(vals),
            "-": lambda: lf(vals) - rf(vals),
            "*": lambda: lf(vals) * rf(vals),
        }[op](),
        ls or rs,
    )


class TestEvaluatorOracle:
    @settings(max_examples=80, deadline=None)
    @given(
        expr=expressions(),
        data=st.lists(
            st.lists(st.integers(-1000, 1000), min_size=N_POINTS, max_size=N_POINTS),
            min_size=N_SENSORS,
            max_size=N_SENSORS,
        ),
    )
    def test_matches_numpy(self, expr, data):
        text, oracle, has_sensor = expr
        if not has_sensor:
            return  # constant expressions are rejected by design
        values = np.asarray(data, dtype=np.int64)
        client = build_env(values)
        evaluator = Evaluator(_Resolver(client))
        ts, out, _unit = evaluator.evaluate(
            parse_expression(text), NS_PER_SEC, N_POINTS * NS_PER_SEC
        )
        expected = oracle(values)
        expected_arr = (
            np.full(N_POINTS, expected) if np.isscalar(expected) else expected
        )
        assert ts.size == N_POINTS
        assert np.allclose(out, expected_arr)
