"""``bench_compare pairs`` keeps every run as an ``@pair`` line."""

import json

from repro.tools import bench_compare


def test_pairs_prints_one_line_per_pair(tmp_path, monkeypatch, capsys):
    contract = {
        "run_seconds": 16,
        "workloads": [{"name": "grid"}],
        "end_to_end": [{"name": "cpu", "unit": "us", "better": "lower", "bound": 0.25}],
    }
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(contract))
    parent, change = tmp_path / "parent", tmp_path

    calls = []

    def fake_run(root, workload, seed, seconds):
        calls.append("parent" if root == parent else "change")
        return {"failed": 0, "metrics": {"cpu": seed * (10.0 if root == parent else 9.0)}}

    monkeypatch.setattr(bench_compare, "_e2e_run", fake_run)
    assert bench_compare.pairs(parent, change, None, 3) == []
    lines = [
        json.loads(line[len("@pair "):])
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("@pair ")
    ]
    assert [line["first"] for line in lines] == calls[::2]
    assert lines == [
        {"workload": "grid", "seed": 1, "first": "parent", "parent": {"cpu": 10.0}, "change": {"cpu": 9.0}},
        {"workload": "grid", "seed": 2, "first": "change", "parent": {"cpu": 20.0}, "change": {"cpu": 18.0}},
        {"workload": "grid", "seed": 3, "first": "parent", "parent": {"cpu": 30.0}, "change": {"cpu": 27.0}},
    ]
