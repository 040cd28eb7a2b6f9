"""End-to-end benchmark of the assembled DCDB stack: the one command.

``python3 benchmarks/e2e/run.py`` runs every workload of
``BENCHMARK.json`` in a fresh interpreter, checks the outputs and
prints every end-to-end metric by name with its unit.  With
``--workload`` it runs that one workload in this process and ends with
one JSON line (the form the benchmark driver reads).  See README.md.

  --workload NAME   one of the workloads in BENCHMARK.json
  --seed N          drives sensor values, query windows and op order
  --seconds S       measured window, as a number of whole segments
  --trace 0|1       1 = the traced run: wrappers on, per-layer metrics
  --traced          all workloads: add a traced pass and the layer budget
  --spans-out FILE  traced run: write the raw spans (.npz)
  --smoke           one tiny segment per workload (seconds, not minutes)
  --selfcheck N     two interleaved sets of N passes; non-zero exit if
                    an end-to-end median moves by more than its bound
  --corrupt-reference   self-test of the verifier: must report failures
"""

from __future__ import annotations

import time

STARTED_AT = time.perf_counter()  # setup_s counts from interpreter start

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKROOT = ROOT / ".bench_work"
sys.path[:0] = [str(HERE), str(ROOT / "src")]


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_args(contract: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans-out")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--selfcheck", type=int, metavar="N")
    parser.add_argument("--corrupt-reference", action="store_true")
    return parser.parse_args()


# -- one workload, in this process --------------------------------------


def pin_to_one_cpu() -> None:
    """Confine this process, and every thread it will start, to one CPU.

    Under the GIL the stack's threads take turns anyway.  Left free on
    two virtual CPUs, the kernel sometimes keeps them together and
    sometimes spreads them, and every GIL hand-off then becomes a
    cross-CPU wake-up (an inter-processor interrupt, which a virtual
    machine pays for dearly): the same ``ingest_burst`` segment cost
    2.9 s of CPU in one run and 4.5 s in the next, with 4x the
    voluntary context switches and 8x the system time (NOISE.md).
    The highest-numbered CPU is the one least likely to serve the
    disk's interrupts.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_one(args: argparse.Namespace, contract: dict) -> int:
    pin_to_one_cpu()
    from layers import LAYER_METRICS
    from trace import Recorder
    from harness import stolen_s
    from workloads import run_workload

    started = (STARTED_AT, stolen_s())

    recorder = None
    if args.trace:
        recorder = Recorder()
        recorder.install()
    result = run_workload(
        args.workload, args.seed, args.seconds, args.smoke, WORKROOT,
        recorder, started, corrupt=args.corrupt_reference,
    )
    if recorder is not None and args.spans_out:
        recorder.save(args.spans_out)
    if WORKROOT.is_dir() and not any(WORKROOT.iterdir()):
        WORKROOT.rmdir()

    units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    failed_share = result.failed / max(result.attempted, 1)
    print(f"== {result.workload}  seed={args.seed}  {'traced' if recorder else 'untraced'}")
    print("   work in the measured window: " + ", ".join(f"{k}={v}" for k, v in result.work.items()))
    for name, unit in units.items():
        print(f"   {name:<24} {result.metrics.get(name, float('nan')):>14.4f} {unit}")
    print(f"   {'failed_share':<24} {failed_share:>14.6f} ratio  ({result.failed} of {result.attempted} ops)")
    print("   " + ", ".join(f"{k}={v:.4g}" for k, v in result.notes.items()))
    for problem in result.problems:
        print(f"   FAILED: {problem}")
    if recorder is not None:
        unit = "query" if result.workload == "query_dashboard" else "reading"
        print(f"   layer budget, self CPU us per {unit}:")
        for layer, us in result.budget:
            print(f"     {layer:<10} {us:>12.3f}")
        for name in contract_layer_names(contract):
            print(f"   {name:<40} {result.layers.get(name, 0.0):>14.4f} {LAYER_METRICS[name][0]}")

    missing = [name for name in units if name not in result.metrics]
    if missing:
        print(f"   FAILED: no value for {missing}")
    if recorder is not None:
        metrics = {
            name: {"value": result.layers.get(name, 0.0), "unit": LAYER_METRICS[name][0]}
            for name in contract_layer_names(contract)
        }
    else:
        metrics = {
            name: {"value": result.metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()
        }
    report = {
        "metrics": result.metrics, "layers": result.layers, "work": result.work,
        "attempted": result.attempted, "failed": result.failed + len(missing),
    }
    print("@report " + json.dumps(report))
    print(
        json.dumps(
            {
                "correct": result.failed == 0 and not missing,
                "attempted": max(result.attempted, 1),
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0  # the result line carries the verdict


def contract_layer_names(contract: dict) -> list[str]:
    return [m["name"] for m in contract["per_layer"]]


# -- every workload, each in a fresh interpreter --------------------------


def spawn(workload: str, seed: int, args: argparse.Namespace, trace: int) -> tuple[int, dict, str]:
    """Run one workload in a child; returns (exit code, @report, output)."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.smoke:
        command.append("--smoke")
    if trace and args.spans_out:
        command += ["--spans-out", f"{args.spans_out}.{workload}.npz"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    report = {}
    for line in done.stdout.splitlines():
        if line.startswith("@report "):
            report = json.loads(line[len("@report "):])
    shown = "\n".join(l for l in done.stdout.splitlines()[:-1] if not l.startswith("@report "))
    return done.returncode, report, shown + done.stderr


#: The end-to-end metric each workload is built around; the traced
#: pass reports its tracing overhead on this one.
PRIMARY = {
    "ingest_grid": "readings_per_s",
    "ingest_burst": "readings_per_s",
    "query_dashboard": "queries_per_s",
    "mixed_rw": "cpu_us_per_reading",
}


def run_all(args: argparse.Namespace, contract: dict) -> int:
    status = 0
    for workload in (w["name"] for w in contract["workloads"]):
        code, report, shown = spawn(workload, args.seed, args, trace=0)
        print(shown)
        status |= code or report.get("failed", 1)
        if args.traced:
            code, traced, shown = spawn(workload, args.seed, args, trace=1)
            print(shown)
            status |= code or traced.get("failed", 1)
            name = PRIMARY[workload]
            base, with_trace = report.get("metrics", {}).get(name), traced.get("metrics", {}).get(name)
            if base and with_trace:
                worse = with_trace / base if name.startswith("cpu") else base / with_trace
                print(f"   bench.trace_overhead_pct  {100 * (worse - 1):.1f} %  (on {name})")
    return 1 if status else 0


def selfcheck(args: argparse.Namespace, contract: dict) -> int:
    """A B A B ... : the same code measured as two interleaved sets."""
    passes = args.selfcheck
    workloads = [w["name"] for w in contract["workloads"]]
    values: dict[tuple[str, str, str], list[float]] = {}
    seed = args.seed
    for index in range(passes):
        for label in "AB":
            for workload in workloads:
                code, report, shown = spawn(workload, seed, args, trace=0)
                if code != 0 or report.get("failed", 1):
                    print(shown)
                    return 1
                for name, value in report["metrics"].items():
                    values.setdefault((workload, name, label), []).append(value)
            seed += 1
        print(f"pass {index + 1}/{passes} done", file=sys.stderr)
    print("| workload | metric | unit | median A | median B | B vs A | bound | IQR/median A | IQR/median B | |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    status = 0
    for workload in workloads:
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = values[(workload, name, "A")], values[(workload, name, "B")]
            med_a, med_b = statistics.median(a), statistics.median(b)
            sign = 1 if metric["better"] == "lower" else -1
            worse = sign * (med_b - med_a) / med_a
            ok = abs(worse) <= bound
            status |= 0 if ok else 1
            spreads = []
            for sample in (a, b):
                if len(sample) >= 2:
                    q1, _q2, q3 = statistics.quantiles(sample, n=4)
                    spreads.append(f"{(q3 - q1) / statistics.median(sample):.3f}")
                else:
                    spreads.append("-")
            print(
                f"| {workload} | {name} | {metric['unit']} | {med_a:.4f} | {med_b:.4f} | "
                f"{100 * worse:+.1f} % | {100 * bound:.0f} % | {spreads[0]} | {spreads[1]} | "
                f"{'ok' if ok else 'OVER'} |"
            )
    return status


def main() -> int:
    contract = load_contract()
    args = parse_args(contract)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"the program under test is missing: no {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.selfcheck:
        return selfcheck(args, contract)
    if args.workload:
        return run_one(args, contract)
    return run_all(args, contract)


if __name__ == "__main__":
    sys.exit(main())
