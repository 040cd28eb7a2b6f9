"""``make bench-compare``: diff a benchmark run against the committed
baselines.

The repo commits one pytest-benchmark JSON per suite (``BENCH_*.json``,
refreshed by ``make bench-baseline``) so performance regressions show
up as a reviewable diff.  This tool closes the loop in CI:

* **Compare mode** (default): given one or more fresh
  ``--benchmark-json`` files, match every benchmark by ``fullname``
  against the committed baselines and fail when a gated stat regresses
  by more than ``--threshold`` (25% by default).  Gated stats are the
  best-of-rounds wall time (``stats.min`` — the least noisy of the
  recorded aggregates) and the machine-independent ``extra_info``
  ratios the suites record (``*_speedup_x`` and ``*_ratio`` must not
  drop, ``*_overhead_x`` must not grow).
* **Check mode** (``--check``): no benchmarks are run.  Validates that
  every committed baseline parses, carries stats, and names only
  benchmarks that still collect from ``benchmarks/`` — so a renamed or
  deleted benchmark cannot leave a silently stale baseline.  Cheap
  enough to ride along with every ``make test``.

* **Pairs mode** (``pairs PARENT CHANGE``): the paired protocol for
  a change that claims (or must not cost) end-to-end speed.  Runs
  ``benchmarks/e2e/run.py`` of two checkouts alternately — pair ``k``
  uses seed ``k`` on both sides and alternates which side goes first —
  and prints, per end-to-end metric, both medians with quartiles,
  wins/ties/losses of the change, and the ratio of the medians with
  its base; fails when a median is worse than the parent's by more
  than the metric's ``BENCHMARK.json`` bound, or a run fails.  Every
  pair is also kept as one ``@pair {json}`` line (workload, seed,
  which side ran first, both sides' metrics) as soon as it finishes.
  Both checkouts' ``src/`` and ``benchmarks/`` are byte-compiled
  before the first pair, so neither side's ``setup_s`` carries the
  compile time.

Exit status is non-zero on any regression or staleness, with one
``[FAIL]`` line per finding.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

#: Fraction by which a gated stat may regress before the diff fails.
DEFAULT_THRESHOLD = 0.25

#: ``extra_info`` keys are compared by suffix: ratios where bigger is
#: better versus overheads where smaller is better.  Anything else
#: (row counts, recorded gate constants) is informational only.
_HIGHER_IS_BETTER = ("_speedup_x", "_ratio")
_LOWER_IS_BETTER = ("_overhead_x",)


def _load(path: Path) -> dict:
    with path.open() as fh:
        return json.load(fh)


def _baseline_files(baseline_dir: Path) -> list[Path]:
    return sorted(baseline_dir.glob("BENCH_*.json"))


def _index(doc: dict) -> dict[str, dict]:
    return {b["fullname"]: b for b in doc.get("benchmarks", [])}


def _info_direction(key: str) -> str | None:
    if any(key.endswith(sfx) for sfx in _HIGHER_IS_BETTER):
        return "higher"
    if any(key.endswith(sfx) for sfx in _LOWER_IS_BETTER):
        return "lower"
    return None


def _compare_one(
    name: str, base: dict, fresh: dict, threshold: float, failures: list[str]
) -> None:
    base_min = base.get("stats", {}).get("min")
    fresh_min = fresh.get("stats", {}).get("min")
    if base_min and fresh_min:
        ratio = fresh_min / base_min
        verdict = "ok " if ratio <= 1.0 + threshold else "FAIL"
        print(
            f"  [{verdict}] {name}: min {fresh_min * 1e3:.2f} ms vs "
            f"baseline {base_min * 1e3:.2f} ms ({ratio:.2f}x)"
        )
        if ratio > 1.0 + threshold:
            failures.append(
                f"{name}: wall time regressed {ratio:.2f}x "
                f"(threshold {1.0 + threshold:.2f}x)"
            )
    for key, base_val in (base.get("extra_info") or {}).items():
        direction = _info_direction(key)
        fresh_val = (fresh.get("extra_info") or {}).get(key)
        if direction is None or not isinstance(base_val, (int, float)):
            continue
        if not isinstance(fresh_val, (int, float)) or not base_val:
            continue
        if direction == "higher":
            bad = fresh_val < base_val * (1.0 - threshold)
            arrow = "dropped"
        else:
            bad = fresh_val > base_val * (1.0 + threshold)
            arrow = "grew"
        verdict = "FAIL" if bad else "ok "
        print(
            f"  [{verdict}] {name}: {key} {fresh_val} vs baseline {base_val}"
        )
        if bad:
            failures.append(
                f"{name}: {key} {arrow} to {fresh_val} from the "
                f"committed {base_val} (threshold {threshold:.0%})"
            )


def compare(
    fresh_paths: list[Path], baseline_dir: Path, threshold: float
) -> list[str]:
    failures: list[str] = []
    baselines: dict[str, dict] = {}
    for path in _baseline_files(baseline_dir):
        baselines.update(_index(_load(path)))
    if not baselines:
        return [f"no BENCH_*.json baselines under {baseline_dir}"]
    fresh: dict[str, dict] = {}
    for path in fresh_paths:
        fresh.update(_index(_load(path)))
    matched = sorted(set(fresh) & set(baselines))
    print(
        f"bench compare: {len(matched)} benchmark(s) matched against "
        f"{len(baselines)} baseline entries"
    )
    if not matched:
        return ["fresh run shares no benchmarks with the committed baselines"]
    for name in matched:
        _compare_one(name, baselines[name], fresh[name], threshold, failures)
    unbaselined = sorted(set(fresh) - set(baselines))
    for name in unbaselined:
        print(f"  [new ] {name}: no committed baseline (run make bench-baseline)")
    return failures


def check(baseline_dir: Path, benchmarks_dir: Path) -> list[str]:
    """Structural smoke: baselines parse and match the live suite."""
    failures: list[str] = []
    paths = _baseline_files(baseline_dir)
    if not paths:
        return [f"no BENCH_*.json baselines under {baseline_dir}"]
    env = dict(os.environ)
    src = baseline_dir / "src"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    # -o addopts= neutralizes the project-wide -q so a single -q here
    # yields one nodeid per line (with addopts stacking it becomes -qq,
    # which prints only per-file counts).
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only",
         "-o", "addopts=", "-q", str(benchmarks_dir)],
        capture_output=True,
        text=True,
        cwd=baseline_dir,
        env=env,
    )
    collected = {
        line.strip()
        for line in proc.stdout.splitlines()
        if "::" in line and not line.startswith(("=", "<"))
    }
    if proc.returncode != 0 or not collected:
        return [
            "pytest --collect-only failed over "
            f"{benchmarks_dir}:\n{proc.stdout}\n{proc.stderr}"
        ]
    for path in paths:
        try:
            entries = _load(path).get("benchmarks", [])
        except (OSError, json.JSONDecodeError) as exc:
            failures.append(f"{path.name}: unreadable baseline ({exc})")
            continue
        if not entries:
            failures.append(f"{path.name}: baseline records no benchmarks")
            continue
        for bench in entries:
            name = bench.get("fullname", "<missing fullname>")
            if name not in collected:
                failures.append(
                    f"{path.name}: baseline entry {name!r} no longer "
                    "collects — refresh with make bench-baseline"
                )
            elif not bench.get("stats", {}).get("min"):
                failures.append(f"{path.name}: {name} has no stats.min")
            else:
                print(f"  [ok ] {path.name}: {name}")
    return failures


def _e2e_run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run of ``root``'s own benchmark over ``root``'s own
    source; returns its ``@report`` (empty if the run died)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, env=env, capture_output=True, text=True,
    )
    for line in done.stdout.splitlines():
        if line.startswith("@report "):
            return json.loads(line[len("@report "):])
    print(done.stdout + done.stderr)
    return {}


def _quartiles(sample: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(sample, n=4) if len(sample) > 1 else sample * 3
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def pairs(parent: Path, change: Path, workloads: list[str] | None, count: int) -> list[str]:
    contract = _load(change / "BENCHMARK.json")
    seconds = contract["run_seconds"]  # the run length the benchmark fixes
    roots = {"parent": parent, "change": change}
    for root in roots.values():
        for tree in ("src", "benchmarks"):
            compileall.compile_dir(root / tree, quiet=1)
    failures: list[str] = []
    for workload in workloads or [w["name"] for w in contract["workloads"]]:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for k in range(count):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                report = _e2e_run(roots[side], workload, k + 1, seconds)
                if not report or report.get("failed", 1):
                    failures.append(f"{workload}: {side} run with seed {k + 1} failed")
                runs[side].append(report.get("metrics", {}))
            pair = {"workload": workload, "seed": k + 1, "first": order[0]}
            print("@pair " + json.dumps({**pair, **{side: runs[side][-1] for side in roots}}))
            print(f"{workload}: pair {k + 1}/{count} done", file=sys.stderr)
        print(f"== {workload}: {count} pairs, seeds 1..{count}, {seconds:g} s, alternating order")
        print("| metric | unit | parent median [q1, q3] | change median [q1, q3] "
              "| W/T/L | change/parent | bound | |")
        print("|---|---|---|---|---|---|---|---|")
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1 if metric["better"] == "lower" else -1
            both = [
                (p[name], c[name])
                for p, c in zip(runs["parent"], runs["change"])
                if name in p and name in c
            ]
            if not both:
                continue
            old, new = [p for p, _ in both], [c for _, c in both]
            wins = sum(sign * (c - p) < 0 for p, c in both)
            ties = sum(c == p for p, c in both)
            base, median = statistics.median(old), statistics.median(new)
            worse = sign * (median - base) / base if base else 0.0
            if worse > bound:
                failures.append(f"{workload}: {name} worse by {worse:.1%} (bound {bound:.0%})")
            print(
                f"| {name} | {metric['unit']} | {_quartiles(old)} | {_quartiles(new)} "
                f"| {wins}/{ties}/{len(both) - wins - ties} "
                f"| {median / base if base else 0:.3f}x of {base:.4g} "
                f"| {bound:.0%} | {'OVER' if worse > bound else 'ok'} |"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "fresh",
        nargs="*",
        type=Path,
        help="fresh --benchmark-json file(s) to diff against the baselines, "
        "or: pairs PARENT CHANGE (two checkouts)",
    )
    parser.add_argument("--workload", action="append", help="pairs: run only this workload")
    parser.add_argument("--pairs", type=int, default=10, help="pairs: pairs per workload")
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=Path(__file__).resolve().parents[3],
        help="directory holding the committed BENCH_*.json files "
        "(default: the repo root)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="allowed fractional regression before failing (default 0.25)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="structural smoke only: validate the committed baselines "
        "against the collected benchmark suite (no timing diff)",
    )
    args = parser.parse_args(argv)
    baseline_dir = args.baseline_dir.resolve()
    if args.fresh[:1] == [Path("pairs")]:
        if len(args.fresh) != 3:
            parser.error("pairs takes two checkouts: PARENT CHANGE")
        parent, change = (path.resolve() for path in args.fresh[1:])
        failures = pairs(parent, change, args.workload, args.pairs)
    elif args.check:
        print(f"bench baselines check: {baseline_dir}")
        failures = check(baseline_dir, baseline_dir / "benchmarks")
    elif not args.fresh:
        parser.error("pass fresh benchmark JSON file(s) or --check")
    else:
        failures = compare(args.fresh, baseline_dir, args.threshold)
    for failure in failures:
        print(f"  [FAIL] {failure}")
    if failures:
        print(f"bench compare: {len(failures)} failure(s)")
        return 1
    print("bench compare: all gated stats within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
