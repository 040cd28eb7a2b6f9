"""``dcdb-query``: sensor data retrieval in CSV.

Paper section 5.2: "The query tool then allows users to obtain sensor
data for a specified time period in CSV format or perform basic
analysis tasks on the data such as integrals or derivatives."

Examples::

    dcdb-query --db sqlite:monitor.db /hpc/r0/n0/power/s0 \
        --start 0s --end 3600s
    dcdb-query --db sqlite:monitor.db /virtual/total_power \
        --start 0s --end 3600s --integral
    dcdb-query --db sqlite:monitor.db /hpc/r0/n0/energy \
        --start 0s --end 3600s --derivative --unit W
    dcdb-query --db sqlite:monitor.db --list /hpc
"""

from __future__ import annotations

import argparse
import csv
import sys

from repro.common.errors import DCDBError
from repro.libdcdb.analysis import derivative, integral, summary
from repro.libdcdb.api import DCDBClient
from repro.tools.common import open_backend, parse_time


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcdb-query", description="Query DCDB sensor data as CSV."
    )
    parser.add_argument("--db", required=True, help="storage URI (sqlite:<path> | memory:)")
    parser.add_argument("topics", nargs="*", help="sensor topics or virtual sensor names")
    parser.add_argument("--start", default="0", help="range start (e.g. 0s, 1500ms, raw ns)")
    parser.add_argument("--end", default=str((1 << 62)), help="range end")
    parser.add_argument("--unit", default=None, help="convert output to this unit")
    parser.add_argument("--list", metavar="PREFIX", default=None, help="list topics below a prefix and exit")
    parser.add_argument(
        "--max-points",
        type=int,
        default=1000,
        help="bucket budget for --aggregate (default 1000)",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--integral", action="store_true", help="print the time integral (value*seconds)")
    mode.add_argument("--derivative", action="store_true", help="print the finite-difference rate series")
    mode.add_argument("--summary", action="store_true", help="print min/max/mean/std instead of rows")
    mode.add_argument(
        "--aggregate",
        choices=("avg", "min", "max", "sum", "count"),
        default=None,
        help="per-bucket aggregate via the tier-aware planner (rollups when covered)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        backend = open_backend(args.db)
        client = DCDBClient(backend)
        if args.list is not None:
            for topic in client.topics(args.list):
                print(topic)
            return 0
        if not args.topics:
            print("error: no topics given (or use --list)", file=sys.stderr)
            return 2
        start = parse_time(args.start)
        end = parse_time(args.end)
        writer = csv.writer(sys.stdout)
        if args.integral:
            writer.writerow(("sensor", "integral"))
        elif args.summary:
            writer.writerow(("sensor", "count", "min", "max", "mean", "std"))
        else:
            writer.writerow(("sensor", "time", "value"))
        if args.aggregate is not None:
            for topic in args.topics:
                timestamps, values = client.query_aggregate(
                    topic, start, end, args.aggregate, args.max_points, args.unit
                )
                for t, v in zip(timestamps.tolist(), values.tolist()):
                    writer.writerow((topic, t, v))
            backend.close()
            return 0
        for topic in args.topics:
            timestamps, values = client.query(topic, start, end, unit=args.unit)
            if args.integral:
                writer.writerow((topic, integral(timestamps, values)))
            elif args.derivative:
                d_ts, d_vals = derivative(timestamps, values)
                for t, v in zip(d_ts.tolist(), d_vals.tolist()):
                    writer.writerow((topic, t, v))
            elif args.summary:
                s = summary(timestamps, values)
                writer.writerow((topic, s.count, s.minimum, s.maximum, s.mean, s.std))
            else:
                for t, v in zip(timestamps.tolist(), values.tolist()):
                    writer.writerow((topic, t, v))
        backend.close()
        return 0
    except DCDBError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
