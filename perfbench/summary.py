"""Print every metric of every workload by name, with its unit.

    python3 perfbench/summary.py [--seconds S] [--seed N] [--layers]

Runs ``run.py`` once per workload with tracing off (and once more with
tracing on when ``--layers`` is given) and prints one line per metric,
plus the raw median ``wall_s`` and ``failed_ratio`` from the run record.
Exits with status 1 when any output check failed and 2 when a run could
not complete.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--layers", action="store_true", help="also run traced")
    args = parser.parse_args()

    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1) if args.layers else (0,):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(f"{workload}: run failed\n{proc.stderr}", file=sys.stderr)
                return 2
            lines = proc.stdout.strip().splitlines()
            info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
            for name, metric in result["metrics"].items():
                print(f"{workload:22s} {name:36s} {metric['value']:>16.6g} {metric['unit']}")
            if not trace:
                print(f"{workload:22s} {'wall_s':36s} {info['wall_s']:>16.6g} s"
                      f"  (raw median, {info['passes']} passes)")
                print(f"{workload:22s} {'failed_ratio':36s} {info['failed_ratio']:>16.6g} ratio"
                      f"  ({result['failed']} of {result['attempted']} items,"
                      f" {info['passes']} passes)")
            if not result["correct"]:
                print(f"{workload}: output check failed: {info['failed_items']}", file=sys.stderr)
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
