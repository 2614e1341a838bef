"""Benchmark entry point: runs one workload for a fixed time and prints the
result as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass runs in a fresh process (``onepass.py``), one at a time, with
``jobs=1``; an untraced pass reports its wall time and its time at the
reference speed (``speedprobe.py``), and ``wall_ref_s`` is the median of
the latter; ``setup_s`` is set-up time at the reference speed too.  A run
makes one pass of each kind, then starts another only while it is expected
to end within ``--seconds`` of the run's start, so the run time stays near
``--seconds`` however long a pass takes.  Set-up is
also timed in ``SETUP_PROBES`` processes that only set up.  With
``--trace 0`` the result holds the end-to-end metrics; with ``--trace 1``
untraced and traced passes alternate and the result holds the per-layer
metrics of the traced passes.  Metric names and units come from
``BENCHMARK.json``.  The last line of standard output is the result; the
line before it describes the run.  Spans of traced passes are written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_PROBES = 12
PASS_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _child(args: list[str], timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "onepass.py"), *args]
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass timed out after {timeout:.0f} s: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"pass failed ({' '.join(args)}):\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _metric_units() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run the workload; returns (result line, run description)."""
    if not (ROOT / "src" / "tpcert" / "__init__.py").is_file():
        raise BenchError(f"no tpcert sources under {ROOT / 'src'}")
    base = ["--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    probes = [_child(base + ["--setup-only"], PASS_TIMEOUT_S) for _ in range(SETUP_PROBES)]

    modes = (0, 1) if trace else (0,)
    passes: dict[int, list[dict]] = {m: [] for m in modes}
    took: dict[int, float] = {}
    for i in itertools.count():
        mode = modes[i % len(modes)]
        if all(passes.values()) and time.perf_counter() - start + took[mode] > seconds:
            break
        t0 = time.perf_counter()
        passes[mode].append(_child(base + ["--trace", str(mode)], PASS_TIMEOUT_S))
        took[mode] = time.perf_counter() - t0

    everything = passes[0] + passes.get(1, [])
    items = [it for p in everything for it in p["items"]]
    failed = [it for it in items if not it["ok"]]
    untraced = passes[0]
    wall = [p["wall_s"] for p in untraced]
    wall_ref = [p["ref_s"] for p in untraced]
    e2e_units, layer_units = _metric_units()
    if trace:
        traced = passes[1]
        values = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name in traced[0]["layers"]
        }
        values["trace.overhead_ratio"] = (
            statistics.median(p["wall_s"] for p in traced)
            / statistics.median(p["wall_s"] - p["probe_s"] for p in untraced)
            - 1
        )
        units = layer_units
    else:
        values = {
            "setup_s": statistics.median(p["setup_s"] for p in probes + untraced),
            "wall_ref_s": statistics.median(wall_ref),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
            "ok_ratio": (len(items) - len(failed)) / len(items),
        }
        units = e2e_units
    if set(values) != set(units):
        raise BenchError(
            f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}"
        )
    result = {
        "correct": not failed,
        "attempted": len(items),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    info = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "passes": len(untraced),
        "traced_passes": len(passes.get(1, [])),
        "setup_s_samples": [p["setup_s"] for p in probes],
        "setup_wall_s_samples": [p["setup_wall_s"] for p in probes],
        "wall_s": statistics.median(wall),
        "wall_s_samples": wall,
        "wall_ref_s_samples": wall_ref,
        "speed_samples": [p["speed_samples"] for p in untraced],
        "failed_ratio": len(failed) / len(items),
        "failed_items": failed[:10],
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": _commit(),
        **untraced[0]["env"],
    }
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans = [p["spans"] for p in passes[1]]
        path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
        path.write_text(json.dumps({"info": info, "passes": spans}) + "\n")
    return result, info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run stops its pass too: subprocess.run kills and waits
    # for the child when the exception raised here passes through it
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
