"""One pass of one workload, in this process, printed as one JSON line.

    python3 perfbench/onepass.py --workload NAME --seed N --trace 0|1
    python3 perfbench/onepass.py --workload NAME --seed N --setup-only

``run.py`` starts a fresh process for every pass, so that nothing a
process caches carries over from one pass to the next and peak memory
belongs to one pass.  Set-up (the ``tpcert`` import and the inputs) is
timed on its own; the pass is timed from the first item to the last.
Set-up and untraced passes are timed at the reference speed
(``speedprobe.py``); their wall times, less the probe's own time, are
reported too.  Output checks run after the timed region.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext

import workloads
from speedprobe import SpeedProbe
from tracing import Tracer


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(workloads.ROOT / "src"))
    probe = SpeedProbe()
    t0 = time.perf_counter()
    with probe:
        inputs = workloads.setup(args.workload, args.seed)
    setup_wall_s = time.perf_counter() - t0
    out = {
        "setup_s": probe.at_reference(setup_wall_s),
        "setup_wall_s": setup_wall_s - probe.probe_s,
    }
    if args.setup_only:
        print(json.dumps(out))
        return 0

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    # the host's speed is sampled in untraced passes only, so that no span
    # holds probe time
    probe = SpeedProbe() if tracer is None else None
    t1 = time.perf_counter()
    with probe or nullcontext():
        outcome = workloads.run_pass(args.workload, inputs, tracer)
    wall_s = time.perf_counter() - t1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    items = workloads.check_outputs(args.workload, outcome, args.seed)
    out.update(wall_s=wall_s, peak_rss_mb=peak_rss_mb, items=items, env=_environment())
    if probe is not None:
        out.update(
            ref_s=probe.at_reference(wall_s),
            probe_s=probe.probe_s,
            speed_samples=len(probe.samples),
        )
    else:
        workloads.check_counters(items, tracer.spans)
        layers = tracer.layer_metrics()
        layers["families.construct_s"] = inputs.get("construct_s", 0.0)
        timings = {}
        if args.workload == "plan-batch":
            timings = workloads.check_report_timings(outcome["stdout"])
        for kind in workloads.CHECK_KINDS:
            layers[f"cli.check.{kind}_s"] = timings.get(kind, 0.0)
        out.update(layers=layers, spans=tracer.spans)
    print(json.dumps(out))
    return 0


def _environment() -> dict:
    from tpcert import polyring

    return {
        "python": sys.version.split()[0],
        "backend": "gmpy2" if polyring.mpq.__module__.startswith("gmpy2") else "fractions",
    }


if __name__ == "__main__":
    sys.exit(main())
