#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs ``run.py`` once per seed on each named workload, one run at a
time, and prints for every end-to-end metric the distance between the
first and third quartile of its values (``statistics.quantiles(values,
n=4)``) as a share of their median, next to the metric's bound from
``BENCHMARK.json``. The same figures are printed for the unscaled
(``raw``) host times from each run's report, which is how the scaling
by the reference kernel is judged.

Run from the repository root::

    python3 perfbench/spread.py --workloads characterize ladder service \\
        --seeds 1 2 3 4 5 6 7 8 9 10
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    """(median, IQR / median) of a sample of at least two values."""
    quartiles = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (quartiles[2] - quartiles[0]) / median


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int,
                        default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", help="also write every run's figures "
                        "here as JSON")
    args = parser.parse_args(argv)
    table = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            started = time.monotonic()
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            wall = time.monotonic() - started
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            with open(os.path.join(
                    HERE, "out",
                    f"{workload}-seed{seed}-trace0.json")) as handle:
                report = json.load(handle)
            runs.append({
                "seed": seed, "wall_s": wall,
                "correct": result["correct"], "failed": result["failed"],
                "metrics": {k: v["value"]
                            for k, v in result["metrics"].items()},
                "raw": dict(report["raw"],
                            setup_s=report["setup_s"]["raw"]),
            })
            print(f"{workload} seed {seed}: {wall:.1f}s "
                  f"correct={result['correct']} "
                  + " ".join(f"{k}={v:.4g}"
                             for k, v in runs[-1]["metrics"].items()),
                  flush=True)
        table[workload] = runs
        for name in runs[0]["metrics"]:
            median, share = spread([r["metrics"][name] for r in runs])
            line = (f"  {workload:12s} {name:14s} median {median:10.4g} "
                    f"spread {share:6.3f} (bound {bounds.get(name)})")
            if name in runs[0]["raw"]:
                raw_median, raw_share = spread(
                    [r["raw"][name] for r in runs])
                line += f"  raw {raw_median:10.4g} spread {raw_share:6.3f}"
            print(line, flush=True)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(table, handle, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
