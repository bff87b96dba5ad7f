#!/usr/bin/env python3
"""Measures how steady the benchmark is across workload seeds.

    python3 perfbench/spread.py --workloads read,solo

Runs perfbench/run.py once per workload on each of seeds 1..10, then
prints, for every end-to-end metric of BENCHMARK.json, its median and its
spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, beside the
metric's bound. The benchmark is steady when every spread stays below its
bound; aim for a third of it. Exits non-zero when a run fails or reports
correct: false.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SEEDS = range(1, 11)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in SEEDS:
            command = [sys.executable, str(root / "perfbench" / "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            run = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                                 text=True)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {run.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                ok = False
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}"
                             for k, v in result["metrics"].items()),
                  flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, series in values.items():
            median = statistics.median(series)
            line = f"  {workload:8s} {name:36s} median {median:12.6g}"
            if len(series) >= 2 and median != 0:
                q1, _, q3 = statistics.quantiles(series, n=4)
                line += f"  spread {(q3 - q1) / abs(median):6.3f}"
                line += f"  bound {bounds[name]:.3f}"
            print(line, flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
