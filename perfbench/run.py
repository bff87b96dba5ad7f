#!/usr/bin/env python3
"""Builds and runs the uclean repository benchmark.

    python3 perfbench/run.py --workload read --seed 1 --seconds 20 --trace 0

Configures and builds the benchmark package (this directory's
CMakeLists.txt, which builds the library from the repository sources) into
.bench_build/ at the checkout root, runs the oracle's self-test, then runs
one workload in its own process. The last line of standard output is the
result object {"correct", "attempted", "failed", "metrics"}; --trace 0
reports the end-to-end metrics, --trace 1 the per-layer metrics of the
traced run. See perfbench/README.md for the workloads and metrics.

Exits non-zero without printing a result when the build or the self-test
fails (for example outside a repository checkout) or the workload fails.
"""

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("read", "mixed", "campaign", "solo")
# A run must end within 180 s; the build of a fresh checkout is allowed
# longer and is not counted against the workload.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures (once) and builds the benchmark and its oracle self-test;
    returns the directory holding both binaries, or None."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "perfbench_oracle_test", "-j", jobs])
    started = time.monotonic()
    with open(log_path, "w") as out:
        for step in steps:
            code = subprocess.call(step, stdout=out, stderr=subprocess.STDOUT)
            if code != 0:
                out.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                log("build failed (%s):\n%s" % (" ".join(step), "\n".join(tail)))
                # A failed configure must not leave a cache that skips the
                # configure step next time.
                cache = build_dir / "CMakeCache.txt"
                if len(steps) == 2 and cache.exists():
                    cache.unlink()
                return None
    log("build ready in %.1f s" % (time.monotonic() - started))
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path(__file__).resolve().parent.parent
    build_dir = root / ".bench_build"
    if build(root, build_dir) is None:
        return 2
    self_test = subprocess.run([str(build_dir / "perfbench_oracle_test")],
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                               text=True, timeout=RUN_TIMEOUT_S)
    if self_test.returncode != 0:
        log("oracle self-test failed:\n" + self_test.stdout)
        return 2

    work_dir = build_dir / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    command = [str(build_dir / "perfbench"), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", repr(args.seconds), "--trace",
               str(args.trace), "--workdir", str(work_dir)]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE,
                                timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log("workload exceeded %d s and was stopped" % RUN_TIMEOUT_S)
        return 3
    if result.returncode != 0:
        log("workload exited with code %d" % result.returncode)
        return result.returncode if result.returncode > 0 else 4
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
