#!/usr/bin/env python3
"""Bench-regression gate: compares BENCH_*.json speedups against
checked-in floors and fails (exit 1) when any floor is broken.

Usage: check_bench.py BENCH_incremental.json BENCH_multik.json \
       BENCH_pool.json ...

The floors are deliberately well below locally measured medians (CI
runners are slower and noisier; see bench/README.md for the measured
numbers) but high enough that a real regression -- a lost sharing effect,
an accidental O(n) rescan, a broken suffix replay -- trips them. Raise a
floor when a PR improves the bench for good; never lower one to make CI
pass without understanding what regressed.
"""

import json
import sys

# ---------------------------------------------------------------- floors
# bench_incremental: CleaningSession vs the historical copy-rebuild-rescan
# loop. Locally ~40-80x; the original acceptance target was 5x.
INCREMENTAL_FLOOR = 5.0

# bench_multik: one ladder session vs per-k one-shot reruns ("rescan")
# and vs per-k incremental sessions ("sessions"), keyed by
# (workload, ladder_name). Locally measured medians in bench/README.md.
MULTIK_FLOORS = {
    # (workload, ladder): (speedup_vs_rescan, speedup_vs_sessions)
    ("unit", "geometric"): (2.0, 1.6),
    ("unit", "arithmetic"): (2.2, 1.6),
    ("unit", "dense_top"): (3.0, 2.0),  # the >=3x acceptance gate
    ("unit", "curve"): (3.5, 2.5),
    ("subunit", "geometric"): (1.4, 1.2),
    ("subunit", "arithmetic"): (1.8, 1.5),
    ("subunit", "dense_top"): (2.4, 2.0),
    ("subunit", "curve"): (3.0, 2.5),
}

# Per-rung quality trajectories must agree across arms; anything above
# this is a correctness bug, not noise.
MULTIK_QUALITY_TOL = 1e-9

# bench_pool: SessionPool (N pooled copy-on-write sessions over one
# shared scan) vs N dedicated CleaningSessions, keyed by
# (workload, regime, sessions). Locally measured medians in
# bench/README.md: oneshot ~2.5-2.9x, interactive ~2.0x, batch ~1.25x.
POOL_FLOORS = {
    ("unit", "oneshot", 8): 2.0,  # the >=2x acceptance gate
    ("unit", "interactive", 8): 1.4,
    ("unit", "batch", 8): 1.05,
    ("subunit", "oneshot", 8): 2.0,
    ("subunit", "interactive", 8): 1.4,
}

# Pooled and dedicated sessions run the exact same scan arithmetic from
# the same snapshots; their per-session qualities agree bitwise, so the
# tolerance is effectively "exactly equal".
POOL_QUALITY_TOL = 1e-12

# bench_shard: the rank-range sharded parallel scan vs the sequential
# path, keyed by (regime, threads). Speedup floors are HARDWARE-RELATIVE
# -- the JSON records the machine's hardware_concurrency, and the floor
# applied is the first row whose core minimum the machine meets:
#   >= 4 cores: the full floors (the >=2x oneshot acceptance gate;
#               locally-measured numbers in bench/README.md),
#   2-3 cores:  scaled-down floors,
#   1 core:     only "not pathologically slower" (threads cost overhead
#               but the sharded path must stay within ~2x of sequential).
# Correctness is NOT hardware-relative: parallel output must match the
# sequential scan to 1e-12 (bitwise in practice -- shard cuts sit on the
# count-refresh grid) on every machine, every arm.
SHARD_FLOORS = {
    # (regime, threads): [(min_cores, floor), ...] first match wins.
    ("oneshot", 8): [(4, 2.0), (2, 1.2), (1, 0.45)],
    ("oneshot", 4): [(4, 1.8), (2, 1.2), (1, 0.45)],
    ("oneshot", 2): [(2, 1.3), (1, 0.45)],
    ("oneshot", 1): [(1, 0.8)],  # the 1-thread arm IS the sequential path
    ("ladder", 8): [(4, 1.4), (2, 1.1), (1, 0.45)],
    ("ladder", 4): [(4, 1.4), (2, 1.1), (1, 0.45)],
    ("ladder", 2): [(2, 1.15), (1, 0.45)],
    ("ladder", 1): [(1, 0.8)],
    ("pooled", 8): [(4, 1.3), (2, 1.1), (1, 0.45)],
    ("pooled", 4): [(4, 1.3), (2, 1.1), (1, 0.45)],
    ("pooled", 2): [(2, 1.1), (1, 0.45)],
    ("pooled", 1): [(1, 0.8)],
}

SHARD_EQUALITY_TOL = 1e-12

# bench_pipeline: the pipelined adaptive pool loop (each round's
# per-session plan + draw steps run concurrently on the exec pool, one
# concurrent RefreshAll per round) vs the serial reference loop at N=8
# sessions, keyed by (regime, threads). Floors are HARDWARE-RELATIVE
# like bench_shard's, but the probe_latency win is SCHEDULER-driven, not
# core-driven -- sleeping probes release their core, so overlap pays even
# single-core (locally ~2/3.5/5.6x at 2/4/8 threads ON ONE CORE; the
# 4096-live grid constraint that binds scan drivers is irrelevant here
# because the pipeline never splits a scan -- rounds parallelize across
# sessions, replays go through the already-gated sharded path). The
# >=1.5x acceptance gate applies at >= 4 cores; zero_latency is the
# overhead guard (no waiting to overlap; the pipeline must just not be
# pathologically slower than serial).
# Correctness is NOT hardware-relative: pipelined per-session state must
# be bitwise equal to serial on every machine, every arm.
PIPELINE_FLOORS = {
    # (regime, threads): [(min_cores, floor), ...] first match wins.
    ("probe_latency", 8): [(4, 1.5), (1, 1.3)],  # the acceptance gate
    ("probe_latency", 4): [(4, 1.5), (1, 1.2)],
    ("probe_latency", 2): [(1, 1.15)],
    ("zero_latency", 8): [(1, 0.35)],
    ("zero_latency", 4): [(1, 0.35)],
    ("zero_latency", 2): [(1, 0.35)],
}


# bench_faults: fault-tolerant probe execution. Three gates:
#  * zero-fault overhead: enabling the fault layer at fail rate 0 must
#    cost <= 3% (ratio of each arm's fastest order-alternated batch) and
#    commit the EXACT same campaign (quality diff 0.0, spent equal) --
#    zero-probability fault draws never consume the engine.
#  * degradation, not collapse: at a 20% transient-failure rate the
#    retry/reinvest loop must recover >= 90% of the zero-fault quality
#    improvement at every budget.
#  * determinism: serial and pipelined pooled campaigns must commit
#    bitwise-identical outcomes (fault counters included) at every rate.
FAULTS_OVERHEAD_CEILING = 1.03
FAULTS_RECOVERY_FLOOR = 0.90
# (budget, fail_rate) series the JSON must contain.
FAULTS_SERIES = {
    (150, 0.0), (150, 0.05), (150, 0.2),
    (400, 0.0), (400, 0.05), (400, 0.2),
}


# bench_kernel: the runtime-dispatched scan kernels on the SoA core,
# single thread. Four gates:
#  * scalar overhead: the SoA scalar path vs the fused pre-refactor
#    reference loop must stay within 3% (the emit_segment fusion makes
#    it measurably FASTER locally, ~0.89x; the ceiling catches a future
#    de-fusing regression).
#  * AVX2 speedup on the fold-bound independent workload: the >=1.5x
#    acceptance gate (locally ~1.9x single-thread). Applied only when
#    the machine reports AVX2 -- the forced-scalar leg and non-x86 hosts
#    skip it.
#  * AVX2 parity on the divide-out-bound alternatives workload: the
#    divide-out is sequential within a tuple (both kernel tables run the
#    same scalar chained code there), so AVX2 must merely not LOSE --
#    floor 0.95x.
#  * bitwise equality: every arm (reference, scalar, avx2) must agree
#    exactly -- max_abs_diff 0.0, not a tolerance. This is the kernel
#    contract the engine's checkpoints and replays depend on.
# The absolute throughput floor is HARDWARE-RELATIVE like bench_shard's
# (keyed on hardware_concurrency as a machine-class proxy): locally the
# single-core container does ~88K tuples/sec scalar on the independent
# workload; the floor only catches an order-of-magnitude collapse
# (an accidental O(k) rescan per tuple), not runner noise.
KERNEL_SCALAR_OVERHEAD_CEILING = 1.03
KERNEL_AVX2_INDEPENDENT_FLOOR = 1.5
KERNEL_AVX2_ALTERNATIVES_FLOOR = 0.95
# [(min_cores, scalar independent tuples/sec floor), ...] first match.
KERNEL_SCALAR_TPS_FLOORS = [(4, 30000), (1, 20000)]


# bench_snapshot: warm SessionPool::OpenFromSnapshot (file read + decode,
# zero scans) vs cold SessionPool::Create (full PSR scan + TP pass) plus
# P session opens, at k = 5000 on the sub-unit 10Kx2 workload. Locally
# ~53x at 8 sessions and ~14x at 64 (the per-session fork cost is paid
# by BOTH arms, so the ratio compresses as P grows); the acceptance gate
# is >= 10x at the 64-session point. Correctness is absolute: the warm
# pool must re-serialize to the cold pool's exact bytes on every machine.
SNAPSHOT_SPEEDUP_FLOOR = 10.0
SNAPSHOT_GATED_SESSIONS = 64
SNAPSHOT_SERIES = {8, 64}

# bench_serve: the serving front-end's traffic replay, admission batching
# on vs off over identical seeded streams. The batched speedup comes from
# WORK REMOVED (one shared ladder scan per round instead of one scan per
# request), not work parallelized, so it holds on any core count -- but
# CI runners queue differently under load, so the floor is cores-aware:
# the >=1.5x acceptance gate at >= 4 cores, parity at 1 core (locally
# ~2.1x even single-core). `bitwise_equal` is the correctness gate:
# normalized replies must be identical across arms and reps on every
# machine. The QPS floor only catches an order-of-magnitude collapse.
SERVE_SPEEDUP_FLOORS = [(4, 1.5), (1, 1.0)]  # [(min_cores, floor), ...]
SERVE_QPS_FLOORS = [(4, 500.0), (1, 200.0)]
SERVE_ARMS = {"per_request", "batched"}

# Every bench JSON must carry kernel/threads provenance -- throughput
# numbers are meaningless without the kernel that produced them.
KNOWN_KERNELS = {"scalar", "avx2"}


def check_kernel(doc):
    failures = []
    cores = doc.get("hardware_concurrency", 1) or 1
    avx2 = doc["avx2"]
    overhead = doc["scalar_vs_reference"]
    print(
        f"kernel scalar_vs_reference: {overhead:.3f}x "
        f"(ceiling {KERNEL_SCALAR_OVERHEAD_CEILING}), avx2 {avx2}"
    )
    if overhead > KERNEL_SCALAR_OVERHEAD_CEILING:
        failures.append(
            f"kernel: SoA scalar path costs {overhead:.3f}x the fused "
            f"reference loop (ceiling {KERNEL_SCALAR_OVERHEAD_CEILING}x)"
        )
    if avx2:
        ind = doc["independent_avx2_vs_scalar"]
        alt = doc["alternatives_avx2_vs_scalar"]
        print(
            f"kernel independent avx2_vs_scalar: {ind:.2f}x "
            f"(floor {KERNEL_AVX2_INDEPENDENT_FLOOR}), "
            f"alternatives {alt:.2f}x "
            f"(floor {KERNEL_AVX2_ALTERNATIVES_FLOOR})"
        )
        if ind < KERNEL_AVX2_INDEPENDENT_FLOOR:
            failures.append(
                f"kernel: AVX2 {ind:.2f}x < "
                f"{KERNEL_AVX2_INDEPENDENT_FLOOR}x on the fold-bound "
                f"independent workload"
            )
        if alt < KERNEL_AVX2_ALTERNATIVES_FLOOR:
            failures.append(
                f"kernel: AVX2 {alt:.2f}x < "
                f"{KERNEL_AVX2_ALTERNATIVES_FLOOR}x on the divide-out-bound "
                f"alternatives workload"
            )
    if not doc["bitwise_equal"]:
        failures.append("kernel: arms are not bitwise equal")
    tps_floor = next(
        f for min_cores, f in KERNEL_SCALAR_TPS_FLOORS if cores >= min_cores
    )
    seen = set()
    for series in doc["series"]:
        key = (series["workload"], series["arm"])
        seen.add(key)
        diff = series["max_abs_diff"]
        label = f"kernel {key[0]}/{key[1]}"
        print(
            f"{label}: {series['tuples_per_sec']} tuples/sec, "
            f"max diff {diff:.1e}"
        )
        if diff != 0.0:
            failures.append(
                f"{label}: diverges from the scalar arm by {diff:.3e} "
                f"(must be bitwise equal)"
            )
        if key == ("independent", "scalar"):
            tps = series["tuples_per_sec"]
            if tps < tps_floor:
                failures.append(
                    f"{label}: {tps} tuples/sec < {tps_floor} floor "
                    f"at {cores} cores"
                )
    required = {("independent", "reference"), ("independent", "scalar"),
                ("alternatives", "scalar")}
    if avx2:
        required |= {("independent", "avx2"), ("alternatives", "avx2")}
    for key in required:
        if key not in seen:
            failures.append(f"kernel {key}: series missing from the JSON")
    return failures


def check_faults(doc):
    failures = []
    overhead = doc["overhead"]
    ratio = overhead["ratio"]
    zero_diff = overhead["quality_diff_at_zero"]
    spent_equal = overhead["spent_equal"]
    print(
        f"faults overhead: ratio {ratio:.3f} "
        f"(ceiling {FAULTS_OVERHEAD_CEILING}), quality diff {zero_diff:.1e}, "
        f"spent_equal {spent_equal}"
    )
    if ratio > FAULTS_OVERHEAD_CEILING:
        failures.append(
            f"faults: rate-0 overhead {ratio:.3f}x > "
            f"{FAULTS_OVERHEAD_CEILING}x ceiling"
        )
    if zero_diff != 0.0 or not spent_equal:
        failures.append(
            f"faults: rate-0 campaign diverges from fault-off "
            f"(quality diff {zero_diff:.3e}, spent_equal {spent_equal}; "
            f"must be bitwise identical)"
        )
    seen = set()
    for series in doc["series"]:
        key = (series["budget"], series["fail_rate"])
        seen.add(key)
        recovered = series["recovered_fraction"]
        equal = series["outcomes_equal"]
        label = f"faults budget={key[0]}/rate={key[1]:.2f}"
        print(
            f"{label}: recovered {recovered:.3f} "
            f"(floor {FAULTS_RECOVERY_FLOOR}), retries {series['retries']}, "
            f"failed {series['failed_probes']}, outcomes_equal {equal}"
        )
        if recovered < FAULTS_RECOVERY_FLOOR:
            failures.append(
                f"{label}: recovered {recovered:.3f} < "
                f"{FAULTS_RECOVERY_FLOOR} of the zero-fault improvement"
            )
        if not equal:
            failures.append(
                f"{label}: serial and pipelined pooled campaigns commit "
                f"different outcomes (must be bitwise equal)"
            )
    for key in FAULTS_SERIES:
        if key not in seen:
            failures.append(f"faults {key}: series missing from the JSON")
    return failures


def check_incremental(doc):
    failures = []
    for series in doc["series"]:
        speedup = series["speedup"]
        label = f"incremental k={series['k']} rounds={series['rounds']}"
        print(f"{label}: speedup {speedup:.2f}x (floor {INCREMENTAL_FLOOR})")
        if speedup < INCREMENTAL_FLOOR:
            failures.append(f"{label}: {speedup:.2f}x < {INCREMENTAL_FLOOR}x")
    return failures


def check_multik(doc):
    failures = []
    seen = set()
    for series in doc["series"]:
        key = (series["workload"], series["ladder_name"])
        seen.add(key)
        if key not in MULTIK_FLOORS:
            failures.append(f"multik {key}: no checked-in floor (add one)")
            continue
        rescan_floor, sessions_floor = MULTIK_FLOORS[key]
        rescan = series["speedup_vs_rescan"]
        sessions = series["speedup_vs_sessions"]
        diff = series["max_quality_diff"]
        label = f"multik {key[0]}/{key[1]}"
        print(
            f"{label}: vs_rescan {rescan:.2f}x (floor {rescan_floor}), "
            f"vs_sessions {sessions:.2f}x (floor {sessions_floor}), "
            f"quality diff {diff:.1e}"
        )
        if rescan < rescan_floor:
            failures.append(
                f"{label}: vs_rescan {rescan:.2f}x < {rescan_floor}x"
            )
        if sessions < sessions_floor:
            failures.append(
                f"{label}: vs_sessions {sessions:.2f}x < {sessions_floor}x"
            )
        if diff > MULTIK_QUALITY_TOL:
            failures.append(
                f"{label}: per-rung qualities diverge by {diff:.3e} "
                f"(tol {MULTIK_QUALITY_TOL})"
            )
    for key in MULTIK_FLOORS:
        if key not in seen:
            failures.append(f"multik {key}: series missing from the JSON")
    return failures


def check_pool(doc):
    failures = []
    seen = set()
    for series in doc["series"]:
        key = (series["workload"], series["regime"], series["sessions"])
        seen.add(key)
        if key not in POOL_FLOORS:
            failures.append(f"pool {key}: no checked-in floor (add one)")
            continue
        floor = POOL_FLOORS[key]
        speedup = series["speedup"]
        diff = series["max_quality_diff"]
        label = f"pool {key[0]}/{key[1]}/N={key[2]}"
        print(
            f"{label}: speedup {speedup:.2f}x (floor {floor}), "
            f"quality diff {diff:.1e}"
        )
        if speedup < floor:
            failures.append(f"{label}: {speedup:.2f}x < {floor}x")
        if diff > POOL_QUALITY_TOL:
            failures.append(
                f"{label}: per-session qualities diverge by {diff:.3e} "
                f"(tol {POOL_QUALITY_TOL})"
            )
    for key in POOL_FLOORS:
        if key not in seen:
            failures.append(f"pool {key}: series missing from the JSON")
    return failures


def check_shard(doc):
    failures = []
    cores = doc.get("hardware_concurrency", 1) or 1
    seen = set()
    for series in doc["series"]:
        key = (series["regime"], series["threads"])
        seen.add(key)
        if key not in SHARD_FLOORS:
            failures.append(f"shard {key}: no checked-in floor (add one)")
            continue
        floor = next(
            f for min_cores, f in SHARD_FLOORS[key] if cores >= min_cores
        )
        speedup = series["speedup"]
        diff = series["max_abs_diff"]
        label = f"shard {key[0]}/threads={key[1]}"
        print(
            f"{label}: speedup {speedup:.2f}x "
            f"(floor {floor} at {cores} cores), max diff {diff:.1e}"
        )
        if speedup < floor:
            failures.append(f"{label}: {speedup:.2f}x < {floor}x")
        if diff > SHARD_EQUALITY_TOL:
            failures.append(
                f"{label}: parallel output diverges from sequential by "
                f"{diff:.3e} (tol {SHARD_EQUALITY_TOL})"
            )
    for key in SHARD_FLOORS:
        if key not in seen:
            failures.append(f"shard {key}: series missing from the JSON")
    return failures


def check_pipeline(doc):
    failures = []
    cores = doc.get("hardware_concurrency", 1) or 1
    seen = set()
    for series in doc["series"]:
        key = (series["regime"], series["threads"])
        seen.add(key)
        if key not in PIPELINE_FLOORS:
            failures.append(f"pipeline {key}: no checked-in floor (add one)")
            continue
        floor = next(
            f for min_cores, f in PIPELINE_FLOORS[key] if cores >= min_cores
        )
        speedup = series["speedup"]
        diff = series["max_quality_diff"]
        label = f"pipeline {key[0]}/threads={key[1]}"
        print(
            f"{label}: speedup {speedup:.2f}x "
            f"(floor {floor} at {cores} cores), quality diff {diff:.1e}, "
            f"logs_equal {series['logs_equal']}"
        )
        if speedup < floor:
            failures.append(f"{label}: {speedup:.2f}x < {floor}x")
        if diff != 0.0 or not series["logs_equal"]:
            failures.append(
                f"{label}: pipelined state diverges from serial "
                f"(quality diff {diff:.3e}, logs_equal "
                f"{series['logs_equal']}; must be bitwise equal)"
            )
    for key in PIPELINE_FLOORS:
        if key not in seen:
            failures.append(f"pipeline {key}: series missing from the JSON")
    return failures


def check_snapshot(doc):
    failures = []
    seen = set()
    for series in doc["series"]:
        sessions = series["sessions"]
        seen.add(sessions)
        speedup = series["speedup"]
        equal = series["bitwise_equal"]
        label = f"snapshot sessions={sessions}"
        print(
            f"{label}: warm-vs-cold {speedup:.2f}x, "
            f"{series['bytes_per_tuple']:.1f} bytes/tuple, "
            f"save {series['save_mb_per_s']:.1f} MB/s, "
            f"load {series['load_mb_per_s']:.1f} MB/s, "
            f"bitwise_equal {equal}"
        )
        if not equal:
            failures.append(
                f"{label}: warm pool re-serializes to different bytes than "
                f"the cold pool (decode is lossy; must be bitwise equal)"
            )
        if (
            sessions == SNAPSHOT_GATED_SESSIONS
            and speedup < SNAPSHOT_SPEEDUP_FLOOR
        ):
            failures.append(
                f"{label}: warm start {speedup:.2f}x < "
                f"{SNAPSHOT_SPEEDUP_FLOOR}x over the cold scan"
            )
    for sessions in SNAPSHOT_SERIES:
        if sessions not in seen:
            failures.append(
                f"snapshot sessions={sessions}: series missing from the JSON"
            )
    return failures


def check_serve(doc):
    failures = []
    cores = doc.get("cores", 1) or 1
    expected = doc["clients"] * doc["requests_per_client"]
    speedup = doc["batched_speedup"]
    equal = doc["bitwise_equal"]
    speedup_floor = next(
        f for min_cores, f in SERVE_SPEEDUP_FLOORS if cores >= min_cores
    )
    qps_floor = next(
        f for min_cores, f in SERVE_QPS_FLOORS if cores >= min_cores
    )
    print(
        f"serve: batched speedup {speedup:.2f}x "
        f"(floor {speedup_floor} at {cores} cores), bitwise_equal {equal}"
    )
    if not equal:
        failures.append(
            "serve: normalized replies differ across batching arms/reps "
            "(batching must never change an answer)"
        )
    if speedup < speedup_floor:
        failures.append(
            f"serve: batched speedup {speedup:.2f}x < {speedup_floor}x "
            f"at {cores} cores"
        )
    seen = set()
    for arm in doc["arms"]:
        seen.add(arm["name"])
        qps = arm["median_qps"]
        label = f"serve {arm['name']}"
        print(
            f"{label}: {qps:.1f} QPS (floor {qps_floor}), "
            f"p50 {arm['p50_ms']:.3f} ms, p99 {arm['p99_ms']:.3f} ms, "
            f"{arm['replies']} replies"
        )
        if qps < qps_floor:
            failures.append(
                f"{label}: {qps:.1f} QPS < {qps_floor} floor at {cores} cores"
            )
        if arm["replies"] != expected:
            failures.append(
                f"{label}: served {arm['replies']} replies, want {expected} "
                f"(requests were dropped or duplicated)"
            )
    for name in SERVE_ARMS:
        if name not in seen:
            failures.append(f"serve {name}: arm missing from the JSON")
    return failures


def check_provenance(path, doc):
    """Every bench doc must say which kernel produced its numbers and how
    wide the executor ran; a JSON without them is unreviewable."""
    failures = []
    kernel = doc.get("kernel")
    if kernel not in KNOWN_KERNELS:
        failures.append(
            f"{path}: kernel {kernel!r} not in {sorted(KNOWN_KERNELS)} "
            f"(every bench must record its resolved scan kernel)"
        )
    threads = doc.get("threads")
    if not isinstance(threads, int) or threads < 1:
        failures.append(
            f"{path}: threads {threads!r} invalid (every bench must record "
            f"the widest executor it drove, >= 1)"
        )
    return failures


CHECKERS = {
    "faults": check_faults,
    "incremental": check_incremental,
    "kernel": check_kernel,
    "multik": check_multik,
    "pipeline": check_pipeline,
    "pool": check_pool,
    "serve": check_serve,
    "shard": check_shard,
    "snapshot": check_snapshot,
}


def main(argv):
    if len(argv) < 2:
        print(__doc__)
        return 2
    failures = []
    for path in argv[1:]:
        with open(path) as f:
            doc = json.load(f)
        bench = doc.get("bench")
        checker = CHECKERS.get(bench)
        if checker is None:
            failures.append(f"{path}: unknown bench '{bench}'")
            continue
        failures.extend(check_provenance(path, doc))
        failures.extend(checker(doc))
    if failures:
        print("\nBENCH REGRESSION:")
        for failure in failures:
            print(f"  FAIL {failure}")
        return 1
    print("\nall bench floors hold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
