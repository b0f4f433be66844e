#!/usr/bin/env bash
# Serving-path benchmark harness (DESIGN.md §11): measures the warm request
# served off the benefit index against the same request made cold by a full
# inference, and emits one merged JSON artifact.
#
#   scripts/bench.sh [--quick] [--out=PATH] [--build-dir=DIR]
#
# Runs, from a Release build:
#   1. bench_micro --benchmark_filter=BM_ServeRequestTasks — ns/op and
#      allocations/op for the warm request and the cold one (the same shape
#      after an untimed full inference staled the worker's cache row and
#      index);
#   2. bench_server --mode=warm and --mode=mixed — end-to-end wire latency
#      percentiles (p50/p95/p99) over real TCP;
#   3. the §13 scaling sweeps: bench_server --mode=mixed over
#      --reactors={1,2,4} (at 4 connections) and --connections={1,2,4,8}
#      (at 2 reactors);
#   4. the §15 inference-mode sweep: bench_server --mode=mixed
#      --reinfer=100 in sync and async inference modes, comparing
#      per-op-type (RequestTasks vs SubmitAnswer) latency tails while the
#      periodic full EM churns;
# then merges 1+2 into BENCH_5.json, 3 into BENCH_7.json, 4 into
# BENCH_9.json, and the §16 benefit-index scaling sweep (bench_micro
# BM_ServeRequestTasksWarmSweep over n = 1k/10k/100k tasks, part of run 1)
# into BENCH_10.json (all at the repo root by default) and gates on the
# acceptance ratios: the warm request must beat the cold one on wall time
# (§11; the warm request's heap allocations are pinned exactly by the
# serving_alloc_test ctest); on multi-core hardware mixed throughput must
# increase
# monotonically from 1 reactor to N (§13) and async RequestTasks p99 must
# stay within 110% of sync's (§15); the index-served warm path must be
# sub-linear in the task count — ns/op at 100k tasks under 3x the 10k
# figure, where a linear path would be ~10x (§16). On a single-core host
# the scaling and async-p99 gates are skipped and the artifacts record the
# caveat instead — reactors and the inference thread can only interleave
# there, not overlap. The §16 gate runs everywhere: it compares two
# single-threaded runs of the same binary, so core count cannot bias it.
#
#   --quick      CI smoke sizing: shorter runs, artifacts written into the
#                build tree instead of replacing the committed BENCH_5.json
#                and BENCH_7.json. The acceptance gates still apply.
#   --build-dir  reuse an existing Release build tree (e.g. build-release
#                from scripts/ci.sh) instead of configuring build-bench.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

QUICK=0
OUT=""
BUILD_DIR=""
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    --out=*) OUT="${arg#--out=}" ;;
    --build-dir=*) BUILD_DIR="${arg#--build-dir=}" ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

if [[ -z "$BUILD_DIR" ]]; then
  BUILD_DIR="$ROOT/build-bench"
  echo "=== [bench] configure + build ($BUILD_DIR, Release) ==="
  cmake -S "$ROOT" -B "$BUILD_DIR" -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$BUILD_DIR" -j"$JOBS" --target bench_micro bench_server \
    >/dev/null
fi
if [[ -z "$OUT" ]]; then
  if [[ "$QUICK" == 1 ]]; then OUT="$BUILD_DIR/BENCH_5.quick.json"
  else OUT="$ROOT/BENCH_5.json"; fi
fi
if [[ "$QUICK" == 1 ]]; then OUT7="$BUILD_DIR/BENCH_7.quick.json"
else OUT7="$ROOT/BENCH_7.json"; fi
if [[ "$QUICK" == 1 ]]; then OUT9="$BUILD_DIR/BENCH_9.quick.json"
else OUT9="$ROOT/BENCH_9.json"; fi
if [[ "$QUICK" == 1 ]]; then OUT10="$BUILD_DIR/BENCH_10.quick.json"
else OUT10="$ROOT/BENCH_10.json"; fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

if [[ "$QUICK" == 1 ]]; then
  MICRO_ARGS=(--benchmark_min_time=0.05)
  SERVER_CONNECTIONS=2
  SERVER_OPS=300
  SWEEP_OPS=150
else
  MICRO_ARGS=()
  SERVER_CONNECTIONS=4
  SERVER_OPS=2000
  SWEEP_OPS=1000
fi

echo "=== [bench] bench_micro serving path ==="
"$BUILD_DIR/bench/bench_micro" \
  --benchmark_filter='BM_ServeRequestTasks' \
  --benchmark_out="$TMP/micro.json" --benchmark_out_format=json \
  "${MICRO_ARGS[@]}"

echo "=== [bench] bench_server --mode=warm ==="
"$BUILD_DIR/bench/bench_server" --mode=warm \
  --connections="$SERVER_CONNECTIONS" --ops="$SERVER_OPS" \
  --json="$TMP/server_warm.json"

echo "=== [bench] bench_server --mode=mixed ==="
"$BUILD_DIR/bench/bench_server" --mode=mixed \
  --connections="$SERVER_CONNECTIONS" --ops="$SERVER_OPS" \
  --json="$TMP/server_mixed.json"

python3 - "$TMP/micro.json" "$TMP/server_warm.json" "$TMP/server_mixed.json" \
  "$OUT" "$QUICK" <<'PY'
import json
import sys

micro_path, warm_path, mixed_path, out_path, quick = sys.argv[1:6]
with open(micro_path) as f:
    micro = json.load(f)

TIME_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

def entry(bench):
    return {
        "ns_per_op": bench["real_time"] * TIME_NS[bench["time_unit"]],
        "allocs_per_op": bench.get("allocs/op", 0.0),
        "iterations": bench["iterations"],
    }

benches = {
    b["name"]: entry(b)
    for b in micro["benchmarks"]
    if b.get("run_type", "iteration") == "iteration"
}
warm = benches["BM_ServeRequestTasksWarm"]
cold = benches["BM_ServeRequestTasksCold"]

def server(path):
    with open(path) as f:
        return json.load(f)

speedup = cold["ns_per_op"] / warm["ns_per_op"]
artifact = {
    "generated_by": "scripts/bench.sh" + (" --quick" if quick == "1" else ""),
    "micro": benches,
    "derived": {
        "cold_over_warm_speedup": speedup,
    },
    "server_warm": server(warm_path),
    "server_mixed": server(mixed_path),
}
with open(out_path, "w") as f:
    json.dump(artifact, f, indent=2, sort_keys=True)
    f.write("\n")

print(f"[bench] warm: {warm['ns_per_op']:.0f} ns/op, "
      f"{warm['allocs_per_op']:.1f} allocs/op")
print(f"[bench] cold: {cold['ns_per_op']:.0f} ns/op, "
      f"{cold['allocs_per_op']:.1f} allocs/op")
print(f"[bench] speedup {speedup:.1f}x -> {out_path}")

# Acceptance gate: the warm request wins on wall time over the same request
# made cold. (Its allocations are pinned by tests/serving_alloc_test.cc.)
if speedup <= 1.0:
    sys.exit(f"FAIL: warm path is not faster than cold ({speedup:.2f}x)")
PY

# --- §16 benefit-index scaling sweep -> BENCH_10.json ------------------------
# Reuses the bench_micro run above: the WarmSweep family covers n = 1k/10k/100k
# tasks. The runs are single-threaded runs of one binary, so the
# sub-linearity gate applies on any host.
python3 - "$TMP/micro.json" "$OUT10" "$QUICK" <<'PY'
import json
import sys

micro_path, out_path, quick = sys.argv[1:4]
with open(micro_path) as f:
    micro = json.load(f)

TIME_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

def entry(bench):
    return {
        "ns_per_op": bench["real_time"] * TIME_NS[bench["time_unit"]],
        "allocs_per_op": bench.get("allocs/op", 0.0),
        "iterations": bench["iterations"],
    }

benches = {
    b["name"]: entry(b)
    for b in micro["benchmarks"]
    if b.get("run_type", "iteration") == "iteration"
}
SIZES = (1000, 10000, 100000)
sweep = {n: benches[f"BM_ServeRequestTasksWarmSweep/n:{n}"] for n in SIZES}

# The sub-linearity evidence: a 10x task-count step moves the index-served
# warm path by the growth ratio below (log-ish); an O(n) path moves ~10x.
growth_index = sweep[100000]["ns_per_op"] / sweep[10000]["ns_per_op"]
artifact = {
    "generated_by": "scripts/bench.sh" + (" --quick" if quick == "1" else ""),
    "warm_sweep_index": {str(n): sweep[n] for n in SIZES},
    "derived": {
        "index_ns_growth_10k_to_100k": growth_index,
    },
    # Single-threaded ns/op comparisons of one binary against itself: no
    # single-core caveat applies (BENCH_7/9 precedent does not transfer).
    "single_core_caveat": False,
}
with open(out_path, "w") as f:
    json.dump(artifact, f, indent=2, sort_keys=True)
    f.write("\n")

for n in SIZES:
    print(f"[bench] warm n={n}: {sweep[n]['ns_per_op']:.0f} ns/op")
print(f"[bench] 10k->100k growth: {growth_index:.2f}x -> {out_path}")

# Acceptance gate (ISSUE 10): the index-served warm path must be sub-linear
# in n — a 10x task-count step may cost at most 3x the time (a linear warm
# path measures ~10x here; O(k log n) measures ~1x).
if growth_index >= 3.0:
    sys.exit(f"FAIL: warm index path is not sub-linear "
             f"({growth_index:.2f}x >= 3x for 10k -> 100k tasks)")
PY

# --- §13 scaling sweeps -> BENCH_7.json -------------------------------------
REACTOR_SWEEP=(1 2 4)
CONNECTION_SWEEP=(1 2 4 8)

for r in "${REACTOR_SWEEP[@]}"; do
  echo "=== [bench] bench_server --mode=mixed --reactors=$r (reactor sweep) ==="
  "$BUILD_DIR/bench/bench_server" --mode=mixed \
    --reactors="$r" --connections=4 --ops="$SWEEP_OPS" \
    --json="$TMP/reactors_$r.json"
done
for c in "${CONNECTION_SWEEP[@]}"; do
  echo "=== [bench] bench_server --mode=mixed --connections=$c (connection sweep) ==="
  "$BUILD_DIR/bench/bench_server" --mode=mixed \
    --reactors=2 --connections="$c" --ops="$SWEEP_OPS" \
    --json="$TMP/connections_$c.json"
done

CORES="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 1)"
python3 - "$TMP" "$OUT7" "$QUICK" "$CORES" \
  "${REACTOR_SWEEP[*]}" "${CONNECTION_SWEEP[*]}" <<'PY'
import json
import sys

tmp, out_path, quick, cores = sys.argv[1:5]
reactor_sweep = [int(r) for r in sys.argv[5].split()]
connection_sweep = [int(c) for c in sys.argv[6].split()]
cores = int(cores)

def load(path):
    with open(path) as f:
        return json.load(f)

reactors = {r: load(f"{tmp}/reactors_{r}.json") for r in reactor_sweep}
connections = {c: load(f"{tmp}/connections_{c}.json") for c in connection_sweep}

throughput = {r: reactors[r]["throughput_ops_s"] for r in reactor_sweep}
scaling = {
    f"{reactor_sweep[0]}_to_{r}": throughput[r] / throughput[reactor_sweep[0]]
    for r in reactor_sweep[1:]
}
single_core = cores <= 1
artifact = {
    "generated_by": "scripts/bench.sh" + (" --quick" if quick == "1" else ""),
    "hardware": {"cores": cores},
    "reactor_sweep": {str(r): reactors[r] for r in reactor_sweep},
    "connection_sweep": {str(c): connections[c] for c in connection_sweep},
    "derived": {
        "mixed_throughput_ops_s_by_reactors":
            {str(r): throughput[r] for r in reactor_sweep},
        "reactor_scaling": scaling,
    },
    # On one core the reactors time-slice instead of overlapping, so the
    # monotonic-throughput gate is meaningless there; the artifact says so
    # rather than silently passing.
    "single_core_caveat": single_core,
}
with open(out_path, "w") as f:
    json.dump(artifact, f, indent=2, sort_keys=True)
    f.write("\n")

for r in reactor_sweep:
    print(f"[bench] mixed, {r} reactor(s): {throughput[r]:,.0f} ops/s, "
          f"p99 {reactors[r]['p99_us']:.0f} us")
for c in connection_sweep:
    print(f"[bench] mixed, {c} connection(s) @ 2 reactors: "
          f"{connections[c]['throughput_ops_s']:,.0f} ops/s")
print(f"[bench] -> {out_path}")

# Acceptance gate (ISSUE 7): on multi-core hardware, mixed throughput must
# increase monotonically with the reactor count. Skipped (with the caveat
# recorded above) on a single core, where reactors can only interleave.
if single_core:
    print(f"[bench] single-core host ({cores} core): scaling gate skipped, "
          "caveat recorded in the artifact")
else:
    for lo, hi in zip(reactor_sweep, reactor_sweep[1:]):
        if throughput[hi] <= throughput[lo]:
            sys.exit(f"FAIL: mixed throughput did not scale "
                     f"{lo} -> {hi} reactors "
                     f"({throughput[lo]:,.0f} -> {throughput[hi]:,.0f} ops/s)")
PY

# --- §15 sync-vs-async inference sweep -> BENCH_9.json ----------------------
# Same mixed closed loop, but with the periodic full EM switched on
# (--reinfer): in sync mode every Nth SubmitAnswer runs EM under the state
# lock the serving path needs, so RequestTasks tails absorb the pass; in
# async mode the pass runs on the background inference thread and serving
# scores against the published snapshot. The artifact records the per-op-type
# percentiles for both runs and gates on the async RequestTasks p99.
REINFER=100
for inference in sync async; do
  ASYNC_FLAG=()
  if [[ "$inference" == async ]]; then ASYNC_FLAG=(--async); fi
  echo "=== [bench] bench_server --mode=mixed --reinfer=$REINFER ($inference inference) ==="
  "$BUILD_DIR/bench/bench_server" --mode=mixed "${ASYNC_FLAG[@]}" \
    --reinfer="$REINFER" --connections="$SERVER_CONNECTIONS" \
    --ops="$SERVER_OPS" --json="$TMP/inference_$inference.json"
done

python3 - "$TMP/inference_sync.json" "$TMP/inference_async.json" "$OUT9" \
  "$QUICK" "$CORES" <<'PY'
import json
import sys

sync_path, async_path, out_path, quick, cores = sys.argv[1:6]
cores = int(cores)

def load(path):
    with open(path) as f:
        return json.load(f)

sync_run = load(sync_path)
async_run = load(async_path)
single_core = cores <= 1

request_p99_ratio = async_run["request_p99_us"] / sync_run["request_p99_us"]
artifact = {
    "generated_by": "scripts/bench.sh" + (" --quick" if quick == "1" else ""),
    "hardware": {"cores": cores},
    "sync": sync_run,
    "async": async_run,
    "derived": {
        "async_over_sync_request_p95": (
            async_run["request_p95_us"] / sync_run["request_p95_us"]),
        "async_over_sync_request_p99": request_p99_ratio,
        "async_over_sync_submit_p99": (
            async_run["submit_p99_us"] / sync_run["submit_p99_us"]),
        "async_over_sync_throughput": (
            async_run["throughput_ops_s"] / sync_run["throughput_ops_s"]),
    },
    # One core means the inference thread time-slices with the reactor
    # instead of overlapping it, so absolute latencies are scheduler-noisy;
    # the p99 gate is skipped and the artifact says so (BENCH_7 precedent).
    "single_core_caveat": single_core,
}
with open(out_path, "w") as f:
    json.dump(artifact, f, indent=2, sort_keys=True)
    f.write("\n")

for name, run in (("sync", sync_run), ("async", async_run)):
    print(f"[bench] mixed+reinfer, {name}: "
          f"RequestTasks p95 {run['request_p95_us']:.0f} us, "
          f"p99 {run['request_p99_us']:.0f} us; "
          f"SubmitAnswer p99 {run['submit_p99_us']:.0f} us; "
          f"{run['throughput_ops_s']:,.0f} ops/s")
print(f"[bench] async/sync RequestTasks p99 ratio "
      f"{request_p99_ratio:.2f}x -> {out_path}")

# Acceptance gate (ISSUE 9): with EM in the loop, async RequestTasks p99
# must not exceed 110% of sync's — i.e. moving inference off the serving
# path must at least hold the tail, and in practice it collapses it.
if single_core:
    print(f"[bench] single-core host ({cores} core): async p99 gate "
          "skipped, caveat recorded in the artifact")
elif request_p99_ratio > 1.10:
    sys.exit(f"FAIL: async RequestTasks p99 is {request_p99_ratio:.2f}x "
             "sync (gate: <= 1.10x)")
PY

echo "=== [bench] OK ==="
