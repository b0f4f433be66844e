#!/usr/bin/env bash
# CI entry point, seven stages (fails on the first broken one):
#   1. lint      — scripts/lint.py always; clang-tidy when installed.
#   2. thread-safety — clang -Wthread-safety -Werror build over the DOCS_*
#                  capability annotations (DESIGN.md §14); skipped with a
#                  notice when clang is not installed.
#   3. release   — Release build, full test suite.
#   4. perfbench — standalone build of the benchmark (perfbench/: the
#                  driver compiled against src/) and its own ctest
#                  (bench_math_test, the driver's arithmetic).
#   5. strict    — -DDOCS_WERROR=ON -DDOCS_DEBUG_CHECKS=ON: curated -Werror
#                  set plus every DOCS_DCHECK* contract compiled in, run over
#                  the contract-heavy suites, then one capped campaign
#                  (run_campaign --dataset QA) end to end.
#   6. sanitize  — ASan+UBSan full suite, then a gateway smoke run (real TCP
#                  server + clients under ASan), then TSan scoped to the
#                  tests that exercise cross-thread execution.
#   7. bench     — perfbench smoke: a 2 s run of each workload
#                  (campaign_sync, campaign_async); fails unless the result
#                  line reads "correct": true and "failed": 0. Wall-time
#                  comparisons belong to perfbench's alternating pairs, not
#                  to CI.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

echo "=== [lint] scripts/lint.py ==="
python3 "$ROOT/scripts/lint.py" --root "$ROOT"
if command -v clang-tidy >/dev/null 2>&1; then
  echo "=== [lint] clang-tidy ==="
  cmake -S "$ROOT" -B "$ROOT/build-tidy" -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  # Sources only; headers are covered through HeaderFilterRegex.
  find "$ROOT/src" -name '*.cc' -print0 |
    xargs -0 -n8 -P"$JOBS" clang-tidy -p "$ROOT/build-tidy" --quiet
else
  echo "=== [lint] clang-tidy not installed, skipping ==="
fi

# run_config <name> [test-filter] [cmake-args...]
# `test-filter` is a ctest -R regex; pass "" to run the full suite.
run_config() {
  local name="$1"
  local filter="${2-}"
  shift 2
  local dir="$ROOT/build-$name"
  echo "=== [$name] configure ==="
  cmake -S "$ROOT" -B "$dir" "$@"
  echo "=== [$name] build ==="
  cmake --build "$dir" -j"$JOBS"
  echo "=== [$name] ctest ==="
  if [[ -n "$filter" ]]; then
    ctest --test-dir "$dir" --output-on-failure -j"$JOBS" -R "$filter"
  else
    ctest --test-dir "$dir" --output-on-failure -j"$JOBS"
  fi
}

# Thread-safety analysis: a clang build with -Wthread-safety promoted to an
# error, checking the DOCS_* capability annotations (lock hierarchy, guarded
# fields, EXCLUDES contracts — DESIGN.md §14) over every target. Compile-only:
# the analysis is static, so there is nothing to run.
if command -v clang++ >/dev/null 2>&1; then
  echo "=== [thread-safety] clang -Wthread-safety build ==="
  cmake -S "$ROOT" -B "$ROOT/build-tsa" -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_COMPILER=clang++ -DDOCS_THREAD_SAFETY=ON
  cmake --build "$ROOT/build-tsa" -j"$JOBS"
else
  echo "=== [thread-safety] clang++ not installed, skipping ==="
fi

run_config release "" -DCMAKE_BUILD_TYPE=Release
# The benchmark builds src/ through its own CMake project, so a src/ change
# can break the driver without breaking the main tree. --no-tests=error
# fails the stage if bench_math_test stops being registered. The tree is the
# one perfbench/run.py builds into, so the bench stage's runs reuse it.
PERFBENCH_BUILD="$ROOT/.bench_build/perfbench"
echo "=== [perfbench] configure ==="
cmake -S "$ROOT/perfbench" -B "$PERFBENCH_BUILD" -DCMAKE_BUILD_TYPE=Release
echo "=== [perfbench] build ==="
cmake --build "$PERFBENCH_BUILD" -j"$JOBS"
echo "=== [perfbench] ctest ==="
ctest --test-dir "$PERFBENCH_BUILD" --output-on-failure --no-tests=error
# Strict config: warnings are errors and the DCHECK-tier contracts are live.
# Scoped to the suites that hit the contract-instrumented paths hardest;
# check_test runs here with DOCS_DEBUG_CHECKS on (it also runs in every
# other config with them off — both halves of its matrix get covered).
# determinism/docs_system/persistence/inference_service run the EM loop with
# its contracts live through the serving loop, checkpoint replay and the
# async service; concurrency_test runs the submission-book writes and the
# striped serve loop with them live under the sync hammer; serving_alloc_test
# pins the warm and the cold request's heap allocations with the contracts
# compiled in. benefit_index_test and benefit_cache_test (the suite of the
# per-worker score store, which the index alone now is) run the
# rebuild-only index's heap audit (BenefitIndex::CheckInvariant) and the
# bound DCHECKs of the seed sweep's resolve batch and of the frontier walk
# under both lockstep suites; benefit_index_test also holds the sweep's
# floor to its nth_element definition, and ota_test holds the kernel on the
# engine's M^(i) arena to the reference bit for bit.
run_config strict \
  "check_test|common_test|ti_test|incremental_ti_test|ota_test|golden_test|dve_test|baselines_test|benefit_index_test|benefit_cache_test|determinism_test|docs_system_test|persistence_test|inference_service_test|concurrency_test|serving_alloc_test" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DDOCS_WERROR=ON -DDOCS_DEBUG_CHECKS=ON
# A whole campaign under a redundancy cap of 10 answers per task: capped and
# leased-out tasks crowd the top of the benefit indexes, so the frontier walk
# skips through them on a large share of passes. With the contracts compiled
# in, every pass audits the heap (BenefitIndex::CheckInvariant) and checks
# each resolved score against its bound. A failed contract aborts the run,
# which fails the stage.
echo "=== [strict] capped campaign (run_campaign --dataset QA) ==="
"$ROOT/build-strict/examples/run_campaign" --dataset QA
run_config sanitize "" -DCMAKE_BUILD_TYPE=RelWithDebInfo -DDOCS_SANITIZE=ON
# Gateway smoke: start the TCP server on an ephemeral port, run real client
# round trips, and shut down cleanly — all under ASan+UBSan, so a leaked
# socket buffer or a use-after-close in the event loop fails CI here. Runs
# the multi-reactor configuration so the acceptor hand-off and per-reactor
# shutdown paths are exercised under the sanitizers, not just reactors=1.
echo "=== [sanitize] gateway smoke (serve_campaign under ASan, 2 reactors) ==="
"$ROOT/build-sanitize/examples/serve_campaign" --workers=4 --rounds=3 --reactors=2
# Chaos smoke: SIGKILL the gateway child three times mid-campaign while
# resilient clients retry through the outages, then verify exactly-once
# recovery (zero lost, zero duplicated, bitwise-equal posterior) — the
# parent-side verification runs under ASan+UBSan.
echo "=== [sanitize] chaos smoke (crash_recovery under ASan) ==="
"$ROOT/build-sanitize/examples/crash_recovery" --kills=3 --workers=4 --rounds=20
# TSan cannot be combined with ASan; it gets its own tree, scoped to the
# tests that actually exercise cross-thread execution (gateway_test runs a
# server thread against client threads; durability_test races checkpoints
# against submitters and restarts gateways under live clients;
# inference_service_test races serving calls, producer threads and the
# lock-free counter reads against the background inference thread and its
# snapshot publication; benefit_cache_test and benefit_index_test rebuild
# each worker's index under her shard stripe from reactor and facade
# threads;
# serving_alloc_test checks its operator new replacement coexists with the
# TSan runtime; ota_test runs the kernel's bitwise checks, the one on the
# engine's M^(i) arena included).
run_config tsan \
  "sync_test|parallel_test|determinism_test|ota_test|benefit_cache_test|benefit_index_test|inference_service_test|concurrency_test|gateway_test|durability_test|resilient_client_test|serving_alloc_test" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DDOCS_SANITIZE=thread

# The driver exits 0 even when its own checks fail, so the stage reads the
# verdict off the JSON result, which is the last line of stdout.
for workload in campaign_sync campaign_async; do
  echo "=== [bench] perfbench smoke ($workload, 2 s) ==="
  python3 "$ROOT/perfbench/run.py" --workload "$workload" --trace 0 \
    --seed 1 --seconds 2 | tail -n 1 | python3 -c '
import json, sys
result = json.loads(sys.stdin.read())
print(json.dumps({k: result.get(k) for k in ("correct", "failed")}))
if result.get("correct") is not True or result.get("failed") != 0:
    sys.exit("FAIL: perfbench smoke run is not correct or has failures")
'
done

echo "=== CI OK ==="
