#!/usr/bin/env bash
# Full correctness gate: plain build + ctest, artifact/SQL linting and debug
# plan validation over the smoke runs, then a ThreadSanitizer build + ctest
# to catch data races in the parallel pipeline, and finally an
# UndefinedBehaviorSanitizer build + ctest as a UB gate.
#
# Usage: scripts/check.sh [ctest-args...]
#   GEQO_CHECK_JOBS=N        parallel build/test jobs (default: nproc)
#   GEQO_CHECK_SKIP_TSAN=1   skip the ThreadSanitizer pass
#   GEQO_CHECK_TSAN_FILTER   ctest -R filter for the TSan pass (default: all;
#                            TSan runs ~5-20x slower, so narrowing to e.g.
#                            'thread_pool|pipeline|tensor' keeps CI fast)
#   GEQO_CHECK_SKIP_UBSAN=1  skip the UndefinedBehaviorSanitizer pass
#   GEQO_CHECK_UBSAN_FILTER  ctest -R filter for the UBSan pass (default: all)
#   GEQO_CHECK_SKIP_ASAN=1   skip the AddressSanitizer kernel-parity pass
#   GEQO_CHECK_SCALAR_FILTER ctest -R filter for the forced-scalar lane
#                            (default: the kernel-sensitive suites)
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="${GEQO_CHECK_JOBS:-$(nproc)}"

echo "== plain build =="
cmake -B build -S . >/dev/null
cmake --build build -j "$jobs"
echo "== plain ctest =="
ctest --test-dir build --output-on-failure -j "$jobs" "$@"

echo "== forced-scalar ctest lane (GEQO_ISA=scalar) =="
# The portable kernel table must behave exactly like the dispatched one
# across the whole suite — this is the lane that keeps non-AVX2 hosts
# honest. GEQO_CHECK_SCALAR_FILTER narrows it (ctest -R on gtest suite
# names, e.g. 'KernelTable|Quant|Hnsw|Tensor') when CI time is tight.
scalar_filter=(${GEQO_CHECK_SCALAR_FILTER:+-R "$GEQO_CHECK_SCALAR_FILTER"})
GEQO_ISA=scalar ctest --test-dir build --output-on-failure -j "$jobs" \
  "${scalar_filter[@]}" "$@"

lint=./build/src/analysis/geqo_lint

echo "== clang-tidy gate =="
# No-op (exit 0) on gcc-only hosts; full analysis when clang-tidy exists.
scripts/tidy.sh build

echo "== clang thread-safety gate =="
# Compile-time enforcement of the lock annotations (-Wthread-safety
# -Werror); no-op (exit 0) on gcc-only hosts, same pattern as tidy.sh.
scripts/thread_safety.sh

echo "== workload SQL lint =="
# Checked-in example workloads must parse and validate cleanly.
"$lint" --schema=tpch examples/workloads/*.sql

echo "== traced smoke run =="
# Exercise the observability layer end to end: a spans-level run of the demo
# must produce artifacts that the strict JSON linter accepts. GEQO_VALIDATE=1
# turns on plan validation at every pipeline boundary for the smoke runs.
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
GEQO_VALIDATE=1 GEQO_TRACE=spans \
  GEQO_TRACE_FILE="$smoke_dir/geqo_trace.json" \
  GEQO_METRICS_FILE="$smoke_dir/geqo_metrics.json" \
  ./build/examples/observability_demo
"$lint" "$smoke_dir/geqo_trace.json" "$smoke_dir/geqo_metrics.json"

echo "== serving store round-trip smoke =="
# The serving catalog's core guarantee: a stream interrupted by
# stop+restart replays from its CatalogStore directory with bit-identical
# probe results — the checked-in golden PROBE lines — and every durable
# file (system snapshot, manifest, base segment, delta-log partitions)
# passes the artifact linter.
probe_golden=examples/golden/serving_demo.probe
check_serving_roundtrip() {
  local demo="$1" snap_base="$2"
  GEQO_VALIDATE=1 "$demo" > "$smoke_dir/serve_full.txt"
  GEQO_VALIDATE=1 "$demo" --phase1 "$snap_base" > "$smoke_dir/serve_p1.txt"
  GEQO_VALIDATE=1 "$demo" --phase2 "$snap_base" > "$smoke_dir/serve_p2.txt"
  diff "$probe_golden" <(grep '^PROBE' "$smoke_dir/serve_full.txt")
  diff "$probe_golden" \
       <(cat <(grep '^PROBE' "$smoke_dir/serve_p1.txt") \
             <(grep '^PROBE' "$smoke_dir/serve_p2.txt"))
  "$lint" "$snap_base.system" "$snap_base.store"/MANIFEST \
          "$snap_base.store"/*.seg "$snap_base.store"/*.log
}
check_serving_roundtrip ./build/examples/serving_demo "$smoke_dir/serve_snap"

echo "== crash-recovery smoke =="
# Kill the demo mid-stream at an exact probe boundary (the demo-probe kill
# point, armed via the env hook), reopen the half-written store, and demand
# the concatenated PROBE lines match the golden run byte for byte —
# real WAL replay, not a clean shutdown. The crashed store's files must
# still lint clean afterwards.
check_crash_recovery() {
  local demo="$1" snap_base="$2" kill_after="$3"
  local code=0
  GEQO_VALIDATE=1 GEQO_PERSIST_KILL_POINT="demo-probe:$kill_after" \
    "$demo" --phase1 "$snap_base" > "$smoke_dir/serve_killed.txt" || code=$?
  if [[ "$code" != 137 ]]; then
    echo "expected the armed kill point to exit 137, got $code" >&2
    return 1
  fi
  # Resume phase1 from the recovered store, then phase2 as usual.
  GEQO_VALIDATE=1 "$demo" --phase1 "$snap_base" > "$smoke_dir/serve_resume.txt"
  GEQO_VALIDATE=1 "$demo" --phase2 "$snap_base" > "$smoke_dir/serve_tail.txt"
  diff "$probe_golden" \
       <(cat <(grep '^PROBE' "$smoke_dir/serve_killed.txt") \
             <(grep '^PROBE' "$smoke_dir/serve_resume.txt") \
             <(grep '^PROBE' "$smoke_dir/serve_tail.txt"))
  "$lint" "$snap_base.store"/MANIFEST \
          "$snap_base.store"/*.seg "$snap_base.store"/*.log
}
check_crash_recovery ./build/examples/serving_demo "$smoke_dir/serve_crash" 4

echo "== e2e reuse-loop bench smoke =="
# Close the loop end to end: equivalence detection (ShardedCatalog::ProbeAdd)
# feeding the OnlineResultCache over the vectorized engine, against an
# uncached all-execute baseline. The cached-vs-uncached delta is recorded in
# the artifact rather than asserted (wall-clock noise; lanes wanting a floor
# set GEQO_E2E_MIN_SPEEDUP), but the artifact must be strict JSON and carry
# the headline fields.
(cd build && GEQO_BENCH_SCALE=smoke ./bench/bench_e2e > "$smoke_dir/bench_e2e.txt")
"$lint" build/BENCH_e2e.json
grep -q '"engine_speedup"' build/BENCH_e2e.json
grep -q '"cached_speedup"' build/BENCH_e2e.json

if [[ "${GEQO_CHECK_SKIP_TSAN:-0}" == "1" ]]; then
  echo "== TSan pass skipped (GEQO_CHECK_SKIP_TSAN=1) =="
else
  echo "== TSan build =="
  cmake -B build-tsan -S . -DGEQO_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$jobs"
  echo "== TSan ctest =="
  # Threads > cores still interleaves enough for TSan to see races; force a
  # multi-threaded pool even on small CI machines.
  tsan_filter=(${GEQO_CHECK_TSAN_FILTER:+-R "$GEQO_CHECK_TSAN_FILTER"})
  GEQO_THREADS=4 ctest --test-dir build-tsan --output-on-failure -j "$jobs" \
    "${tsan_filter[@]}" "$@"

  echo "== TSan executor-parity ctest =="
  # The morsel-driven engine fans every pipeline across the worker pool;
  # oracle parity under TSan is the race gate for the executor. Runs
  # explicitly so a narrowed GEQO_CHECK_TSAN_FILTER cannot skip it.
  GEQO_THREADS=4 ctest --test-dir build-tsan --output-on-failure -j "$jobs" \
    -R 'VecExec' "$@"

  echo "== TSan EMF dedup-parity ctest =="
  # EMF scoring fans key building, trunk chunks and head batches across the
  # pool and gathers shared embedding rows; bit parity with the per-pair
  # oracle under TSan is its race gate, run explicitly like VecExec.
  GEQO_THREADS=4 ctest --test-dir build-tsan --output-on-failure -j "$jobs" \
    -R 'EmfDedup' "$@"

  echo "== TSan traced smoke run =="
  # Tracing itself must be race-free under the 4-thread pool: spans close on
  # worker threads while metrics fold from every stage.
  GEQO_THREADS=4 GEQO_VALIDATE=1 GEQO_TRACE=spans \
    GEQO_TRACE_FILE="$smoke_dir/geqo_trace_tsan.json" \
    GEQO_METRICS_FILE="$smoke_dir/geqo_metrics_tsan.json" \
    ./build-tsan/examples/observability_demo
  "$lint" "$smoke_dir/geqo_trace_tsan.json" "$smoke_dir/geqo_metrics_tsan.json"

  echo "== TSan serving snapshot round-trip smoke (lock-rank checker armed) =="
  # GEQO_LOCK_RANK=1 arms the runtime lock-rank checker on top of TSan:
  # TSan needs an unlucky schedule to see an inversion, the rank checker
  # aborts on the first out-of-order acquisition on any schedule.
  GEQO_THREADS=4 GEQO_LOCK_RANK=1 \
    check_serving_roundtrip ./build-tsan/examples/serving_demo \
    "$smoke_dir/serve_snap_tsan"

  echo "== TSan multi-client serving bench smoke =="
  # The open-loop phase runs 4 probers + 2 adders against the sharded
  # catalog with background verifier workers — the full concurrent plane
  # under TSan. The sharded-vs-mutex p99 comparison is reported, not
  # asserted (wall-clock noise under TSan's ~10x slowdown would flake);
  # lanes wanting a floor set GEQO_SERVE_MIN_P99_SPEEDUP. The generous SLO
  # bound gates hangs/pathologies, not performance.
  (cd build-tsan && GEQO_THREADS=4 GEQO_BENCH_SCALE=smoke \
    GEQO_SERVE_SLO_MS=500 ./bench/bench_serve > "$smoke_dir/bench_serve_tsan.txt")
  grep -q '"concurrent_p99_speedup"' build-tsan/BENCH_serve.json
fi

if [[ "${GEQO_CHECK_SKIP_ASAN:-0}" == "1" ]]; then
  echo "== ASan kernel-parity pass skipped (GEQO_CHECK_SKIP_ASAN=1) =="
else
  echo "== ASan build (kernel parity) =="
  # The SIMD kernels read in 32-byte lanes with scalar tails; ASan over the
  # parity and quantization suites catches any out-of-bounds lane, on both
  # the dispatched and the forced-scalar table. EmfDedup adds the EMF's
  # shared-embedding gathers and slot-map key arrays.
  cmake -B build-asan -S . -DGEQO_SANITIZE=address >/dev/null
  cmake --build build-asan -j "$jobs" --target kernels_test quant_test \
    hnsw_test tensor_test filters_test
  echo "== ASan kernel-parity ctest =="
  ctest --test-dir build-asan --output-on-failure -j "$jobs" \
    -R 'KernelTable|Alignment|Quant|Hnsw|Tensor|EmfDedup' "$@"
  GEQO_ISA=scalar ctest --test-dir build-asan --output-on-failure -j "$jobs" \
    -R 'KernelTable|Alignment|Quant|EmfDedup' "$@"
fi

if [[ "${GEQO_CHECK_SKIP_UBSAN:-0}" == "1" ]]; then
  echo "== UBSan pass skipped (GEQO_CHECK_SKIP_UBSAN=1) =="
else
  echo "== UBSan build =="
  # -fno-sanitize-recover=all: any diagnosed UB aborts the test instead of
  # logging and carrying on, so the suite cannot pass over it.
  cmake -B build-ubsan -S . -DGEQO_SANITIZE=undefined >/dev/null
  cmake --build build-ubsan -j "$jobs"
  echo "== UBSan ctest =="
  ubsan_filter=(${GEQO_CHECK_UBSAN_FILTER:+-R "$GEQO_CHECK_UBSAN_FILTER"})
  ctest --test-dir build-ubsan --output-on-failure -j "$jobs" \
    "${ubsan_filter[@]}" "$@"
fi

echo "== all checks passed =="
