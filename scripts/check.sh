#!/usr/bin/env bash
# One-command PR gate: tier-1 verify (configure + build + full ctest) plus a
# bench_kernels smoke run so kernel-throughput regressions surface early.
# The main build promotes warnings to errors (-DRT_WERROR=ON); local builds
# outside the gate keep them as warnings.
#
#   scripts/check.sh               # gate only (human-readable smoke output)
#   scripts/check.sh --bench-json  # additionally write BENCH_kernels.json —
#                                  # GEMM + conv + engine throughput (single-
#                                  # and multi-thread) and the PGD / TRADES
#                                  # attack steps in google-benchmark's
#                                  # JSON schema, so the kernel perf
#                                  # trajectory is machine-readable across
#                                  # PRs.
#   scripts/check.sh --lint        # additionally run tools/rtlint over src/
#                                  # and an -DRT_AUDIT=ON build of the audit +
#                                  # concurrency suites (allocation counting,
#                                  # lock-order assertions).
#   scripts/check.sh --tsan        # additionally build build-tsan/ with
#                                  # -DRT_SANITIZE=thread and run the
#                                  # concurrency-heavy suites (scheduler,
#                                  # engine, serving, registry, common, gemm,
#                                  # quant kernels, prediction cache, socket
#                                  # front-end, attacks, TRADES) under
#                                  # ThreadSanitizer.
#   scripts/check.sh --asan        # same suites under AddressSanitizer
#                                  # (-DRT_SANITIZE=address).
#   scripts/check.sh --ubsan       # same suites under UBSan with
#                                  # -fno-sanitize-recover=all, so any UB
#                                  # report fails the gate.
#
# Thread counts are pinned via RT_THREADS for reproducibility; override by
# exporting RT_THREADS before invoking.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH_JSON=0
LINT=0
TSAN=0
ASAN=0
UBSAN=0
for arg in "$@"; do
  case "$arg" in
    --bench-json) BENCH_JSON=1 ;;
    --lint) LINT=1 ;;
    --tsan) TSAN=1 ;;
    --asan) ASAN=1 ;;
    --ubsan) UBSAN=1 ;;
    *) echo "usage: $0 [--bench-json] [--lint] [--tsan] [--asan] [--ubsan]" >&2
       exit 2 ;;
  esac
done

JOBS="$(nproc 2>/dev/null || echo 2)"
export RT_THREADS="${RT_THREADS:-$JOBS}"

cmake -B build -S . -DRT_WERROR=ON
cmake --build build -j"${JOBS}"
ctest --test-dir build --output-on-failure -j"${JOBS}"

# The concurrency-heavy suites every sanitizer pass exercises, plus the
# quantized kernel suite (int8 packing/requant arithmetic is where UB —
# narrowing, shifts, aliasing — would live) and the attack suites (PGD and
# TRADES run Conv2d::backward with frozen weights: dgrad in the wgrad slot
# loop, no partials). One list so the echo, the build targets, and the ctest
# filter cannot drift apart.
SAN_SUITES=(test_scheduler test_engine test_serving test_registry test_common
            test_gemm test_quant_kernels test_cache test_net test_attack
            test_trades)
SAN_FILTER="$(IFS='|'; echo "${SAN_SUITES[*]}")"
# The sanitizer builds are portable (-DRT_MARCH_NATIVE=OFF), so their training
# bits differ from the native build's. The excluded test asserts a robustness
# margin after 6 epochs on 200 rows, and on portable bits the margin is missed
# (robust 0.067 vs natural 0.117 adversarial accuracy on an x86-64 host). It
# checks training quality, not memory or races, and tier 1 runs it on the
# native build above.
SAN_GTEST_FILTER='-AdversarialTraining.ImprovesRobustAccuracy'

# run_sanitizer_pass <name> <build_dir> <rt_sanitize_value>
run_sanitizer_pass() {
  local name="$1" dir="$2" value="$3"
  echo "== ${name} pass (${SAN_SUITES[*]}) =="
  cmake -B "${dir}" -S . -DRT_SANITIZE="${value}" -DRT_BUILD_BENCHES=OFF \
        -DRT_BUILD_EXAMPLES=OFF -DRT_MARCH_NATIVE=OFF
  cmake --build "${dir}" -j"${JOBS}" --target "${SAN_SUITES[@]}"
  GTEST_FILTER="${SAN_GTEST_FILTER}" \
    ctest --test-dir "${dir}" --output-on-failure -j1 -R "${SAN_FILTER}"
}

if [[ "${LINT}" == 1 ]]; then
  echo "== rtlint pass (tools/rtlint over src/ and tools/) =="
  ./build/rtlint --root . src tools
  echo "== RT_AUDIT pass (alloc counting + lock-order assertions) =="
  cmake -B build-audit -S . -DRT_AUDIT=ON -DRT_BUILD_BENCHES=OFF \
        -DRT_BUILD_EXAMPLES=OFF
  cmake --build build-audit -j"${JOBS}" \
        --target test_audit test_scheduler test_serving
  ctest --test-dir build-audit --output-on-failure -j1 \
        -R 'test_audit|test_scheduler|test_serving'
fi

if [[ "${TSAN}" == 1 ]]; then
  # TSan only observes races that actually interleave, so the pass is
  # meaningless at RT_THREADS=1, which is the default on a one-CPU host.
  # Force at least two workers: on one CPU the threads still time-slice
  # across every synchronization point, which is exactly the traffic TSan
  # instruments; on a multicore host they also run truly in parallel.
  RT_THREADS="$(( RT_THREADS > 2 ? RT_THREADS : 2 ))" \
    run_sanitizer_pass ThreadSanitizer build-tsan thread
fi

if [[ "${ASAN}" == 1 ]]; then
  run_sanitizer_pass AddressSanitizer build-asan address
fi

if [[ "${UBSAN}" == 1 ]]; then
  run_sanitizer_pass UndefinedBehaviorSanitizer build-ubsan undefined
fi

# run_bench_smoke <binary> <filter> <json_out> <description>
# --benchmark_out writes the JSON in addition to the console report, so one
# run serves both the human gate and the machine-readable snapshot.
run_bench_smoke() {
  local binary="$1" filter="$2" json_out="$3" description="$4"
  if [[ ! -x "build/${binary}" ]]; then
    echo "${binary} not built (google-benchmark missing); skipping smoke run"
    return
  fi
  echo "== ${binary} smoke (${description}) =="
  local extra_args=()
  if [[ "${BENCH_JSON}" == 1 ]]; then
    extra_args+=(--benchmark_out="${json_out}" --benchmark_out_format=json)
  fi
  # Explicit exit propagation, independent of errexit. `set -e` does cover
  # this call today (verified: a failing fake bench binary exits the gate),
  # but bash suppresses errexit throughout a function body the moment any
  # caller up the chain runs it in a condition context (`if check.sh`,
  # `check.sh || notify`) — this guard keeps a failed or crashed bench
  # binary fatal under every invocation style.
  local status=0
  "./build/${binary}" \
    --benchmark_filter="${filter}" \
    --benchmark_min_time=0.05 \
    "${extra_args[@]}" || status=$?
  if (( status != 0 )); then
    echo "${binary} failed (exit ${status}); failing the gate" >&2
    exit "${status}"
  fi
  if [[ "${BENCH_JSON}" == 1 ]]; then
    echo "wrote ${json_out}"
    # google-benchmark records how its own library was built. A debug
    # library runs the timing loop unoptimized, which every time in the
    # file then includes.
    local build_type
    build_type="$(grep -o '"library_build_type": *"[^"]*"' "${json_out}" |
                  grep -o '"[^"]*"$' | tr -d '"' || true)"
    echo "${json_out}: context.library_build_type = ${build_type:-unknown}"
    if [[ "${build_type}" == debug ]]; then
      echo "  google-benchmark is a debug library build: its timing loop is" \
           "unoptimized, and every time in ${json_out} includes that overhead"
    fi
  fi
}

run_bench_smoke bench_kernels \
  'BM_Matmul|BM_Gemm|BM_ConvTrain|BM_EngineThroughput|BM_PgdAttack|BM_TradesStep' \
  BENCH_kernels.json "GEMM + conv + engine throughput + attack steps"
run_bench_smoke bench_serving 'BM_Server|BM_Registry|BM_Cache|BM_Net' \
  BENCH_serving.json \
  "async micro-batching front-end + registry hot swap + prediction cache + socket front-end"

echo "check.sh: all gates passed"
