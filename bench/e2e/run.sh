#!/usr/bin/env bash
# Builds the end-to-end benchmark (bench/e2e/CMakeLists.txt -> build/e2e/)
# and runs it. Every mode exits nonzero when any run fails an output check.
#
#   bench/e2e/run.sh                   every workload once, seed 1
#   bench/e2e/run.sh --smoke           every workload for 2 s, all checks on
#   bench/e2e/run.sh --trace           every workload untraced, then traced:
#                                      the per-layer table, spans under
#                                      bench_out/e2e/, and tracing overhead
#   bench/e2e/run.sh --runs N [--baseline DIR]
#                                      seeds 1..N per workload into two sets,
#                                      bench_out/e2e/runs/{base,new}, then
#                                      e2e_compare; the side that runs first
#                                      alternates from seed to seed;
#                                      --baseline DIR builds and runs the base
#                                      side from another checkout (e.g. the
#                                      parent commit), else both sides are
#                                      this checkout
#   bench/e2e/run.sh --workload W --seed N [--seconds S] [--trace 0|1]
#                                      one run; the BENCHMARK.json command
#
# --seconds S (any mode) overrides the run length in BENCHMARK.json.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
cd "$root"
# One scheduler lane, whatever the host reports: the benchmark runs on one
# core (see reference.hpp), and a unit of work never waits at a join for the
# slowest of several lanes.
export RT_THREADS=1

build() {
  local checkout="$1"
  local out="$checkout/build/e2e"
  mkdir -p "$out/tmp"
  # Compiler temporaries stay inside the checkout. cmake --build reconfigures
  # by itself when a CMakeLists.txt changed.
  if [[ ! -f "$out/Makefile" ]]; then
    TMPDIR="$out/tmp" cmake -S "$checkout/bench/e2e" -B "$out" \
      -DCMAKE_BUILD_TYPE=Release >&2
  fi
  TMPDIR="$out/tmp" cmake --build "$out" -j 4 >&2
}

bench="$root/build/e2e/e2e_bench"
compare="$root/build/e2e/e2e_compare"

if [[ "${1:-}" == "--workload" ]]; then
  build "$root"
  exec "$bench" "$@"
fi

mode=once
runs=0
baseline=""
seconds="$(grep -o '"run_seconds": *[0-9]*' BENCHMARK.json | grep -o '[0-9]*$')"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --smoke) mode=smoke; seconds=2 ;;
    --trace) mode=trace ;;
    --runs) mode=runs; runs="$2"; shift ;;
    --baseline) baseline="$(cd "$2" && pwd)"; shift ;;
    --seconds) seconds="$2"; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
  shift
done

build "$root"
workloads=(wire_unique edge_zipf bulk_int8 ticket_draw)
status=0

case "$mode" in
  once|smoke)
    for w in "${workloads[@]}"; do
      "$bench" --workload "$w" --seed 1 --seconds "$seconds" --trace 0 ||
        status=1
    done
    ;;
  trace)
    out=bench_out/e2e/trace
    mkdir -p "$out"
    for w in "${workloads[@]}"; do
      "$bench" --workload "$w" --seed 1 --seconds "$seconds" --trace 0 \
        --out "$out/$w-untraced.json" > "$out/$w-untraced.log" || status=1
      "$bench" --workload "$w" --seed 1 --seconds "$seconds" --trace 1 \
        --out "$out/$w-traced.json" || status=1
      "$compare" --overhead "$out/$w-untraced.json" "$out/$w-traced.json"
    done
    ;;
  runs)
    base_bench="$bench"
    if [[ -n "$baseline" ]]; then
      build "$baseline"
      base_bench="$baseline/build/e2e/e2e_bench"
    fi
    out=bench_out/e2e/runs
    rm -rf "$out"
    mkdir -p "$out/base" "$out/new"
    for w in "${workloads[@]}"; do
      for ((i = 1; i <= runs; i++)); do
        sides=(base new)
        if ((i % 2 == 0)); then sides=(new base); fi
        for side in "${sides[@]}"; do
          bin="$bench"
          if [[ $side == base ]]; then bin="$base_bench"; fi
          echo "[$w seed $i $side]" >&2
          "$bin" --workload "$w" --seed "$i" --seconds "$seconds" --trace 0 \
            --out "$out/$side/$w-$i.json" > "$out/$side/$w-$i.log" || status=1
        done
      done
    done
    "$compare" --bench BENCHMARK.json "$out/base" "$out/new" || status=1
    ;;
esac
exit "$status"
