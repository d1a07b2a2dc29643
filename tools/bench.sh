#!/usr/bin/env bash
# Perf trajectory: builds and runs the A6 (matching engines / automaton
# cache), A7 (parallel scaling / streaming / clean-on-ingest — A7d
# constant-only, A7e constant+variable with the one-shot repair-count and
# byte-identity equality checks), A8 (anmatd daemon warm engines vs
# spawning the one-shot CLI, with the byte-identity and cache-hit checks)
# and A9 (multi-pattern dispatch union scans vs per-rule automaton walks
# at 16-1024 rules, byte-identity asserted) and A10 (zero-copy mmap ingest
# vs the copying parse with peak-RSS readings, plus frozen table scans
# and literal prefilters, byte-identity asserted) benches and
# writes their google-benchmark timings as JSON next to the sources, so
# every PR leaves a comparable perf record.
#
#   tools/bench.sh            # full workloads -> BENCH_A{6,7,8,9,10}.json
#   tools/bench.sh --quick    # shrunken workloads (ANMAT_BENCH_QUICK=1) for
#                             #   the CI smoke job; same checks, smaller
#                             #   sizes, written to
#                             #   BENCH_A{6,7,8,9,10}.quick.json so the
#                             #   checked-in full-run trajectory is never
#                             #   overwritten by a quick run
#
# Environment: BUILD_DIR overrides the build directory (default: build);
# JOBS overrides parallelism. The content sections (correctness checks +
# human-readable tables) print to stdout; a failed reproduction check makes
# the bench — and this script — exit non-zero.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
JOBS="${JOBS:-$(nproc)}"

SUFFIX=""
case "${1:-}" in
  "") ;;
  --quick) export ANMAT_BENCH_QUICK=1; SUFFIX=".quick" ;;
  *) echo "usage: tools/bench.sh [--quick]" >&2; exit 1 ;;
esac

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j "$JOBS" \
      --target bench_a6_dfa_vs_nfa bench_a7_parallel_scaling \
      bench_a8_daemon bench_a9_dispatch bench_a10_ingest_scan anmat

"$BUILD_DIR/bench_a6_dfa_vs_nfa" \
    --benchmark_out="BENCH_A6$SUFFIX.json" --benchmark_out_format=json
"$BUILD_DIR/bench_a7_parallel_scaling" \
    --benchmark_out="BENCH_A7$SUFFIX.json" --benchmark_out_format=json
# A8 spawns the `anmat` binary from the build dir for its cold path.
"$BUILD_DIR/bench_a8_daemon" \
    --benchmark_out="BENCH_A8$SUFFIX.json" --benchmark_out_format=json
"$BUILD_DIR/bench_a9_dispatch" \
    --benchmark_out="BENCH_A9$SUFFIX.json" --benchmark_out_format=json
"$BUILD_DIR/bench_a10_ingest_scan" \
    --benchmark_out="BENCH_A10$SUFFIX.json" --benchmark_out_format=json

echo "wrote BENCH_A6$SUFFIX.json, BENCH_A7$SUFFIX.json, BENCH_A8$SUFFIX.json, BENCH_A9$SUFFIX.json and BENCH_A10$SUFFIX.json"
