#!/usr/bin/env bash
# Wall-clock perf report: runs the micro_engine hot-path benchmarks — all of
# them, including the recovery passes BM_Analysis, BM_DcPassPreload,
# BM_Redo and BM_Undo (each one pass on one thread, timed over a restored
# crash image), and BM_StableSnapshotRestore (one crash image snapshotted
# and restored) — and the fig2a end-to-end smoke, and emits
# BENCH_micro.json (google-benchmark JSON) at the repo root — the perf
# trajectory artifact CI uploads per PR.
#
# Usage: scripts/perf_report.sh [build-dir] [output.json]
#   MIN_TIME=0.5 scripts/perf_report.sh     # longer, steadier measurement
#
# Requires a build with google-benchmark available (the micro_engine target);
# scripts/check.sh or `cmake --build build` produces one.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_micro.json}"
# benchmark >= 1.8 prefers the "0.05x" iteration-multiplier syntax but still
# accepts plain seconds; older versions (1.7 and earlier) only accept
# seconds. Plain seconds keeps the script portable across both.
MIN_TIME="${MIN_TIME:-0.1}"

MICRO="$BUILD_DIR/bench/micro_engine"
if [[ ! -x "$MICRO" ]]; then
  echo "error: $MICRO not found or not executable." >&2
  echo "Build it first (needs google-benchmark):" >&2
  echo "  cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
  exit 1
fi

# The JSON context's library_build_type is google-benchmark's own build, not
# the engine's: stamp the engine's build type and sanitizer mode from the
# build dir's CMake cache.
cache_var() { sed -n "s/^$1:[A-Z]*=//p" "$BUILD_DIR/CMakeCache.txt"; }
BUILD_TYPE="$(cache_var CMAKE_BUILD_TYPE)"
SANITIZE="$(cache_var DEUTERO_SANITIZE)"
CONTEXT="deutero_build_type=${BUILD_TYPE:-unset},deutero_sanitize=${SANITIZE:-unset}"

echo "==== micro_engine (hot-path wall-clock benchmarks) -> $OUT"
"$MICRO" \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_context="$CONTEXT" \
  --benchmark_format=console \
  --benchmark_out_format=json \
  --benchmark_out="$OUT"

echo
echo "==== fig2a smoke (end-to-end recovery, simulated time)"
"$BUILD_DIR/bench/fig2a_redo_time" --smoke

echo
echo "Perf report written to $OUT"
