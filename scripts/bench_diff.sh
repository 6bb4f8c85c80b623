#!/usr/bin/env bash
# Compare the end-to-end benchmark (bench/e2e) of a base revision with the
# working tree. Builds bench/e2e at REV and in the working tree, runs N
# repetitions of every workload per side, interleaved run by run (A B,
# then B A, ...) so drift of a shared machine hits both alike, and prints
# bench/e2e/compare.py's table (A = REV, B = working tree).
#
# Usage: scripts/bench_diff.sh [--base REV] [--smoke] [--reps N] [--exact]
#   --base REV  revision to compare against (default HEAD)
#   --smoke     small scale, a few seconds per run
#   --reps N    repetitions per side (default 5)
#   --exact     also require every simulated end-to-end metric to read the
#               same on every run of both sides, on the deterministic
#               workloads fig2a_uniform, zipf_resident and mixed_churn
#               (oltp_concurrent runs 4 client threads and is not)
#
# REV is exported with `git archive` (the repository's worktrees are left
# alone) and built there. Everything goes under $BENCH_DIFF_DIR (default
# build-bench-diff/ at the repository root): the exported trees, their
# builds, and the result sets in results/A and results/B.
#
# Exit status: 0 ok; 1 a build or run failed, compare.py saw a regression,
# or --exact found a simulated metric that differs; 2 bad usage.
set -euo pipefail
cd "$(dirname "$0")/.."
ROOT="$PWD"

BASE=HEAD
SMOKE=()
REPS=5
EXACT=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --base) BASE="${2:?--base needs a revision}"; shift 2 ;;
    --smoke) SMOKE=(--smoke); shift ;;
    --reps) REPS="${2:?--reps needs a count}"; shift 2 ;;
    --exact) EXACT=1; shift ;;
    *) sed -n '2,25p' "$0" >&2; exit 2 ;;
  esac
done
[[ "$REPS" =~ ^[1-9][0-9]*$ ]] || { echo "--reps must be >= 1" >&2; exit 2; }

SHA="$(git rev-parse --verify "$BASE^{commit}")"
WORK="${BENCH_DIFF_DIR:-$ROOT/build-bench-diff}"
mkdir -p "$WORK"
GEN=()
command -v ninja >/dev/null 2>&1 && GEN=(-G Ninja)

build() {  # build <source root> <build dir>
  cmake -S "$1/bench/e2e" -B "$2" -DCMAKE_BUILD_TYPE=Release "${GEN[@]}" >&2
  cmake --build "$2" --target e2e_bench -j "$(nproc)" >&2
}

BASE_TREE="$WORK/base-$SHA"
if [[ ! -d "$BASE_TREE" ]]; then
  mkdir -p "$BASE_TREE.tmp"
  git archive --format=tar "$SHA" | tar -x -C "$BASE_TREE.tmp"
  mv "$BASE_TREE.tmp" "$BASE_TREE"
fi
echo "== building bench/e2e at ${SHA:0:12} (A) and in the working tree (B)" >&2
build "$BASE_TREE" "$BASE_TREE/build-bench"
build "$ROOT" "$WORK/head-build"
declare -A BIN=([A]="$BASE_TREE/build-bench/e2e_bench"
                [B]="$WORK/head-build/e2e_bench")

RESULTS="$WORK/results"
rm -rf "$RESULTS"
mkdir -p "$RESULTS/A" "$RESULTS/B" "$RESULTS/run"
WORKLOADS=($(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' BENCHMARK.json))
for ((i = 0; i < REPS; i++)); do
  order=(A B)
  ((i % 2 == 1)) && order=(B A)
  for w in "${WORKLOADS[@]}"; do
    for side in "${order[@]}"; do
      echo "== rep $((i + 1))/$REPS $w ($side)" >&2
      python3 bench/e2e/run.py --bin "${BIN[$side]}" --workload "$w" \
        --out "$RESULTS/run" "${SMOKE[@]}" >/dev/null
      mv "$RESULTS/run/$w.json" "$RESULTS/$side/$w-$(printf %02d "$i").json"
    done
  done
done
rm -rf "$RESULTS/run"

status=0
python3 bench/e2e/compare.py "$RESULTS/A" "$RESULTS/B" || status=1

if ((EXACT)); then
  python3 - "$RESULTS" <<'EOF' || status=1
import json, os, sys
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join("bench", "e2e"))
import compare
res = sys.argv[1]
a, b = compare.load(os.path.join(res, "A")), compare.load(os.path.join(res, "B"))
with open("BENCHMARK.json") as f:
    bench = json.load(f)
simulated = [m["name"] for m in bench["end_to_end"] if "sim" in m["unit"]]
differ = 0
print("\n--exact: simulated end-to-end metrics, every run of both sides")
for w in ("fig2a_uniform", "zipf_resident", "mixed_churn"):
    for m in simulated:
        values = {r["metrics"][m]["value"] for r in a.get(w, []) + b.get(w, [])}
        same = len(values) == 1
        differ += not same
        print(f"  {w:14s} {m:24s} {'identical' if same else 'DIFFERS: ' + repr(sorted(values))}")
sys.exit(1 if differ else 0)
EOF
fi
exit "$status"
