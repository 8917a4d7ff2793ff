#!/usr/bin/env bash
# The end-to-end benchmark in one command (see bench/e2e/README.md).
#
#   bench/e2e/run.sh --workload W --seed N [--seconds S] [--trace 0|1] [--out DIR]
#       One run of one workload. The last line of standard output is the
#       run's result: {"correct", "attempted", "failed", "metrics"}.
#   bench/e2e/run.sh --seed N [--seconds S] [--out DIR]
#       Every workload, untraced and then traced.
#
# Builds an optimized, sanitizer-free bench_e2e (and the library) from
# this checkout into .bench_build/e2e, generates each workload's inputs
# from the seed in a separate process, then runs. Result files and
# traces go to DIR (default .bench_build/e2e/out). Exits non-zero when
# the build fails or any output check fails.

set -euo pipefail

usage() {
  sed -n '3,8p' "$0" | sed 's/^# \{0,1\}//' >&2
}

workload=""
seed=1
seconds=25
trace=""
out=""
while [ $# -gt 0 ]; do
  case "$1" in
    --workload=*) workload="${1#*=}"; shift ;;
    --seed=*) seed="${1#*=}"; shift ;;
    --seconds=*) seconds="${1#*=}"; shift ;;
    --trace=*) trace="${1#*=}"; shift ;;
    --out=*) out="${1#*=}"; shift ;;
    --workload|--seed|--seconds|--trace|--out)
      if [ $# -lt 2 ]; then
        echo "error: $1 needs a value" >&2
        exit 2
      fi
      case "$1" in
        --workload) workload="$2" ;;
        --seed) seed="$2" ;;
        --seconds) seconds="$2" ;;
        --trace) trace="$2" ;;
        --out) out="$2" ;;
      esac
      shift 2
      ;;
    *)
      echo "error: unknown argument '$1'" >&2
      usage
      exit 2
      ;;
  esac
done

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build/e2e"
out="${out:-$build/out}"
mkdir -p "$build" "$out"

if ! {
  cmake -S "$here" -B "$build/cmake" -DCMAKE_BUILD_TYPE=Release -DOCA_SANITIZE= &&
    cmake --build "$build/cmake" --target bench_e2e -j 4
} >"$build/build.log" 2>&1; then
  tail -n 30 "$build/build.log" >&2
  echo "error: building bench_e2e failed (log: $build/build.log)" >&2
  exit 1
fi
bin="$build/cmake/bench_e2e"
commit="$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"

data="$build/data.$$"
trap 'rm -rf "$data"' EXIT

# One workload: inputs from the seed, then the run itself.
run_one() {
  local w="$1" t="$2"
  if [ ! -d "$data/$w" ]; then
    "$bin" gen --workload "$w" --seed "$seed" --dir "$data/$w"
  fi
  "$bin" run --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$t" \
    --data "$data/$w" --out "$out" --commit "$commit"
}

if [ -n "$workload" ]; then
  run_one "$workload" "${trace:-0}"
  exit 0
fi

if [ -n "$trace" ]; then
  echo "error: --trace needs --workload" >&2
  exit 2
fi
status=0
for w in lfr_flat lfr_weighted nested_tree serve_zipf; do
  for t in 0 1; do
    echo "=== $w (trace $t)"
    run_one "$w" "$t" || status=1
  done
  rm -rf "${data:?}/$w"
done
exit "$status"
