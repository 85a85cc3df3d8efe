#!/usr/bin/env bash
# The one command of the benchmark.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
#                    [--traced] [--smoke] [--list]
#
# Builds benchmark/ (its own cargo workspace, offline) and runs the named
# workload in its own process — or, without --workload, all four. --trace 0
# (default) prints the end-to-end metrics, --trace 1 the per-layer metrics;
# --traced runs both passes per workload and compares their checksums;
# --smoke is --seconds 1 (numbers not gated). The last line of each run is
# the JSON result BENCHMARK.json's driver reads.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"

workload="" seed=1 seconds=20 trace=0 both=0 list=0
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --traced) both=1; shift ;;
    --smoke) seconds=1; shift ;;
    --list) list=1; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/pop-benchmark"

if [ "$list" = 1 ]; then
  exec "$bin" --list
fi

{
  echo "host nproc=$(nproc) cpu=\"$(sed -n 's/^model name[^:]*: //p' /proc/cpuinfo | head -1)\""
  echo "host cpu_features=\"$(sed -n 's/^flags[^:]*: //p' /proc/cpuinfo | head -1 | tr ' ' '\n' \
    | grep -E '^(sse2|ssse3|sse4_2|avx|avx2|fma|avx512f|avx512_vnni|amx_int8)$' | tr '\n' ' ')\""
  echo "host rustc=\"$(rustc --version)\" commit=$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo none) seed=$seed"
} >&2

run_one() { # workload trace
  "$bin" --workload "$1" --seed "$seed" --seconds "$seconds" --trace "$2" --out-dir "$here/out"
}

if [ -n "$workload" ] && [ "$both" = 0 ]; then
  run_one "$workload" "$trace"
  exit
fi

status=0
for w in ${workload:-$("$bin" --list | sed -n 's/^workload //p')}; do
  if [ "$both" = 0 ]; then
    run_one "$w" "$trace" || status=1
    continue
  fi
  plain="$(run_one "$w" 0)" || status=1
  traced="$(run_one "$w" 1)" || status=1
  printf '%s\n%s\n' "$plain" "$traced"
  # Same seed, same inputs: both passes must print the same checksums.
  if [ "$(grep '^checksum ' <<<"$plain" || true)" != "$(grep '^checksum ' <<<"$traced" || true)" ]; then
    echo "run.sh: $w: untraced and traced checksums differ" >&2
    status=1
  fi
done
exit "$status"
