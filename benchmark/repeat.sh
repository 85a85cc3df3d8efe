#!/usr/bin/env bash
# Runs two full untraced sets of the benchmark on the same code and prints,
# per end-to-end metric × workload, how much worse the second set's median
# is than the first's, against the metric's bound in BENCHMARK.json; exits
# non-zero if any bound is exceeded.
#
#   benchmark/repeat.sh [--seeds N] [--seconds S] [--workload W]
#
# --seeds 1 (default) runs each workload once per set at seed 1. --seeds 10
# is the acceptance check of the benchmark itself: ten seeds per workload per
# set, and additionally each set's spread (the distance between the first and
# third quartile of the ten values as a share of their median) must stay
# within the bound (setup_s excepted).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seeds=1 seconds="" only=""
while [ $# -gt 0 ]; do
  case "$1" in
    --seeds) seeds="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --workload) only="$2"; shift 2 ;;
    *) echo "repeat.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
spec="$here/../BENCHMARK.json"
seconds="${seconds:-$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$spec")}"
workloads="${only:-$("$here/run.sh" --list 2>/dev/null | sed -n 's/^workload //p')}"

mkdir -p "$here/out"
for set in A B; do
  : > "$here/out/repeat-$set.jsonl"
  for w in $workloads; do
    for seed in $(seq 1 "$seeds"); do
      echo "set $set: $w seed $seed" >&2
      result="$("$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null | tail -1)"
      echo "{\"workload\": \"$w\", \"seed\": $seed, \"result\": $result}" >> "$here/out/repeat-$set.jsonl"
    done
  done
done

python3 - "$spec" "$here/out/repeat-A.jsonl" "$here/out/repeat-B.jsonl" <<'PY'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
sets = [[json.loads(line) for line in open(path)] for path in sys.argv[2:4]]
workloads = list(dict.fromkeys(run["workload"] for run in sets[0]))


def spread(values):
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


bad = 0
print(f"{'workload':12} {'metric':12} {'median A':>12} {'median B':>12} {'B worse by':>10} "
      f"{'spread A':>9} {'spread B':>9} {'bound':>6}")
for w in workloads:
    for run in (r for s in sets for r in s if r["workload"] == w):
        if not run["result"]["correct"]:
            print(f"{w}: seed {run['seed']} reported {run['result']['failed']} failed items")
            bad += 1
    for m in spec["end_to_end"]:
        a, b = ([r["result"]["metrics"][m["name"]]["value"] for r in s if r["workload"] == w]
                for s in sets)
        med_a, med_b = statistics.median(a), statistics.median(b)
        worse = (med_b - med_a) / med_a * (1 if m["better"] == "lower" else -1)
        spreads = [spread(a), spread(b)]
        verdict = ""
        if worse > m["bound"]:
            verdict = " EXCEEDED"
        elif m["name"] != "setup_s" and any(s is not None and s > m["bound"] for s in spreads):
            verdict = " UNRESOLVED (spread wider than the bound)"
        bad += bool(verdict)
        shown = ["-" if s is None else f"{s:.3f}" for s in spreads]
        print(f"{w:12} {m['name']:12} {med_a:12.4f} {med_b:12.4f} {worse:+10.3f} "
              f"{shown[0]:>9} {shown[1]:>9} {m['bound']:6.2f}{verdict}")
sys.exit(1 if bad else 0)
PY
