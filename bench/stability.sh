#!/usr/bin/env bash
# Measures the benchmark's run-to-run spread against BENCHMARK.json's bounds.
#
# Usage (from the repository root):
#   bash bench/stability.sh [-n RUNS] [-s SECONDS] [-v] [-o DIR] [workload ...]
#
# Runs every named workload (default: all in BENCHMARK.json) RUNS times
# (default 5), alternating the workload order each round. Every run uses
# seed 1, the default, as an A/B comparison of two commits does; with -v
# run i uses seed i instead, so the spread also covers different inputs.
# For each end-to-end metric it prints the median, the quartiles, the
# spread (q3 - q1) / median with Python's statistics.quantiles(n=4), the
# widest relative range (max - min) / median, and the relative gap
# between the medians of the odd-numbered and the even-numbered runs,
# two interleaved sets of the same commit. It exits non-zero when a gap
# exceeds the metric's bound, or when a spread does, except that of
# setup_s: set-up time is bounded by its median only, since a run sets
# up a few times where it repeats its operations hundreds of times
# (see bench/README.md). Each run's output is kept in DIR (default
# .bench_build/stability).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

runs=5
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
vary=0
out=.bench_build/stability
while getopts "n:s:vo:" opt; do
  case "$opt" in
    n) runs=$OPTARG ;;
    s) seconds=$OPTARG ;;
    v) vary=1 ;;
    o) out=$OPTARG ;;
    *) sed -n '2,20p' "$0"; exit 2 ;;
  esac
done
shift $((OPTIND - 1))
if [ $# -gt 0 ]; then
  workloads=("$@")
else
  read -r -a workloads <<<"$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
fi
mkdir -p "$out"

for ((i = 1; i <= runs; i++)); do
  seed=1
  if ((vary)); then seed=$i; fi
  order=("${workloads[@]}")
  if ((i % 2 == 0)); then
    order=()
    for ((j = ${#workloads[@]} - 1; j >= 0; j--)); do order+=("${workloads[j]}"); done
  fi
  for w in "${order[@]}"; do
    log="$out/$w-$i.txt"
    if ! bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 >"$log" 2>&1; then
      echo "stability: $w run $i (seed $seed) failed; see $log" >&2
      exit 1
    fi
    echo "$w run $i seed $seed: $(tail -n 1 "$log")"
  done
done

python3 - "$out" "$runs" "${workloads[@]}" <<'EOF'
import json, statistics, sys
out, runs, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
bounds = {m["name"]: m["bound"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
median_only = {"setup_s"}  # spread reported, not bounded; the gap is
bad = []
print(f"{'workload':12} {'metric':12} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'range':>8} {'gap':>8} {'bound':>6}")
for w in workloads:
    vals = {}
    for i in range(1, runs + 1):
        last = open(f"{out}/{w}-{i}.txt").read().strip().splitlines()[-1]
        for name, m in json.loads(last)["metrics"].items():
            vals.setdefault(name, []).append(m["value"])
    for name, xs in vals.items():
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], 0, xs[0])
        spread, rng = (q3 - q1) / med, (max(xs) - min(xs)) / med
        gap = 0.0
        if len(xs) > 1:
            a, b = statistics.median(xs[0::2]), statistics.median(xs[1::2])
            gap = max(a, b) / min(a, b) - 1
        flags = []
        if spread > bounds[name]:
            flags.append("spread (not bounded)" if name in median_only else "SPREAD EXCEEDS BOUND")
        if gap > bounds[name]:
            flags.append("GAP EXCEEDS BOUND")
        if any("EXCEEDS" in f for f in flags):
            bad.append(f"{w}/{name}")
        print(f"{w:12} {name:12} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} {rng:8.3f} {gap:8.3f} {bounds[name]:6.2f}  {', '.join(flags)}")
if bad:
    print("stability: outside the bound: " + ", ".join(bad), file=sys.stderr)
    sys.exit(1)
EOF
