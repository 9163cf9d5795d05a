#!/usr/bin/env bash
# benchmark/repeat.sh [N] [extra run.sh flags]
#
# Runs N full untraced sets (default 5), each with another seed, alternating
# the workload order, and prints per workload x end-to-end metric the median,
# min, max and spread of its N values beside the bound BENCHMARK.json gives
# it. The spread is the driver's: the distance between the first and third
# quartile (Python's statistics.quantiles, n=4) as a share of the median; of
# fewer than four runs, where quartiles mean nothing, the distance between
# the extremes. Exits non-zero if any spread exceeds its bound or any run
# was incorrect. Every run's result line is kept under benchmark/out/repeat/.
set -euo pipefail
cd "$(dirname "$0")/.."

sets="${1:-5}"
shift || true
out=benchmark/out/repeat
# `repeat.sh 0` reports again on the runs already there.
if ((sets > 0)); then
    rm -rf "$out"
fi
mkdir -p "$out"
workloads=(ingress_null fvm_compute state_mix train_sgd coldstart_storm)
reversed=(coldstart_storm train_sgd state_mix fvm_compute ingress_null)

for ((set = 0; set < sets; set++)); do
    if ((set % 2 == 0)); then order=("${workloads[@]}"); else order=("${reversed[@]}"); fi
    for workload in "${order[@]}"; do
        echo "set $set: $workload" >&2
        benchmark/run.sh --workload "$workload" --seed $((42 + set)) "$@" \
            | tail -n 1 >"$out/$set-$workload.json"
    done
done

python3 - "$out" <<'PY'
import glob, json, os, statistics, sys

out = sys.argv[1]
bench = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
print(f"{'workload':16} {'metric':16} {'median':>12} {'min':>12} {'max':>12} {'spread':>7} {'bound':>6}  verdict")
worst = 0
for workload in (w["name"] for w in bench["workloads"]):
    runs = [json.load(open(p)) for p in sorted(glob.glob(os.path.join(out, f"*-{workload}.json")))]
    failed = sum(r["failed"] for r in runs) + sum(not r["correct"] for r in runs)
    for metric, bound in bounds.items():
        values = [r["metrics"][metric]["value"] for r in runs]
        median = statistics.median(values)
        if len(values) >= 4:
            q = statistics.quantiles(values, n=4)
            spread = (q[2] - q[0]) / median
        else:
            spread = (max(values) - min(values)) / median
        verdict = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
        worst |= spread > bound
        print(f"{workload:16} {metric:16} {median:12.5g} {min(values):12.5g} {max(values):12.5g} {spread:7.3f} {bound:6.2f}  {verdict}")
    print(f"{workload:16} runs {len(runs)}, failed requests or incorrect runs: {failed}")
    worst |= failed > 0
sys.exit(worst)
PY
