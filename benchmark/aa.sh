#!/usr/bin/env bash
# A/A check: two interleaved sets of N full untraced runs of the working
# tree (run i of each set uses seed i), then per (workload, end-to-end
# metric) both medians, both quartile pairs, the relative difference of
# the medians and PASS/FAIL against half the metric's bound.
#
#   bash benchmark/aa.sh 5
#
# Raw result lines are kept in benchmark/out/aa/. Exit code 1 when any
# pair fails.
set -euo pipefail

n="${1:-5}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="benchmark/out/aa"
rm -rf "$out"
mkdir -p "$out"

workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"

for i in $(seq 1 "$n"); do
    for set in a b; do
        for workload in $workloads; do
            echo "aa: set $set run $i $workload" >&2
            bash benchmark/run.sh --workload "$workload" --seed "$i" --seconds "$seconds" --trace 0 \
                | tail -n 1 >"$out/$set-$i-$workload.json"
        done
    done
done

python3 - "$out" "$n" <<'EOF'
import json, statistics, sys

out, n = sys.argv[1], int(sys.argv[2])
spec = json.load(open("BENCHMARK.json"))
failed = False
print("| workload | metric | median A | quartiles A | median B | quartiles B | rel. diff | half bound | verdict |")
print("|---|---|---|---|---|---|---|---|---|")
for workload in (w["name"] for w in spec["workloads"]):
    runs = {
        s: [json.load(open(f"{out}/{s}-{i}-{workload}.json")) for i in range(1, n + 1)]
        for s in "ab"
    }
    assert all(r["correct"] for s in "ab" for r in runs[s]), f"{workload}: a run was not correct"
    for metric in spec["end_to_end"]:
        name = metric["name"]
        cells, medians = [], []
        for s in "ab":
            values = [r["metrics"][name]["value"] for r in runs[s]]
            q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            medians.append(statistics.median(values))
            cells += [f"{medians[-1]:.4g}", f"{q[0]:.4g} .. {q[2]:.4g}"]
        diff = abs(medians[0] - medians[1]) / medians[0]
        ok = diff <= metric["bound"] / 2
        failed |= not ok
        print(f"| {workload} | {name} | " + " | ".join(cells)
              + f" | {diff:.2%} | {metric['bound'] / 2:.2%} | {'PASS' if ok else 'FAIL'} |")
sys.exit(1 if failed else 0)
EOF
