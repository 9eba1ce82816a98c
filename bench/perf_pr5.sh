#!/usr/bin/env bash
# Measurement flow for the detection-pipeline optimizations recorded in
# BENCH_PR5.json (allocation-free Wilcoxon, window-accounting memo).
# micro_wilcoxon carries *_reference twins of the exact/approx cases (the
# pre-optimization allocating implementation kept verbatim), so that
# speedup is measured in the same build. The hub-vs-reference sweep legs this flow used to
# run measured pipelines that no longer exist; BENCH_PR5.json keeps their
# historical numbers.
#
# Writes one BENCH_PR5.json capturing:
#   * all-pairs monitoring and fig5 sweep wall-clock,
#   * micro_monitor latencies for the all-pairs workload in
#     microbenchmark form,
#   * micro_wilcoxon exact/approx latencies vs their reference twins
#     (>=1.5x on the exact path),
# plus the computed speedups.
#
# It also enforces the determinism contract: the fig5 / fig3 / fig6 /
# all-pairs artifacts must be byte-identical (timing fields stripped)
# across --threads=1 / --threads=4. Any behavioral difference fails the
# script.
#
# Usage:
#   bench/perf_pr5.sh [build_dir] [output_json]
#
# The build dir should use the `bench` preset (Release, -O3, IPO):
#   cmake --preset bench && cmake --build --preset bench -j
set -euo pipefail
cd "$(dirname "$0")/.."

build=${1:-build-bench}
out_json=${2:-BENCH_PR5.json}

for b in fig_allpairs_monitoring fig5_detection_static fig3_cond_prob_grid \
         fig6_misdiagnosis_static micro_monitor micro_wilcoxon; do
  [[ -x "$build/bench/$b" ]] || { echo "error: $build/bench/$b not built" >&2; exit 1; }
done

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
# One shared rate cache: every thread count must calibrate identically
# anyway (the calibration runs are themselves part of the determinism
# claim).
export MANET_RATE_CACHE="$work/rates"

ALLPAIRS_FLAGS=(--loads=0.6 --pms=0,50 --sim_time=60 --runs=2)
FIG5_FLAGS=(--loads=0.6 --pms=0,50 --sim_time=20 --runs=2)
FIG6_FLAGS=(--loads=0.6 --sample_sizes=10,25 --sim_time=20 --runs=2)
FIG3_FLAGS=(--rates=10,40 --measure_time=5)

echo "== determinism + wall-clock: all-pairs / fig5 / fig6 (1 vs 4 threads) ==" >&2
run_det() {  # $1 bench, $2 label, then flags...
  local bench=$1 label=$2; shift 2
  "$build/bench/$bench" "$@" --json="$work/$label.json" >/dev/null
}
run_det fig_allpairs_monitoring ap_t1 "${ALLPAIRS_FLAGS[@]}" --threads=1
run_det fig_allpairs_monitoring ap_t4 "${ALLPAIRS_FLAGS[@]}" --threads=4
run_det fig5_detection_static fig5_t1 "${FIG5_FLAGS[@]}" --threads=1
run_det fig5_detection_static fig5_t4 "${FIG5_FLAGS[@]}" --threads=4
run_det fig6_misdiagnosis_static fig6_t1 "${FIG6_FLAGS[@]}" --threads=1
run_det fig6_misdiagnosis_static fig6_t4 "${FIG6_FLAGS[@]}" --threads=4
run_det fig3_cond_prob_grid fig3_t1 "${FIG3_FLAGS[@]}" --threads=1
run_det fig3_cond_prob_grid fig3_t4 "${FIG3_FLAGS[@]}" --threads=4

strip_timing() {  # wall-clock and thread count are the only fields allowed to differ
  sed -E 's/, "wall_seconds": [^,}]+//; s/, "threads": [0-9]+//' "$1"
}
check_same() {  # $1/$2 labels, $3 description
  diff <(strip_timing "$work/$1.json") <(strip_timing "$work/$2.json") >/dev/null || {
    echo "FAIL: $3 — results differ, optimization changed behavior" >&2
    exit 1
  }
}
check_same ap_t1 ap_t4 "all-pairs threads 1 vs 4"
check_same fig5_t1 fig5_t4 "fig5 threads 1 vs 4"
check_same fig6_t1 fig6_t4 "fig6 threads 1 vs 4"
check_same fig3_t1 fig3_t4 "fig3 threads 1 vs 4"
echo "determinism: all-pairs/fig5/fig6/fig3 identical across thread counts" >&2

echo "== micro benches ==" >&2
"$build/bench/micro_monitor" --json="$work/micro_monitor.json"
"$build/bench/micro_wilcoxon" --json="$work/micro_wilcoxon.json"

python3 - "$work" "$out_json" <<'EOF'
import json, sys
work, out_path = sys.argv[1], sys.argv[2]

def sweep_wall(path):
    """Total wall_seconds across sweep points (one value per point)."""
    points = {}
    for rec in json.load(open(path)):
        points[(rec["load"], rec["pm"])] = rec["wall_seconds"]
    return sum(points.values())

def micro(path):
    return {rec["case"]: rec["ns_per_op"] for rec in json.load(open(path))}

def ratio(b, a):
    return round(b / a, 3) if a else None

allpairs = {"wall_s_threads1": sweep_wall(f"{work}/ap_t1.json")}
fig5 = {"wall_s_threads1": sweep_wall(f"{work}/fig5_t1.json")}
monitor = micro(f"{work}/micro_monitor.json")
wilcoxon = micro(f"{work}/micro_wilcoxon.json")

speedup = {}
for name, t in wilcoxon.items():
    if "_fast_" not in name:
        continue
    ref = wilcoxon.get(name.replace("_fast_", "_reference_"))
    if ref:
        speedup[f"{name}_vs_reference"] = ratio(ref, t)

doc = {
    "description": "detection-pipeline optimizations: window-accounting "
                   "memo + allocation-free Wilcoxon, the latter measured "
                   "against the pre-optimization implementation (*_reference micro "
                   "cases) in the same build",
    "determinism": "all-pairs/fig5/fig6/fig3 sweep artifacts byte-identical "
                   "(timing fields stripped) across --threads=1/4",
    "workload": "all-pairs: dense 3x3 grid, 4 monitoring nodes x 12 monitor "
                "configs = 48 monitors per simulation",
    "allpairs_sweep": allpairs,
    "fig5_sweep": fig5,
    "micro_monitor_ns_per_sim": {k: round(v, 1) for k, v in monitor.items()},
    "micro_wilcoxon_ns_per_test": {k: round(v, 1) for k, v in wilcoxon.items()},
    "speedup": speedup,
}
json.dump(doc, open(out_path, "w"), indent=1)
open(out_path, "a").write("\n")
print(json.dumps(speedup, indent=1))

exact = [v for k, v in speedup.items() if k.startswith("exact_")]
ok = True
if exact and min(exact) < 1.5:
    print("WARN: exact Wilcoxon speedup below the 1.5x target", file=sys.stderr)
    ok = False
sys.exit(0 if ok else 2)
EOF

echo "wrote $out_json" >&2
