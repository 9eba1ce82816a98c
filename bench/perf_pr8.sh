#!/usr/bin/env bash
# Measurement flow for the batched SoA detection core (monitors as
# the lanes of one MonitorBatch per node, the production pipeline). The
# batch-vs-hub and batch-vs-reference legs this flow used to run measured
# pipelines that no longer exist; BENCH_PR8.json keeps their historical
# numbers.
#
# Writes one BENCH_PR8.json capturing:
#   * all-pairs monitoring sweep wall-clock at degree 8
#     (--grid_spacing=170 pulls the 3x3 grid's diagonals into tx range, so
#     all 8 neighbors of the center monitor it) with a dense
#     (sample size x margin) config grid, and on the default grid,
#   * micro_monitor latencies for the same workload shape in
#     microbenchmark form,
#   * micro_wilcoxon scalar fast-path vs reference latencies,
#   * micro_ingest trace-replay frames/s over 1- and 16-config monitor
#     grids.
#
# It also enforces the determinism contract: the fig5 / fig6 / all-pairs
# artifacts (default and degree-8 grids) must be byte-identical (timing
# fields stripped) across --threads=1 / 4. Any behavioral difference
# fails the script.
#
# Usage:
#   bench/perf_pr8.sh [build_dir] [output_json]
#
# The build dir should use the `bench` preset (Release, -O3, IPO):
#   cmake --preset bench && cmake --build --preset bench -j
set -euo pipefail
cd "$(dirname "$0")/.."

build=${1:-build-bench}
out_json=${2:-BENCH_PR8.json}

for b in fig_allpairs_monitoring fig5_detection_static fig6_misdiagnosis_static \
         micro_monitor micro_wilcoxon micro_ingest; do
  [[ -x "$build/bench/$b" ]] || { echo "error: $build/bench/$b not built" >&2; exit 1; }
done

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
# One shared rate cache: every thread count must calibrate identically
# anyway (the calibration is part of the determinism claim).
export MANET_RATE_CACHE="$work/rates"

# Default-grid all-pairs (degree-4 center, 12 configs/node = 48 monitors).
ALLPAIRS_FLAGS=(--loads=0.6 --pms=0,50 --sim_time=40 --runs=2)
# Degree-8 all-pairs headline: 170 m spacing pulls the diagonals in range,
# and a dense margin sweep puts 4 sizes x 40 margins = 160 configs on each
# of the center's 8 neighbors — 1280 monitors per simulation, the workload
# shape the SoA lanes exist for.
deg8_margins=$(python3 -c "print(','.join(f'{0.02 + 0.0025*i:.4f}' for i in range(40)))")
AP_DEG8_FLAGS=(--loads=0.6 --pms=0,50 --sim_time=40 --runs=2
               --grid_spacing=170 --margins="$deg8_margins")
FIG5_FLAGS=(--loads=0.6 --pms=0,50 --sim_time=20 --runs=2)
FIG6_FLAGS=(--loads=0.6 --sample_sizes=10,25 --sim_time=20 --runs=2)

echo "== determinism + wall-clock: all-pairs / fig5 / fig6 (1 vs 4 threads) ==" >&2
run_det() {  # $1 bench, $2 label, then flags...
  local bench=$1 label=$2; shift 2
  "$build/bench/$bench" "$@" --json="$work/$label.json" >/dev/null
}
run_det fig_allpairs_monitoring ap_t1 "${ALLPAIRS_FLAGS[@]}" --threads=1
run_det fig_allpairs_monitoring ap_t4 "${ALLPAIRS_FLAGS[@]}" --threads=4
run_det fig_allpairs_monitoring deg8_t1 "${AP_DEG8_FLAGS[@]}" --threads=1
run_det fig_allpairs_monitoring deg8_t4 "${AP_DEG8_FLAGS[@]}" --threads=4
run_det fig5_detection_static fig5_t1 "${FIG5_FLAGS[@]}" --threads=1
run_det fig5_detection_static fig5_t4 "${FIG5_FLAGS[@]}" --threads=4
run_det fig6_misdiagnosis_static fig6_t1 "${FIG6_FLAGS[@]}" --threads=1
run_det fig6_misdiagnosis_static fig6_t4 "${FIG6_FLAGS[@]}" --threads=4

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
check_same deg8_t1 deg8_t4 "degree-8 all-pairs threads 1 vs 4"
check_same fig5_t1 fig5_t4 "fig5 threads 1 vs 4"
check_same fig6_t1 fig6_t4 "fig6 threads 1 vs 4"
echo "determinism: all-pairs/fig5/fig6 identical across thread counts" >&2

echo "== micro benches ==" >&2
"$build/bench/micro_monitor" --json="$work/micro_monitor.json"
"$build/bench/micro_wilcoxon" --json="$work/micro_wilcoxon.json"
"$build/bench/micro_ingest" --json="$work/micro_ingest.json"

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
deg8 = {"wall_s_threads1": sweep_wall(f"{work}/deg8_t1.json")}
fig5 = {"wall_s_threads1": sweep_wall(f"{work}/fig5_t1.json")}
monitor = micro(f"{work}/micro_monitor.json")
wilcoxon = micro(f"{work}/micro_wilcoxon.json")
ingest = micro(f"{work}/micro_ingest.json")

speedup = {}
for name, t in wilcoxon.items():
    if "_fast_" not in name:
        continue
    ref = wilcoxon.get(name.replace("_fast_", "_reference_"))
    if ref:
        speedup[f"{name}_vs_reference"] = ratio(ref, t)
ingest_rates = {f"{k}_frames_per_s": round(1e9 / v)
                for k, v in ingest.items()
                if k.startswith("replay_") and v}

doc = {
    "description": "batched SoA detection core: one pass per node and "
                   "per config-group, batched system-state/sequential "
                   "evaluation",
    "determinism": "all-pairs/fig5/fig6 sweep artifacts byte-identical "
                   "(timing fields stripped) across --threads=1/4",
    "workload": "degree-8 all-pairs: 3x3 grid at 170 m spacing (the "
                "center's 8 neighbors all in tx range), 8 monitoring nodes "
                "x (4 sample sizes x 40 margins) = 1280 monitors per "
                "simulation; default all-pairs: 240 m spacing, 48 monitors",
    "allpairs_deg8_sweep": deg8,
    "allpairs_sweep": allpairs,
    "fig5_sweep": fig5,
    "micro_monitor_ns_per_sim": {k: round(v, 1) for k, v in monitor.items()},
    "micro_wilcoxon_ns_per_test": {k: round(v, 1) for k, v in wilcoxon.items()},
    "micro_ingest_ns_per_op": {k: round(v, 1) for k, v in ingest.items()},
    "micro_ingest_replay_frames_per_s": ingest_rates,
    "speedup": speedup,
}
json.dump(doc, open(out_path, "w"), indent=1)
open(out_path, "a").write("\n")
print(json.dumps(speedup, indent=1))
EOF

echo "wrote $out_json" >&2
