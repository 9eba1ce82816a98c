#!/usr/bin/env bash
# Measurement flow for the scale kernel. Both receiver-lookup paths
# live in the SAME build: every network bench takes
# --channel_index={auto,scan} (auto = the incremental index: per-radio
# cell migration + predicted-position prefilter + parked-pair budget
# cache; scan = the always-exact full-scan oracle), and fig_scale_sweep
# takes the same pair as --index. The rebuild-kernel legs this flow used
# to run measured a kernel that no longer exists; BENCH_PR9.json keeps
# their historical numbers.
#
# Writes one BENCH_PR9.json capturing:
#   * fig_scale_sweep wall-clock at 1k and 2k mobile nodes (10 sim-s of
#     random waypoint + multi-hop AODV request/response) for both index
#     modes, plus the computed speedups,
#   * a 10k-node 50-sim-s completion run on the incremental index with the
#     index/cache counters recorded,
#   * the incremental index/cache statistics at every measured size.
#
# It also enforces the determinism contract: the fig5 / fig5d / fig6 /
# all-pairs artifacts must be byte-identical (timing fields stripped)
# across --channel_index=auto / scan AND across --threads=1 / 4, and the
# fig_scale_sweep workload counters must be identical across index
# modes. Any behavioral difference fails the script: the index is a
# lookup strategy, never a physics change.
#
# Speedup reality (see DESIGN.md section 4j): at 1k nodes the wall clock
# is dominated by the shared MAC/PHY/AODV delivery work (~36 deliveries +
# ~43 carrier edges per transmission at the paper's density). The index
# removes the O(N) receiver scan and keeps memory O(N); the vs-scan ratio
# grows with N, but it does not — cannot — multiply the shared physics.
# The 5x-at-1k target is checked below and reported as a WARN (exit 2)
# when missed, with the honest numbers recorded either way.
#
# Usage:
#   bench/perf_pr9.sh [build_dir] [output_json]
#
# The build dir should use the `bench` preset (Release, -O3, IPO):
#   cmake --preset bench && cmake --build --preset bench -j
set -euo pipefail
cd "$(dirname "$0")/.."

build=${1:-build-bench}
out_json=${2:-BENCH_PR9.json}

for b in fig_scale_sweep fig5_detection_static fig5d_detection_mobile \
         fig6_misdiagnosis_static fig_allpairs_monitoring; do
  [[ -x "$build/bench/$b" ]] || { echo "error: $build/bench/$b not built" >&2; exit 1; }
done

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
# One shared rate cache: calibration is part of the determinism claim —
# every index mode must reproduce the same calibrated rates.
export MANET_RATE_CACHE="$work/rates"

FIG5_FLAGS=(--loads=0.6 --pms=0,50 --sim_time=20 --runs=2)
FIG5D_FLAGS=(--pms=50 --sample_sizes=10,25 --sim_time=40 --runs=2)
FIG6_FLAGS=(--loads=0.6 --sample_sizes=10,25 --sim_time=20 --runs=2)
ALLPAIRS_FLAGS=(--loads=0.6 --pms=0,50 --sim_time=40 --runs=2)

echo "== determinism: fig5 / fig5d / fig6 / all-pairs (auto vs scan, 1 vs 4 threads) ==" >&2
run_det() {  # $1 bench, $2 label, then flags...
  local bench=$1 label=$2; shift 2
  "$build/bench/$bench" "$@" --json="$work/$label.json" >/dev/null
}
strip_timing() {  # wall-clock and thread count are the only fields allowed to differ
  sed -E 's/, "wall_seconds": [^,}]+//; s/, "threads": [0-9]+//' "$1"
}
check_same() {  # $1/$2 labels, $3 description
  diff <(strip_timing "$work/$1.json") <(strip_timing "$work/$2.json") >/dev/null || {
    echo "FAIL: $3 — results differ, the spatial index changed behavior" >&2
    exit 1
  }
}
det_bench() {  # $1 bench, $2 tag, then the bench's sweep flags...
  local bench=$1 tag=$2; shift 2
  run_det "$bench" "${tag}_inc_t1" "$@" --threads=1 --channel_index=auto
  run_det "$bench" "${tag}_inc_t4" "$@" --threads=4 --channel_index=auto
  run_det "$bench" "${tag}_scan_t1" "$@" --threads=1 --channel_index=scan
  check_same "${tag}_inc_t1" "${tag}_inc_t4" "$tag incremental threads 1 vs 4"
  check_same "${tag}_inc_t1" "${tag}_scan_t1" "$tag incremental vs full-scan reference"
  echo "  $tag: identical across auto/scan and thread counts" >&2
}
det_bench fig5_detection_static fig5 "${FIG5_FLAGS[@]}"
det_bench fig5d_detection_mobile fig5d "${FIG5D_FLAGS[@]}"
det_bench fig6_misdiagnosis_static fig6 "${FIG6_FLAGS[@]}"
det_bench fig_allpairs_monitoring ap "${ALLPAIRS_FLAGS[@]}"

echo "== determinism: scale workload counters across index modes ==" >&2
# Default JSON only (no --cache_stats): every workload and AODV counter
# must match; only the index name and the wall-clock fields may differ.
strip_scale() {
  sed -E 's/, "wall_seconds": [^,}]+//; s/, "sim_s_per_wall_s": [^,}]+//;
          s/"index": "[a-z]+", //' "$1"
}
SCALE_DET_FLAGS=(--nodes=500 --sim_time=5 --seed=7)
"$build/bench/fig_scale_sweep" "${SCALE_DET_FLAGS[@]}" --index=auto \
    --json="$work/sdet_inc.json" >/dev/null
"$build/bench/fig_scale_sweep" "${SCALE_DET_FLAGS[@]}" --index=scan \
    --json="$work/sdet_scan.json" >/dev/null
diff <(strip_scale "$work/sdet_inc.json") <(strip_scale "$work/sdet_scan.json") >/dev/null || {
  echo "FAIL: scale workload differs between incremental and scan" >&2
  exit 1
}
echo "  scale workload counters identical across auto/scan" >&2

echo "== scale measurement: 1k and 2k nodes, 10 sim-s, both index modes ==" >&2
"$build/bench/fig_scale_sweep" --nodes=1000,2000 --sim_time=10 \
    --index=auto --cache_stats=1 --json="$work/scale_inc.json"
"$build/bench/fig_scale_sweep" --nodes=1000,2000 --sim_time=10 \
    --index=scan --json="$work/scale_scan.json"

echo "== 10k-node completion run (incremental, 50 sim-s, 100 flows) ==" >&2
# Flow count pinned: the AODV discovery floods are O(N) transmissions per
# flood, so flows scaling with N makes the WORKLOAD O(N^2) regardless of
# the index. 100 flows keeps the 10k point a kernel measurement.
"$build/bench/fig_scale_sweep" --nodes=10000 --sim_time=50 --flows=100 \
    --index=auto --cache_stats=1 --json="$work/scale_10k.json"

python3 - "$work" "$out_json" <<'EOF'
import json, sys
work, out_path = sys.argv[1], sys.argv[2]

def by_nodes(path):
    return {int(rec["nodes"]): rec for rec in json.load(open(path))}

def ratio(b, a):
    return round(b / a, 3) if a else None

inc = by_nodes(f"{work}/scale_inc.json")
scan = by_nodes(f"{work}/scale_scan.json")
ten_k = json.load(open(f"{work}/scale_10k.json"))[0]

speedup = {}
for n in (1000, 2000):
    speedup[f"scale_{n}_incremental_vs_scan"] = ratio(
        scan[n]["wall_seconds"], inc[n]["wall_seconds"])

doc = {
    "description": "scale kernel: incremental spatial index (per-radio "
                   "cell migration heap, predicted-position prefilter, "
                   "parked-pair budget cache) measured against the "
                   "full-scan reference (--channel_index=scan) in the same "
                   "build, under random waypoint + multi-hop AODV "
                   "request/response at the paper's density (40 nodes/km^2)",
    "determinism": "fig5/fig5d/fig6/all-pairs artifacts byte-identical "
                   "(timing fields stripped) across "
                   "--channel_index=auto/scan and --threads=1/4; "
                   "fig_scale_sweep workload and AODV counters identical "
                   "across index modes",
    "workload": "fig_scale_sweep: random waypoint (20 m/s max, 5 s pause), "
                "nodes/20 request/response flows at 2 req/s, 10 sim-s per "
                "point; the 10k completion run pins 100 flows because "
                "discovery floods are O(N) transmissions each, making "
                "flows-proportional-to-N an O(N^2) workload by itself",
    "scale_sweep": {
        "incremental": {str(n): inc[n] for n in sorted(inc)},
        "scan": {str(n): scan[n] for n in sorted(scan)},
    },
    "ten_k_completion": ten_k,
    "speedup": speedup,
    "speedup_note": "the shared MAC/PHY/AODV delivery work (~36 deliveries "
                    "per transmission at this density) bounds any "
                    "index-only gain; the vs-scan ratio grows with N. The "
                    "incremental index also keeps memory O(N), so the 10k "
                    "run completes.",
}
json.dump(doc, open(out_path, "w"), indent=1)
open(out_path, "a").write("\n")
print(json.dumps({"speedup": speedup,
                  "ten_k_sim_s_per_wall_s": ten_k["sim_s_per_wall_s"]},
                 indent=1))

ok = True
if (speedup["scale_1000_incremental_vs_scan"] or 0) < 5.0:
    print("WARN: 1k incremental-vs-scan speedup below the 5x target — the "
          "shared delivery path dominates at this density; see speedup_note "
          "and DESIGN.md section 4j", file=sys.stderr)
    ok = False
if ten_k.get("sim_s_per_wall_s", 0) <= 0:
    print("WARN: 10k completion run recorded no throughput", file=sys.stderr)
    ok = False
sys.exit(0 if ok else 2)
EOF

echo "wrote $out_json" >&2
