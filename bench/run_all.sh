#!/usr/bin/env bash
# Runs every figure/ablation/micro bench with its --json sink enabled and
# merges the per-bench JSON arrays into one JSON object (by default
# <build_dir>/bench_all.json, inside the untracked build tree):
#
#   { "fig3_cond_prob_grid": [ {...}, ... ], "fig5_detection_static": [...] }
#
# Usage:
#   bench/run_all.sh [build_dir] [output_json]
#
# Environment:
#   THREADS           worker threads per bench (default: all hardware threads)
#   BENCHES           space-separated subset of benches to run (default: all)
#   MANET_RATE_CACHE  load-calibration cache file shared by all benches
#                     (default: <output_dir>/rates.cache — each distinct
#                     (scenario, load) point is calibrated once for the
#                     whole batch instead of once per bench)
#   EXTRA_FLAGS       appended to every bench invocation (e.g. --sim_time=30
#                     for a quick smoke pass)
set -euo pipefail
cd "$(dirname "$0")/.."

build_dir=${1:-build-bench}
out_json=${2:-$build_dir/bench_all.json}
threads=${THREADS:-0}

if [[ ! -d "$build_dir/bench" ]]; then
  echo "error: $build_dir/bench not found — build the bench preset first:" >&2
  echo "  cmake --preset bench && cmake --build --preset bench -j" >&2
  exit 1
fi

work_dir=$(mktemp -d)
trap 'rm -rf "$work_dir"' EXIT
export MANET_RATE_CACHE=${MANET_RATE_CACHE:-$work_dir/rates.cache}

# Sweep and micro benches on the standard exp sink (all accept --json;
# all accept --threads except the entries in no_threads below — the
# MicroHarness micros time single-threaded case bodies by design).
default_benches=(
  fig3_cond_prob_grid
  fig4_cond_prob_random
  fig5_detection_static
  fig5d_detection_mobile
  fig6_misdiagnosis_static
  fig6b_misdiagnosis_mobile
  fig_allpairs_monitoring
  fig_scale_sweep
  robustness_loss_sweep
  fig_roc_adversaries
  ablation_arma_alpha
  ablation_region_model
  ablation_estimator
  ablation_prs_value
  motivation_starvation
  extension_multihop
  micro_md5
  micro_event_queue
  micro_sim_components
  micro_wilcoxon
  micro_monitor
  micro_ingest
  micro_sink
)
no_threads=(extension_multihop fig_scale_sweep micro_md5 micro_event_queue
            micro_sim_components micro_wilcoxon micro_monitor micro_ingest
            micro_sink)
read -r -a benches <<< "${BENCHES:-${default_benches[*]}}"

for bench in "${benches[@]}"; do
  bin="$build_dir/bench/$bench"
  if [[ ! -x "$bin" ]]; then
    echo "## skipping $bench (not built)" >&2
    continue
  fi
  echo "## $bench"
  flags=(--json="$work_dir/$bench.json")
  if [[ ! " ${no_threads[*]} " == *" $bench "* ]]; then
    flags+=(--threads="$threads")
  fi
  # Fail fast: a crashing bench aborts the whole batch instead of leaving
  # a silently incomplete merged artifact. Sole exception: extension_multihop
  # exits 1 on a degraded VERDICT by design — its records still land in the
  # JSON, which is where the verdict is reported.
  if ! "$bin" "${flags[@]}" ${EXTRA_FLAGS:-}; then
    if [[ "$bench" == extension_multihop ]]; then
      echo "## $bench reported a degraded verdict (expected exit 1)" >&2
    else
      echo "error: $bench failed — aborting the batch" >&2
      exit 1
    fi
  fi
done

# Merge the per-bench arrays into one top-level object.
{
  echo "{"
  first=1
  for bench in "${benches[@]}"; do
    f="$work_dir/$bench.json"
    [[ -s "$f" ]] || continue
    [[ $first -eq 1 ]] || echo ","
    first=0
    printf '"%s":\n' "$bench"
    cat "$f"
  done
  echo "}"
} > "$out_json"

echo
echo "wrote $out_json ($(grep -c '^{"' "$out_json") records from ${#benches[@]} benches)"
