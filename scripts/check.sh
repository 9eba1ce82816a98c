#!/usr/bin/env bash
# Full verification: plain build + tests and the artifact determinism rows,
# then the same suite under AddressSanitizer + UBSan (-DMANET_SANITIZE=ON),
# then multi-threaded short-sweep bench smokes under the sanitizers (races /
# UB in the experiment engine's parallel trial fan-out would surface here),
# then a ThreadSanitizer pass. This script is the one place where artifact
# byte-identity is checked; perfbench/run.py measures speed.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT

strip_timing() {  # wall-clock and thread count are the only fields allowed to differ
  sed -E 's/, "wall_seconds": [^,}]+//; s/, "threads": [0-9]+//' "$1"
}
# fig_scale_sweep: only the index name and the wall-clock fields may differ.
strip_scale() {
  sed -E 's/, "wall_seconds": [^,}]+//; s/, "sim_s_per_wall_s": [^,}]+//;
          s/"index": "[a-z]+", //' "$1"
}
# expect_same <tag> <bench> <common flags...> -- <variant A...> -- <variant B...>
# Runs <bench> once per variant (its flags appended to the common ones),
# writing $smoke_dir/<tag>.a.json and <tag>.b.json, and requires a non-empty
# artifact and the two to be identical after strip_timing (strip_scale for
# fig_scale_sweep).
expect_same() {
  local tag=$1 bench=$2
  shift 2
  local common=() a=()
  while [[ $1 != -- ]]; do common+=("$1"); shift; done
  shift
  while [[ $1 != -- ]]; do a+=("$1"); shift; done
  shift
  local strip=strip_timing
  [[ $(basename "$bench") != fig_scale_sweep ]] || strip=strip_scale
  "$bench" "${common[@]}" "${a[@]}" --json="$smoke_dir/$tag.a.json" >/dev/null
  "$bench" "${common[@]}" "$@" --json="$smoke_dir/$tag.b.json" >/dev/null
  grep -q '^{' "$smoke_dir/$tag.a.json" \
    || { echo "empty JSON sink output: $tag ($bench ${a[*]})"; exit 1; }
  diff <("$strip" "$smoke_dir/$tag.a.json") <("$strip" "$smoke_dir/$tag.b.json") \
    || { echo "$tag: $(basename "$bench") differs between ${a[*]} and $*"; exit 1; }
  echo "  identical: $tag (${a[*]} vs $*)"
}

echo "== plain build =="
cmake -B build -S . >/dev/null
cmake --build build -j "$jobs"
ctest --test-dir build --output-on-failure -j "$jobs"

echo "== artifact determinism rows =="
# Behaviour, not memory safety, so these run on the plain tree: sweep
# artifacts must be byte-identical across worker counts, across the
# channel's receiver lookup (--channel_index=auto, the incremental index,
# vs scan, the full-scan oracle), and across shard processes merged by
# sweep_merge. The ASan stages below add fig5, all-pairs and ROC threads
# 1 vs 4, the fig5 3-shard merge, and the scale auto-vs-scan counters.
fig3_flags=(--rates=10,40 --measure_time=5)
fig5_flags=(--loads=0.6 --pms=0,50 --sim_time=20 --runs=2)
fig5d_flags=(--pms=50 --sample_sizes=10,25 --sim_time=40 --runs=2)
fig6_flags=(--loads=0.6 --sample_sizes=10,25 --sim_time=20 --runs=2)
ap_flags=(--loads=0.6 --pms=0,50 --sim_time=40 --runs=2)
expect_same fig3_threads ./build/bench/fig3_cond_prob_grid "${fig3_flags[@]}" \
    -- --threads=1 -- --threads=4
expect_same fig5d_threads ./build/bench/fig5d_detection_mobile \
    "${fig5d_flags[@]}" -- --threads=1 -- --threads=4
expect_same fig6_threads ./build/bench/fig6_misdiagnosis_static \
    "${fig6_flags[@]}" -- --threads=1 -- --threads=4
expect_same fig5_index ./build/bench/fig5_detection_static "${fig5_flags[@]}" \
    --threads=1 -- --channel_index=auto -- --channel_index=scan
expect_same fig5d_index ./build/bench/fig5d_detection_mobile \
    "${fig5d_flags[@]}" --threads=1 -- --channel_index=auto -- --channel_index=scan
# Waypoint pauses mix parked and moving radios: parked transmitters serve
# their fan-outs from link lists while neighbours arrive, park and leave
# (with these flags the runs see waypoint arrivals well inside 60 s).
expect_same fig5d_pause_index ./build/bench/fig5d_detection_mobile \
    --pms=50 --sample_sizes=10,25 --sim_time=60 --runs=2 --max_speed=60 \
    --pause=10 --threads=1 -- --channel_index=auto -- --channel_index=scan
expect_same fig6_index ./build/bench/fig6_misdiagnosis_static \
    "${fig6_flags[@]}" --threads=1 -- --channel_index=auto -- --channel_index=scan
expect_same allpairs_index ./build/bench/fig_allpairs_monitoring \
    "${ap_flags[@]}" --threads=1 -- --channel_index=auto -- --channel_index=scan
# Degree-8 all-pairs: 170 m spacing pulls the 3x3 grid's diagonals into
# range, so all 8 neighbors of the center monitor it with 4 sample sizes x
# 40 margins each (1280 monitor lanes per simulation).
deg8_margins=$(awk 'BEGIN { for (i = 0; i < 40; ++i)
                              printf "%s%.4f", (i ? "," : ""), 0.02 + 0.0025 * i }')
expect_same allpairs_deg8_threads ./build/bench/fig_allpairs_monitoring \
    "${ap_flags[@]}" --grid_spacing=170 --margins="$deg8_margins" \
    -- --threads=1 -- --threads=4
# The ROC harness as 4 concurrent shard processes merged by sweep_merge
# must equal the serial artifact. The shared artifact store and rate cache
# make the shards reuse the serial run's honest baselines and
# calibrations, so store-served results are held to the same bytes.
roc_shard_flags=(--attackers=pm50,pm90,colluding,adaptive,sybil,rts_flood
                 --thresholds=0.001,0.01,0.1 --sim_time=15 --runs=2 --threads=1)
export MANET_ARTIFACTS="$smoke_dir/artifacts" MANET_RATE_CACHE="$smoke_dir/rates"
./build/bench/fig_roc_adversaries "${roc_shard_flags[@]}" \
    --json="$smoke_dir/roc_serial.json" >/dev/null
pids=()
for i in 0 1 2 3; do
  ./build/bench/fig_roc_adversaries "${roc_shard_flags[@]}" --shard="$i/4" \
      --columnar="$smoke_dir/roc_shard_$i.mcol" >/dev/null &
  pids+=($!)
done
for pid in "${pids[@]}"; do wait "$pid"; done
unset MANET_ARTIFACTS MANET_RATE_CACHE
./build/tools/sweep_merge --json="$smoke_dir/roc_merged.json" \
    "$smoke_dir"/roc_shard_{0,1,2,3}.mcol >/dev/null
diff <(strip_timing "$smoke_dir/roc_merged.json") \
     <(strip_timing "$smoke_dir/roc_serial.json") \
  || { echo "ROC harness: 4 merged shards differ from the serial artifact"; exit 1; }
echo "  identical: roc_shards (4 shards merged vs serial)"

echo "== ASan + UBSan build =="
# A build-asan dir configured without sanitizers (e.g. a copied plain build)
# would silently run the entire "sanitized" suite uninstrumented. Refuse it.
if [[ -f build-asan/CMakeCache.txt ]] && \
   ! grep -q '^MANET_SANITIZE:BOOL=ON' build-asan/CMakeCache.txt; then
  echo "error: build-asan exists but was not configured with -DMANET_SANITIZE=ON" >&2
  echo "       (stale or non-sanitized cache — remove it and re-run:" >&2
  echo "        rm -rf build-asan && scripts/check.sh)" >&2
  exit 1
fi
cmake -B build-asan -S . -DMANET_SANITIZE=ON >/dev/null
cmake --build build-asan -j "$jobs"
ctest --test-dir build-asan --output-on-failure -j "$jobs"

echo "== multi-threaded sweep smoke (ASan + UBSan) =="
# Determinism: the same sweep serially must produce the identical artifact.
expect_same fig5_threads ./build-asan/bench/fig5_detection_static \
    --loads=0.6 --pms=0,50 --sim_time=20 --runs=4 -- --threads=4 -- --threads=1
fig5_serial="$smoke_dir/fig5_threads.b.json"
./build-asan/bench/fig3_cond_prob_grid \
    --rates=10,40 --measure_time=5 --threads=4 \
    --json="$smoke_dir/fig3.json" >/dev/null
grep -q '^{' "$smoke_dir/fig3.json" \
  || { echo "empty JSON sink output: fig3.json"; exit 1; }

echo "== perf smoke (ASan + UBSan) =="
# A short pass over the kernel micro benches walks the EventQueue's cancel
# and slot-reuse paths, the CsTimeline sweep, and the channel index under
# the sanitizers. A --filter that matches no case must fail, or a renamed
# case would turn these filtered smokes into silent no-ops.
./build-asan/bench/micro_sim_components --filter=sim_second --reps=0.1 >/dev/null
./build-asan/bench/micro_event_queue --filter=cancel --reps=0.01 >/dev/null
! ./build/bench/micro_md5 --filter=no_such_case >/dev/null 2>&1 \
  || { echo "micro harness accepted a --filter that matches no case"; exit 1; }

echo "== detection pipeline smoke (ASan + UBSan) =="
# The batched SoA pipeline must give the same all-pairs artifact serially
# and across the engine's workers. (Batch == private-per-monitor reference
# on all-pairs is HubEquivalence.AllPairsBitIdenticalAndCountsNodes, which
# the sanitized ctest run above covers.)
expect_same allpairs_threads ./build-asan/bench/fig_allpairs_monitoring \
    --loads=0.6 --pms=0,50 --sim_time=20 --runs=2 -- --threads=1 -- --threads=4
echo "== adversary zoo / ROC harness smoke (ASan + UBSan) =="
# Every v2 attacker (colluding schedule, adaptive probation, sybil alias
# plumbing, RTS flooder + gap bound) exercised under the sanitizers, and
# the scored ROC/TTD artifact must be bit-identical across thread counts.
roc_flags=(--attackers=pm90,colluding,adaptive,sybil,rts_flood
           --thresholds=0.001,0.01,0.1 --sim_time=15 --runs=2)
expect_same roc_threads ./build-asan/bench/fig_roc_adversaries "${roc_flags[@]}" \
    -- --threads=4 -- --threads=1

# Short pass over the detection micro benches: the batched lane dispatch,
# window-accounting memo, and scalar Wilcoxon under the sanitizers.
./build-asan/bench/micro_monitor --filter=allpairs_batch_4 --reps=0.5 \
    >/dev/null
./build-asan/bench/micro_wilcoxon --filter=_n10 --reps=0.02 >/dev/null

echo "== trace record/replay equivalence (ASan + UBSan) =="
# The streaming detection path: record a live run (static + mobile-handoff,
# all three detectors) to binary .mtrace files, replay them through the
# identical detection code, and require the canonical results text to be
# byte-identical. A drift in the wire format, the replay world
# reconstruction, or the detectors themselves shows up as a diff here.
tr_flags=(--sim_time=20 --sample_sizes=10,25 --detectors=wilcoxon,cusum,sprt)
./build-asan/tools/trace_replay --mode=record "${tr_flags[@]}" \
    --dir="$smoke_dir/traces_static" --results="$smoke_dir/live_static.txt" \
    2>/dev/null
./build-asan/tools/trace_replay --mode=replay "${tr_flags[@]}" \
    --dir="$smoke_dir/traces_static" --results="$smoke_dir/replay_static.txt"
diff "$smoke_dir/live_static.txt" "$smoke_dir/replay_static.txt" \
  || { echo "static replay differs from the live run"; exit 1; }
./build-asan/tools/trace_replay --mode=record "${tr_flags[@]}" --mobile=1 \
    --pm=0 \
    --dir="$smoke_dir/traces_mobile" --results="$smoke_dir/live_mobile.txt" \
    2>/dev/null
./build-asan/tools/trace_replay --mode=replay "${tr_flags[@]}" \
    --dir="$smoke_dir/traces_mobile" --results="$smoke_dir/replay_mobile.txt"
diff "$smoke_dir/live_mobile.txt" "$smoke_dir/replay_mobile.txt" \
  || { echo "mobile-handoff replay differs from the live run"; exit 1; }

# Short pass over the trace codec and replay ingest loop (CRC framing,
# event decode, hub consume into the batch) under the sanitizers.
./build-asan/bench/micro_ingest \
    --filter=replay_batch_wilcoxon --reps=0.1 >/dev/null

echo "== sharded sweep fabric (ASan + UBSan) =="
# The fig5 sweep as 3 independent shard processes writing binary columnar
# artifacts; sweep_merge validates the set and renders the canonical JSON,
# which must be byte-identical to the serial single-process artifact from
# the determinism stage above.
fig5_flags=(--loads=0.6 --pms=0,50 --sim_time=20 --runs=4 --threads=1)
for i in 0 1 2; do
  ./build-asan/bench/fig5_detection_static "${fig5_flags[@]}" \
      --shard="$i/3" --columnar="$smoke_dir/fab_$i.mcol" >/dev/null
done
./build-asan/tools/sweep_merge --json="$smoke_dir/fab_merged.json" \
    "$smoke_dir"/fab_{0,1,2}.mcol >/dev/null
diff <(strip_timing "$smoke_dir/fab_merged.json") \
     <(strip_timing "$fig5_serial") \
  || { echo "sharded merge differs from the serial artifact"; exit 1; }
# The merge tool must REFUSE defective shard sets: a missing shard (gap),
# a doubled shard (overlap), a shard from a different sweep (fingerprint
# mismatch), and a corrupted artifact (CRC).
expect_merge_failure() {  # $1 description, then sweep_merge args...
  local what=$1
  shift
  if ./build-asan/tools/sweep_merge "$@" >/dev/null 2>"$smoke_dir/merge_err"; then
    echo "sweep_merge accepted a defective shard set ($what)"; exit 1
  fi
  echo "  sweep_merge refused $what: $(head -1 "$smoke_dir/merge_err")"
}
expect_merge_failure "a coverage gap" "$smoke_dir"/fab_{0,2}.mcol
expect_merge_failure "an overlap" "$smoke_dir"/fab_{0,1,1,2}.mcol
./build-asan/bench/fig5_detection_static --loads=0.6 --pms=0,25 \
    --sim_time=20 --runs=4 --threads=1 --shard=2/3 \
    --columnar="$smoke_dir/fab_other.mcol" >/dev/null
expect_merge_failure "a sweep fingerprint mismatch" \
    "$smoke_dir"/fab_{0,1}.mcol "$smoke_dir/fab_other.mcol"
cp "$smoke_dir/fab_1.mcol" "$smoke_dir/fab_bad.mcol"
printf '\x5a' | dd of="$smoke_dir/fab_bad.mcol" bs=1 seek=200 conv=notrunc \
    status=none
expect_merge_failure "a CRC-corrupt artifact" \
    "$smoke_dir/fab_0.mcol" "$smoke_dir/fab_bad.mcol" "$smoke_dir/fab_2.mcol"

echo "== checkpoint/resume (ASan + UBSan) =="
# Kill a checkpointing shard mid-run (SIGKILL: no destructors, the sink
# keeps a partial tail past the journal offset), rerun the identical
# command to resume, and require the artifact to match the serial JSON.
# If the machine is fast enough that the first attempt finishes before
# the kill, the rerun is a fresh complete run — the comparison still holds.
ck_flags=("${fig5_flags[@]}" --checkpoint_cells=1
          --columnar="$smoke_dir/ck.mcol" --checkpoint="$smoke_dir/ck.journal")
timeout -s KILL 3 ./build-asan/bench/fig5_detection_static \
    "${ck_flags[@]}" >/dev/null || true
./build-asan/bench/fig5_detection_static "${ck_flags[@]}" >/dev/null
[[ ! -e "$smoke_dir/ck.journal" ]] \
  || { echo "checkpoint journal not removed after completion"; exit 1; }
./build-asan/tools/sweep_merge --json="$smoke_dir/ck.json" \
    "$smoke_dir/ck.mcol" >/dev/null
diff <(strip_timing "$smoke_dir/ck.json") \
     <(strip_timing "$fig5_serial") \
  || { echo "resumed run differs from the serial artifact"; exit 1; }

echo "== scale kernel smoke (ASan + UBSan) =="
# 1k mobile nodes through the incremental spatial index: cell migrations,
# the predicted-position prefilter, and the timeline hard budgets all run
# instrumented.
./build-asan/bench/fig_scale_sweep --nodes=1000 --sim_time=2 \
    --index=auto --cache_stats=1 \
    --json="$smoke_dir/scale_1k.json" >/dev/null
grep -q '^{' "$smoke_dir/scale_1k.json" \
  || { echo "empty JSON sink output: scale_1k.json"; exit 1; }
# Incremental-vs-reference index diff: the receiver-lookup path must be
# invisible to the workload — every request/response and AODV counter
# identical between the incremental index and the full-scan reference.
expect_same scale_index ./build-asan/bench/fig_scale_sweep \
    --nodes=400 --sim_time=3 --seed=7 -- --index=auto -- --index=scan

echo "== ThreadSanitizer: engine fan-out, sinks, fabric =="
# TSan build scoped to the concurrency-bearing layer: the exp engine's
# worker pool, the (mutex-guarded) result sinks, the fabric, and a
# multi-threaded sweep driving them all. ASan and TSan cannot share a
# build, hence the third tree.
if [[ -f build-tsan/CMakeCache.txt ]] && \
   ! grep -q '^MANET_TSAN:BOOL=ON' build-tsan/CMakeCache.txt; then
  echo "error: build-tsan exists but was not configured with -DMANET_TSAN=ON" >&2
  echo "       (stale or non-TSan cache — remove it and re-run:" >&2
  echo "        rm -rf build-tsan && scripts/check.sh)" >&2
  exit 1
fi
cmake -B build-tsan -S . -DMANET_TSAN=ON >/dev/null
cmake --build build-tsan -j "$jobs" \
    --target exp_test fabric_test fig5_detection_static
./build-tsan/tests/exp_test >/dev/null
./build-tsan/tests/fabric_test >/dev/null
./build-tsan/bench/fig5_detection_static --loads=0.6 --pms=0,50 \
    --sim_time=10 --runs=4 --threads=4 \
    --json="$smoke_dir/tsan_fig5.json" >/dev/null
grep -q '^{' "$smoke_dir/tsan_fig5.json" \
  || { echo "empty JSON sink output under TSan"; exit 1; }

echo "All checks passed."
