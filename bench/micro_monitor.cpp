// Microbenchmarks of the detection pipeline itself: complete
// run_multi_detection_experiment simulations on a small Table-1 grid,
// with every monitoring node's monitors running as the lanes of one
// MonitorBatch (the production path).
//
// The allpairs_* cases put the full monitor-config grid on each of the 4
// neighbors of a dense 3x3 grid's center (the
// bench/fig_allpairs_monitoring.cpp workload; the trailing number is
// configs per node, so allpairs_batch_12 is 48 monitors); single_batch
// is one monitor, where nothing is shared. Case names keep their
// historical "batch" tag so BENCH_PR8.json rows stay comparable.
#include <cstdint>
#include <string>

#include "detect/experiment.hpp"
#include "micro_common.hpp"

namespace {

using namespace manet;

// `monitor_configs` is a (sample size x margin) grid, the kind of
// parameter sweep the fig benches run side by side on one simulation.
detect::MultiDetectionConfig workload(bool all_pairs,
                                      std::size_t monitor_configs) {
  detect::MultiDetectionConfig cfg;
  cfg.scenario.grid_rows = 3;  // one contention domain around the center
  cfg.scenario.grid_cols = 3;
  cfg.scenario.num_flows = 8;
  cfg.scenario.sim_seconds = 5;
  cfg.scenario.seed = 1201;
  cfg.rate_pps = 40.0;
  cfg.pm = 50.0;
  cfg.all_pairs = all_pairs;
  const std::size_t sample_sizes[] = {10, 25, 50, 100};
  for (std::size_t i = 0; i < monitor_configs; ++i) {
    detect::MonitorConfig m;
    m.sample_size = sample_sizes[i % 4];
    m.margin_fraction = 0.05 + 0.05 * static_cast<double>(i / 4);
    m.fixed_n = m.fixed_k = m.fixed_m = m.fixed_j = 5.0;
    m.fixed_contenders = 20.0;
    cfg.monitors.push_back(m);
  }
  return cfg;
}

void run_workload(bench::MicroHarness& h, const std::string& name,
                  bool all_pairs, std::size_t monitor_configs,
                  std::size_t base_reps) {
  if (!h.enabled(name)) return;
  const auto cfg = workload(all_pairs, monitor_configs);
  const std::size_t reps = h.reps(base_reps);
  std::uint64_t windows = 0;
  std::uint64_t monitor_nodes = 0;
  h.run_case(
      name,
      [&] {
        for (std::size_t i = 0; i < reps; ++i) {
          const auto result = detect::run_multi_detection_experiment(cfg);
          windows = 0;
          for (const auto& r : result.per_config) windows += r.windows;
          monitor_nodes = result.monitor_nodes;
          bench::keep(result.per_config.front().flagged);
        }
        return static_cast<std::uint64_t>(reps);
      },
      [&](exp::Record& rec) {
        rec.add("sim_seconds", cfg.scenario.sim_seconds)
            .add("monitors", monitor_nodes * monitor_configs)
            .add("windows", windows);
      });
}

}  // namespace

int main(int argc, char** argv) {
  bench::MicroHarness h(
      "micro_monitor",
      "Full detection-pipeline simulations on a dense 3x3 grid, monitors "
      "as MonitorBatch lanes: all-pairs (4 monitoring nodes x N configs) "
      "and single-monitor.",
      argc, argv);

  // The trailing number is monitor configurations per monitoring node; 4
  // neighbors watch the tagged center, so _4 is 16 monitors and _12 is 48.
  for (std::size_t configs : {4u, 12u}) {
    run_workload(h, "allpairs_batch_" + std::to_string(configs),
                 /*all_pairs=*/true, configs, /*base_reps=*/2);
  }
  run_workload(h, "single_batch", /*all_pairs=*/false, 1, /*base_reps=*/3);
  return h.finish();
}
