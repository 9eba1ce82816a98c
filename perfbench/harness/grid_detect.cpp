// grid_detect: the paper's own workload. The Table-1 56-node static grid
// at load 0.6, the centre node tagged at PM 0 and PM 50 and watched by its
// nearest neighbour with the Fig. 5 sample sizes, trials mapped over
// exp::Engine under its seed = base + i contract, records through an exp
// sink.
#include <algorithm>
#include <cstdio>

#include "detect/experiment.hpp"
#include "detect/replay.hpp"
#include "detect/trace.hpp"
#include "exp/engine.hpp"
#include "exp/rate_cache.hpp"
#include "exp/seeding.hpp"
#include "exp/sink.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace manet;

namespace {

constexpr double kLoad = 0.6;
constexpr std::size_t kSetups = 17;  // cold calibrations per run
constexpr double kPms[] = {0.0, 50.0};
constexpr std::size_t kSampleSizes[] = {10, 25, 50, 100};

struct Trial {
  detect::MultiDetectionResult result;
  double wall_s = 0.0;
  double replay_s = 0.0;  // live-share pass only
  bool replay_matches = true;
};

std::string describe_trial(const detect::MultiDetectionResult& r) {
  std::string out;
  appendf(out, "rho=%.17g nodes=%llu\n", r.measured_rho,
          static_cast<unsigned long long>(r.monitor_nodes));
  for (const auto& c : r.per_config) describe(out, c);
  return out;
}

}  // namespace

void run_grid_detect(const Options& opt, Tracer& tracer, Report& report) {
  const std::size_t trials_per_pm = opt.tiny ? 2 : 16;
  const double trial_sim_s = opt.tiny ? 4.0 : 30.0;
  const std::size_t setups = opt.tiny ? 1 : kSetups;
  const std::size_t pm_count = std::size(kPms);
  const std::size_t round_trials = pm_count * trials_per_pm;
  const unsigned workers = std::min(4u, exp::resolve_threads(0));

  // Calibration runs on the default Table-1 layout, so every run offers the
  // same per-flow rate and a seed's throughput does not depend on where the
  // rate bisection happened to stop; the trials run at --seed + i.
  const net::ScenarioConfig layout;
  net::ScenarioConfig scenario = layout;
  scenario.seed = opt.seed;
  scenario.sim_seconds = trial_sim_s;

  // --- Setup: cold in-process calibration ------------------------------------
  // The first calibration runs here; the others are spread over the timed
  // phase (SetupSpread), so their median samples the same stretch of host
  // time as the rounds do.
  std::vector<double> calibrate_s;
  int probes = 0;
  double rate = 0.0;
  const auto calibrate = [&] {
    // The calibrator installs the flow layout every detection bench
    // calibrates against (the monitored centre pair plus the random
    // one-hop flows) and counts the probe simulations.
    exp::RateCache cache(layout, "", [&](const net::ScenarioConfig& s, double load) {
      const auto result = net::calibrate_load(s, load, [](net::Network& net) {
        const NodeId c = net.center_node();
        const auto nbrs = net.neighbors(c, net.config().prop.tx_range_m, 0);
        if (!nbrs.empty()) net.add_flow(c, nbrs.front(), 1.0);
        net.build_random_flows();
      });
      probes = result.probe_runs;
      return result;
    });
    Span span(tracer, "exp", "RateCache::rate_for");
    const double r = cache.rate_for(kLoad);
    span.close();
    calibrate_s.push_back(span.seconds());
    if (calibrate_s.size() > 1) report.op(r == rate, "calibration not repeatable");
    rate = r;
  };
  calibrate();

  std::vector<detect::MultiDetectionConfig> configs;
  for (const double pm : kPms) {
    detect::MultiDetectionConfig cfg;
    cfg.scenario = scenario;
    cfg.rate_pps = rate;
    cfg.pm = pm;
    for (const std::size_t ss : kSampleSizes) {
      detect::MonitorConfig m;
      m.sample_size = ss;
      m.fixed_n = m.fixed_k = m.fixed_m = m.fixed_j = 5.0;  // grid, Section 5
      m.fixed_contenders = 20.0;
      cfg.monitors.push_back(m);
    }
    configs.push_back(cfg);
  }

  exp::Engine engine(workers);
  exp::MemorySink sink;
  double sink_s = 0.0;
  std::size_t sink_records = 0;

  // One round: every (PM, trial) pair mapped over the engine.
  const auto run_round = [&](bool record_traces) {
    Span round(tracer, "exp", "Engine::map");
    const std::uint32_t round_id = round.id();
    auto trials = engine.map(round_trials, [&](std::size_t i) {
      detect::MultiDetectionConfig cfg = configs[i / trials_per_pm];
      cfg.scenario.seed = exp::trial_seed(cfg.scenario.seed, i % trials_per_pm);
      detect::TraceRecorder recorder;
      if (record_traces) cfg.trace = &recorder;
      Trial t;
      {
        Span span(tracer, "detect", "run_multi_detection_experiment", round_id);
        t.result = detect::run_multi_detection_experiment(cfg);
        span.close();
        t.wall_s = span.seconds();
      }
      if (record_traces) {
        std::vector<std::unique_ptr<detect::MemoryTraceReader>> readers;
        std::vector<detect::MemoryTraceReader*> ptrs;
        for (const auto& w : recorder.writers()) {
          readers.push_back(std::make_unique<detect::MemoryTraceReader>(w->serialize()));
          ptrs.push_back(readers.back().get());
        }
        Span span(tracer, "detect", "replay_detection", round_id);
        const auto replayed = detect::replay_detection(ptrs, cfg.monitors, cfg.warmup_s);
        span.close();
        t.replay_s = span.seconds();
        for (std::size_t c = 0; c < replayed.per_config.size(); ++c) {
          t.replay_matches = t.replay_matches &&
                             same_counters(replayed.per_config[c], t.result.per_config[c]);
        }
      }
      return t;
    });
    round.close();
    {
      Span span(tracer, "exp", "ResultSink::record");
      for (std::size_t i = 0; i < trials.size(); ++i) {
        const auto& r = trials[i].result;
        for (std::size_t c = 0; c < r.per_config.size(); ++c) {
          exp::Record rec;
          rec.add("bench", "grid_detect")
              .add("pm", kPms[i / trials_per_pm])
              .add("trial", static_cast<std::uint64_t>(i % trials_per_pm))
              .add("sample_size", static_cast<std::uint64_t>(kSampleSizes[c]))
              .add("windows", r.per_config[c].windows)
              .add("flagged", r.per_config[c].flagged)
              .add("intensity", r.measured_rho)
              .add("wall_seconds", trials[i].wall_s);
          sink.record(rec);
          ++sink_records;
        }
      }
      span.close();
      sink_s += span.seconds();
    }
    return std::make_pair(std::move(trials), round.seconds());
  };

  // --- Timed phases ---------------------------------------------------------
  std::vector<std::string> reference;  // round-1 outputs per trial
  struct Phase {
    std::vector<double> round_rate;    // sim-s per wall-s, per round
    std::vector<double> frame_rate;    // observed RTS per wall-s, per round
    std::vector<double> round_wall;
    std::vector<double> trial_s;       // every trial's wall time
    std::vector<double> trial_s_by_index;  // summed per trial index
    double busy_s = 0.0;
    double wall_s = 0.0;
  };
  std::vector<detect::MultiDetectionResult> first_round;
  const auto run_phase = [&](double budget_s, std::size_t min_trials) {
    Phase phase;
    phase.trial_s_by_index.assign(round_trials, 0.0);
    const PhaseClock clock(budget_s, 2, min_trials, std::max(60.0, 4 * budget_s));
    SetupSpread spread(clock, setups - calibrate_s.size());
    while (clock.more(phase.round_wall.size(), phase.trial_s.size())) {
      while (spread.next()) calibrate();
      auto [trials, wall] = run_round(false);
      std::uint64_t rts = 0;
      for (std::size_t i = 0; i < trials.size(); ++i) {
        const std::string text = describe_trial(trials[i].result);
        if (reference.size() < round_trials) {
          reference.push_back(text);
          first_round.push_back(trials[i].result);
        } else {
          report.op(text == reference[i], "grid trial output differs across rounds");
        }
        rts += trials[i].result.per_config.front().stats.rts_observed;
        phase.trial_s.push_back(trials[i].wall_s);
        phase.trial_s_by_index[i] += trials[i].wall_s;
        phase.busy_s += trials[i].wall_s;
      }
      phase.round_wall.push_back(wall);
      phase.wall_s += wall;
      phase.round_rate.push_back(static_cast<double>(round_trials) * trial_sim_s / wall);
      phase.frame_rate.push_back(static_cast<double>(rts) / wall);
    }
    while (calibrate_s.size() < setups) calibrate();
    return phase;
  };

  const bool traced = opt.trace;
  tracer.set_enabled(false);
  const Phase plain = run_phase(traced ? opt.seconds / 2 : opt.seconds, 0);
  Phase measured;
  if (traced) {
    tracer.set_enabled(true);
    measured = run_phase(opt.seconds / 2, samples_needed(0.9));
  }

  // --- Correctness: the same trials through run_multi_detection_trials ----
  tracer.set_enabled(false);
  std::string digest_text;
  for (std::size_t p = 0; p < pm_count; ++p) {
    const auto expected = detect::run_multi_detection_trials(
        configs[p], static_cast<int>(trials_per_pm), engine);
    std::vector<detect::DetectionResult> summed(std::size(kSampleSizes));
    for (std::size_t t = 0; t < trials_per_pm; ++t) {
      const auto& r = first_round[p * trials_per_pm + t];
      for (std::size_t c = 0; c < summed.size(); ++c) {
        summed[c].windows += r.per_config[c].windows;
        summed[c].flagged += r.per_config[c].flagged;
        summed[c].flagged_statistical += r.per_config[c].flagged_statistical;
        detect::accumulate_stats(summed[c].stats, r.per_config[c].stats);
      }
    }
    for (std::size_t c = 0; c < summed.size(); ++c) {
      report.op(same_counters(summed[c], expected.per_config[c]),
                "summed counters differ from run_multi_detection_trials");
      describe(digest_text, summed[c]);
    }
  }
  report.set_digest(digest_of(digest_text));

  // --- Metrics ----------------------------------------------------------------
  detect::MonitorStats all;
  std::uint64_t windows[std::size(kPms)] = {};
  std::uint64_t flagged[std::size(kPms)] = {};
  for (std::size_t i = 0; i < first_round.size(); ++i) {
    for (const auto& c : first_round[i].per_config) {
      detect::accumulate_stats(all, c.stats);
      windows[i / trials_per_pm] += c.windows;
      flagged[i / trials_per_pm] += c.flagged;
    }
  }
  char shape[96];
  std::snprintf(shape, sizeof shape, "%zu trials x %.0f sim-s, %u workers, rate %.6g pps",
                round_trials, trial_sim_s, workers, rate);
  report.note("round", shape);

  if (!traced) {
    report.median_of("setup_s", calibrate_s, "s");
    report.median_of("sim_s_per_wall_s", plain.round_rate, "s/s");
    report.median_of("frames_per_s", plain.frame_rate, "1/s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    return;
  }

  // Live-share pass: the same round again, recording every trial's
  // observation stream and replaying it offline. Replay time over the
  // trial's untraced wall time bounds what faster detection can save.
  tracer.set_enabled(true);
  const auto recorded = run_round(true).first;
  tracer.set_enabled(false);
  double replay_s = 0.0;
  double live_s = 0.0;
  for (std::size_t i = 0; i < recorded.size(); ++i) {
    report.op(recorded[i].replay_matches, "replayed trial differs from live");
    replay_s += recorded[i].replay_s;
    live_s += plain.trial_s_by_index[i] / static_cast<double>(plain.round_wall.size());
  }

  const std::uint64_t skipped =
      all.skipped_no_anchor + all.skipped_long_window + all.skipped_queue_gap;
  report.metric("detect.windows", static_cast<double>(all.windows), "count");
  report.metric("detect.rts_observed", static_cast<double>(all.rts_observed), "count");
  report.metric("detect.samples", static_cast<double>(all.samples), "count");
  report.metric("detect.flagged_windows", static_cast<double>(all.flagged_windows), "count");
  report.ratio("detect.skipped_frac", static_cast<double>(skipped), "skipped",
               static_cast<double>(all.windows + skipped), "windows+skipped", "1");
  report.ratio("detect.rate_pm50", static_cast<double>(flagged[1]), "flagged_pm50",
               static_cast<double>(windows[1]), "windows_pm50", "1");
  report.ratio("detect.misdiag_rate_pm0", static_cast<double>(flagged[0]), "flagged_pm0",
               static_cast<double>(windows[0]), "windows_pm0", "1");
  report.ratio("detect.live_share", replay_s, "replay_s", live_s, "untraced_trial_s", "1");

  report.median_of("exp.calibrate_s", calibrate_s, "s");
  report.metric("exp.calibration_probes", probes, "count");
  report.median_of("exp.trial_s_p50", measured.trial_s, "s");
  report.percentile_of("exp.trial_s_p90", measured.trial_s, 0.9, "s");
  report.ratio("exp.worker_busy_frac", measured.busy_s, "trial_busy_s",
               static_cast<double>(workers) * measured.wall_s, "workers*phase_wall_s", "1");
  report.ratio("exp.sink_ns_per_record", sink_s, "sink_s",
               static_cast<double>(sink_records), "records", "ns", 1e9);

  report.ratio("trace.overhead_frac", median(measured.round_wall), "traced_round_s",
               median(plain.round_wall), "untraced_round_s", "1", 1.0, -1.0);
  report.metric("trace.coverage", tracer.coverage(), "1");
}

}  // namespace perfbench
