// replay_allpairs: the streaming/monitor use of detect, with no simulator
// in the timed passes. Setup records .mtrace traces from all-pairs grid
// runs (every in-range neighbour monitors the tagged node) and serializes
// them, scenarios in parallel over exp::Engine; each timed pass decodes
// every trace (CRC-checked) and replays it through a 16-config monitor
// grid mixing the Wilcoxon, CUSUM and SPRT detectors.
#include <algorithm>
#include <memory>

#include "detect/experiment.hpp"
#include "detect/replay.hpp"
#include "detect/trace.hpp"
#include "exp/engine.hpp"
#include "exp/seeding.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace manet;

namespace {

constexpr std::size_t kSampleSizes[] = {10, 25, 50, 100};
constexpr std::size_t kSetups = 17;  // recordings per run

/// Sample size x margin grid; each margin row runs one detector.
std::vector<detect::MonitorConfig> monitor_grid() {
  const detect::DetectorKind rows[] = {
      detect::DetectorKind::kWilcoxon, detect::DetectorKind::kCusum,
      detect::DetectorKind::kSprt, detect::DetectorKind::kWilcoxon};
  std::vector<detect::MonitorConfig> grid;
  for (std::size_t row = 0; row < std::size(rows); ++row) {
    for (const std::size_t ss : kSampleSizes) {
      detect::MonitorConfig m;
      m.sample_size = ss;
      m.margin_fraction = 0.05 * static_cast<double>(row + 1);
      m.detector = rows[row];
      m.fixed_n = m.fixed_k = m.fixed_m = m.fixed_j = 5.0;
      m.fixed_contenders = 20.0;
      grid.push_back(m);
    }
  }
  return grid;
}

/// One scenario's live run and the traces it recorded (one per monitor).
struct Scenario {
  detect::MultiDetectionResult live;
  std::vector<std::vector<std::uint8_t>> traces;
  std::uint64_t events = 0;
  double serialize_s = 0.0;
};

struct Recording {
  std::vector<Scenario> scenarios;
  std::uint64_t events = 0;
  std::uint64_t bytes = 0;
  std::size_t traces = 0;
  double serialize_s = 0.0;
};

}  // namespace

void run_replay_allpairs(const Options& opt, Tracer& tracer, Report& report) {
  // Several scenario seeds (seed + i, the engine's contract) rather than
  // one: a run's throughput then averages over flow layouts, whose frame
  // and carrier-edge mix differs from seed to seed.
  const std::size_t scenario_count = 16;
  detect::MultiDetectionConfig cfg;  // Table-1 grid defaults
  cfg.scenario.sim_seconds = opt.tiny ? 2.0 : 5.0;
  cfg.warmup_s = 1.0;  // short runs; replay must match live either way
  // The per-flow rate grid_detect calibrates for load 0.6 on the default
  // Table-1 layout, fixed so the recording needs no calibration.
  cfg.rate_pps = 14.0;
  cfg.pm = 50.0;
  cfg.all_pairs = true;
  cfg.monitors = monitor_grid();
  const std::size_t setups = opt.tiny ? 1 : kSetups;
  // Scenarios are recorded, and replayed in each pass, min(4, nproc) at a
  // time, like grid_detect's trials.
  exp::Engine engine(std::min(4u, exp::resolve_threads(0)));

  // --- Setup: record and serialize -------------------------------------------
  // The first recording is the one replayed. The other setups are spread
  // over the untimed gaps between passes (SetupSpread), so their median
  // samples the same stretch of host time as the passes do.
  std::vector<double> setup_s;
  Recording rec;
  const auto record = [&] {
    Span setup(tracer, "exp", "Engine::map");
    const std::uint32_t setup_id = setup.id();
    Recording r;
    r.scenarios = engine.map(scenario_count, [&](std::size_t i) {
      detect::TraceRecorder recorder;
      detect::MultiDetectionConfig run = cfg;
      run.scenario.seed = exp::trial_seed(opt.seed, i);
      run.trace = &recorder;
      Scenario sc;
      {
        Span span(tracer, "detect", "run_multi_detection_experiment", setup_id);
        sc.live = detect::run_multi_detection_experiment(run);
      }
      Span span(tracer, "detect", "TraceWriter::serialize", setup_id);
      for (const auto& w : recorder.writers()) {
        sc.traces.push_back(w->serialize());
        sc.events += w->events_recorded();
      }
      span.close();
      sc.serialize_s = span.seconds();
      return sc;
    });
    setup.close();
    for (const Scenario& sc : r.scenarios) {
      r.events += sc.events;
      r.serialize_s += sc.serialize_s;
      r.traces += sc.traces.size();
      for (const auto& t : sc.traces) r.bytes += t.size();
    }
    setup_s.push_back(setup.seconds());
    if (setup_s.size() == 1) {
      rec = std::move(r);
      return;
    }
    bool same = true;
    for (std::size_t i = 0; i < scenario_count; ++i) {
      same = same && r.scenarios[i].traces == rec.scenarios[i].traces;
    }
    report.op(same, "recorded traces differ across setups");
  };
  record();

  // Recorded air time: every trace runs from its start to the stop time.
  const double air_s = static_cast<double>(rec.traces) * cfg.scenario.sim_seconds;

  std::uint64_t frames = 0;
  std::uint64_t lanes = 0;
  std::vector<detect::MultiDetectionResult> replayed(scenario_count);
  // One scenario's share of a pass: decode its traces, replay them.
  struct PassItem {
    detect::MultiDetectionResult result;
    std::uint64_t frames = 0;
    std::uint64_t lanes = 0;
    double decode_s = 0.0;
    double replay_s = 0.0;
    std::string error;
  };
  struct Phase {
    std::vector<double> pass_wall;
    std::vector<double> frame_rate;
    std::vector<double> air_rate;
    double decode_s = 0.0;
    double replay_s = 0.0;
  };
  const auto run_phase = [&](double budget_s) {
    Phase phase;
    const PhaseClock clock(budget_s, 3, 0, std::max(60.0, 3 * budget_s));
    SetupSpread spread(clock, setups - setup_s.size());
    while (clock.more(phase.pass_wall.size(), 0)) {
      while (spread.next()) record();
      Span pass(tracer, "exp", "Engine::map");
      const std::uint32_t pass_id = pass.id();
      auto items = engine.map(scenario_count, [&](std::size_t i) {
        PassItem item;
        std::vector<std::unique_ptr<detect::MemoryTraceReader>> readers;
        std::vector<detect::MemoryTraceReader*> ptrs;
        {
          Span span(tracer, "detect", "MemoryTraceReader", pass_id);
          try {
            for (const auto& bytes : rec.scenarios[i].traces) {
              readers.push_back(std::make_unique<detect::MemoryTraceReader>(bytes));
              ptrs.push_back(readers.back().get());
            }
          } catch (const detect::TraceError& e) {
            item.error = std::string("trace failed to decode: ") + e.what();
          }
          span.close();
          item.decode_s = span.seconds();
        }
        if (!item.error.empty()) return item;
        {
          Span span(tracer, "detect", "replay_detection", pass_id);
          item.result = detect::replay_detection(ptrs, cfg.monitors, cfg.warmup_s);
          span.close();
          item.replay_s = span.seconds();
        }
        for (const auto* r : ptrs) {
          for (const auto& ev : r->events()) {
            if (ev.kind == detect::ObservationKind::kFrame) ++item.frames;
          }
          item.lanes += cfg.monitors.size() * r->header().targets.size();
        }
        return item;
      });
      pass.close();
      frames = 0;
      lanes = 0;
      for (std::size_t i = 0; i < scenario_count; ++i) {
        PassItem& item = items[i];
        phase.decode_s += item.decode_s;
        phase.replay_s += item.replay_s;
        if (!item.error.empty()) {
          report.op(false, item.error);
          continue;
        }
        const auto& live = rec.scenarios[i].live.per_config;
        bool match = item.result.per_config.size() == live.size();
        for (std::size_t c = 0; match && c < live.size(); ++c) {
          match = same_counters(item.result.per_config[c], live[c]);
        }
        report.op(match, "replayed results differ from the live run");
        replayed[i] = std::move(item.result);
        frames += item.frames;
        lanes += item.lanes;
      }
      phase.pass_wall.push_back(pass.seconds());
      phase.frame_rate.push_back(static_cast<double>(frames) / pass.seconds());
      phase.air_rate.push_back(air_s / pass.seconds());
    }
    while (setup_s.size() < setups) record();
    return phase;
  };

  const bool traced = opt.trace;
  tracer.set_enabled(false);
  const Phase plain = run_phase(traced ? opt.seconds / 2 : opt.seconds);
  Phase measured;
  if (traced) {
    tracer.set_enabled(true);
    measured = run_phase(opt.seconds / 2);
    tracer.set_enabled(false);
  }

  std::string digest_text;
  for (const auto& result : replayed) {
    for (const auto& c : result.per_config) describe(digest_text, c);
  }
  appendf(digest_text, "traces=%zu bytes=%llu events=%llu frames=%llu\n", rec.traces,
          static_cast<unsigned long long>(rec.bytes),
          static_cast<unsigned long long>(rec.events),
          static_cast<unsigned long long>(frames));
  report.set_digest(digest_of(digest_text));
  char shape[128];
  std::snprintf(shape, sizeof shape,
                "%zu scenarios, %zu traces x %.3g sim-s, %zu configs, %llu frames",
                scenario_count, rec.traces, cfg.scenario.sim_seconds, cfg.monitors.size(),
                static_cast<unsigned long long>(frames));
  report.note("recording", shape);

  if (!traced) {
    report.median_of("setup_s", setup_s, "s");
    report.median_of("sim_s_per_wall_s", plain.air_rate, "s/s");
    report.median_of("frames_per_s", plain.frame_rate, "1/s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    return;
  }

  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const double passes = static_cast<double>(measured.pass_wall.size());
  detect::MonitorStats all;
  std::uint64_t windows = 0;
  std::uint64_t flagged = 0;
  for (const auto& result : replayed) {
    for (const auto& c : result.per_config) {
      detect::accumulate_stats(all, c.stats);
      windows += c.windows;
      flagged += c.flagged;
    }
  }
  const std::uint64_t skipped =
      all.skipped_no_anchor + all.skipped_long_window + all.skipped_queue_gap;
  report.metric("detect.windows", d(all.windows), "count");
  report.metric("detect.rts_observed", d(all.rts_observed), "count");
  report.metric("detect.samples", d(all.samples), "count");
  report.metric("detect.flagged_windows", d(all.flagged_windows), "count");
  report.ratio("detect.skipped_frac", d(skipped), "skipped", d(all.windows + skipped),
               "windows+skipped", "1");
  report.ratio("detect.rate_pm50", d(flagged), "flagged", d(windows), "windows", "1");
  report.ratio("detect.decode_ns_per_event", measured.decode_s / passes, "decode_s_per_pass",
               d(rec.events), "events", "ns", 1e9);
  report.ratio("detect.replay_ns_per_frame", measured.replay_s / passes, "replay_s_per_pass",
               d(frames), "frames", "ns", 1e9);
  report.ratio("detect.windows_per_kframe", d(windows), "windows", d(frames), "frames",
               "1", 1e3);
  report.metric("detect.lanes", d(lanes), "count");
  report.ratio("detect.serialize_ns_per_event", rec.serialize_s, "serialize_s",
               d(rec.events), "events", "ns", 1e9);
  report.ratio("detect.trace_bytes_per_event", d(rec.bytes), "trace_bytes",
               d(rec.events), "events", "B");

  report.ratio("trace.overhead_frac", median(measured.pass_wall), "traced_pass_s",
               median(plain.pass_wall), "untraced_pass_s", "1", 1.0, -1.0);
  report.metric("trace.coverage", tracer.coverage(), "1");
}

}  // namespace perfbench
