// Fault-injection layer + monitor degradation under impaired observation.
//
// Covers the FaultInjector itself (determinism, i.i.d. rate, Gilbert–Elliott
// burst structure), the channel/radio integration (loss, corruption,
// outages), and the monitor's resynchronization semantics: misses resync,
// outages discard, and only genuine PRS jumps violate.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "detect/monitor.hpp"
#include "mac/backoff.hpp"
#include "mac/dcf.hpp"
#include "net/mobility.hpp"
#include "net/scenario.hpp"
#include "phy/channel.hpp"
#include "phy/cs_timeline.hpp"
#include "phy/impairments.hpp"
#include "phy/radio.hpp"
#include "sim/simulator.hpp"

using namespace manet;
using detect::Monitor;
using detect::MonitorConfig;
using detect::MonitorStats;

namespace {

// --- FaultInjector in isolation ----------------------------------------------

TEST(FaultPlan, DisabledByDefault) {
  phy::FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  plan.loss_probability = 0.1;
  EXPECT_TRUE(plan.enabled());

  phy::FaultPlan ge;
  ge.gilbert_elliott = true;
  EXPECT_TRUE(ge.enabled());

  phy::FaultPlan outage;
  outage.outages.push_back({0, kSecond, 2 * kSecond});
  EXPECT_TRUE(outage.enabled());
}

TEST(FaultInjector, IidLossMatchesProbability) {
  phy::FaultPlan plan;
  plan.loss_probability = 0.2;
  phy::FaultInjector inj(plan, 7);
  const int n = 50000;
  int lost = 0;
  for (int i = 0; i < n; ++i) {
    if (inj.decode_fate(0, 1) == phy::DecodeFate::kLost) ++lost;
  }
  EXPECT_NEAR(static_cast<double>(lost) / n, 0.2, 0.01);
  EXPECT_EQ(inj.decisions(), static_cast<std::uint64_t>(n));
}

TEST(FaultInjector, SameSeedSameFateSequence) {
  phy::FaultPlan plan;
  plan.loss_probability = 0.3;
  plan.corrupt_probability = 0.1;
  phy::FaultInjector a(plan, 42), b(plan, 42), c(plan, 43);
  bool any_differs_c = false;
  for (int i = 0; i < 2000; ++i) {
    const auto fa = a.decode_fate(0, 1);
    EXPECT_EQ(fa, b.decode_fate(0, 1));
    if (fa != c.decode_fate(0, 1)) any_differs_c = true;
  }
  EXPECT_TRUE(any_differs_c);  // a different seed is a different schedule
}

TEST(FaultInjector, GilbertElliottBurstLength) {
  phy::FaultPlan plan;
  plan.gilbert_elliott = true;
  plan.ge_p_good_to_bad = 0.05;
  plan.ge_p_bad_to_good = 0.25;
  plan.ge_loss_good = 0.0;
  plan.ge_loss_bad = 1.0;
  phy::FaultInjector inj(plan, 11);

  // Losses come only from the bad state, so loss runs are bad-state
  // sojourns: geometric with mean 1 / p_bad_to_good = 4.
  int bursts = 0;
  long long burst_frames = 0;
  int current = 0;
  for (int i = 0; i < 200000; ++i) {
    if (inj.decode_fate(3, 4) == phy::DecodeFate::kLost) {
      ++current;
    } else if (current > 0) {
      ++bursts;
      burst_frames += current;
      current = 0;
    }
  }
  ASSERT_GT(bursts, 500);
  const double mean_burst = static_cast<double>(burst_frames) / bursts;
  EXPECT_NEAR(mean_burst, 4.0, 0.5);
}

TEST(FaultInjector, GilbertElliottChainsArePerLink) {
  phy::FaultPlan plan;
  plan.gilbert_elliott = true;
  plan.ge_p_good_to_bad = 1.0;  // link enters the bad state on first use
  plan.ge_p_bad_to_good = 0.0;  // and stays there
  plan.ge_loss_bad = 1.0;
  phy::FaultInjector inj(plan, 5);
  EXPECT_EQ(inj.decode_fate(0, 1), phy::DecodeFate::kLost);
  EXPECT_EQ(inj.decode_fate(9, 8), phy::DecodeFate::kLost);  // fresh chain
  EXPECT_EQ(inj.decode_fate(0, 1), phy::DecodeFate::kLost);
}

TEST(FaultInjector, CorruptorPassthroughWithoutHook) {
  phy::FaultPlan plan;
  plan.corrupt_probability = 1.0;
  phy::FaultInjector inj(plan, 1);
  ASSERT_EQ(inj.decode_fate(0, 1), phy::DecodeFate::kCorrupted);
  const auto payload = std::make_shared<const mac::Frame>();
  EXPECT_EQ(inj.corrupt_payload(payload), payload);  // no corruptor installed
}

TEST(CorruptRtsFields, ManglesOnlyRts) {
  util::Xoshiro256ss rng(9);
  mac::Frame rts;
  rts.type = mac::FrameType::kRts;
  rts.seq_off = 100;
  rts.attempt = 2;
  const auto original = std::make_shared<const mac::Frame>(rts);
  const auto mangled = std::dynamic_pointer_cast<const mac::Frame>(
      mac::corrupt_rts_fields(original, rng));
  ASSERT_NE(mangled, nullptr);
  EXPECT_NE(mangled, original);
  EXPECT_NE(mangled->seq_off, original->seq_off);
  EXPECT_NE(mangled->attempt, original->attempt);
  EXPECT_NE(mangled->data_digest, original->data_digest);

  mac::Frame data;
  data.type = mac::FrameType::kData;
  const auto data_ptr = std::make_shared<const mac::Frame>(data);
  EXPECT_EQ(mac::corrupt_rts_fields(data_ptr, rng), data_ptr);
}

// --- Config plumbing ---------------------------------------------------------

TEST(ScenarioFaults, OutageStringParses) {
  const auto outages = net::parse_outages("3:10:12,7:100.5:105");
  ASSERT_EQ(outages.size(), 2u);
  EXPECT_EQ(outages[0].node, 3u);
  EXPECT_EQ(outages[0].start, seconds_to_time(10));
  EXPECT_EQ(outages[0].stop, seconds_to_time(12));
  EXPECT_EQ(outages[1].node, 7u);
  EXPECT_EQ(outages[1].stop, seconds_to_time(105));

  EXPECT_TRUE(net::parse_outages("").empty());
  EXPECT_THROW(net::parse_outages("3:10"), std::invalid_argument);
  EXPECT_THROW(net::parse_outages("3:12:10"), std::invalid_argument);
  EXPECT_THROW(net::parse_outages("x:1:2"), std::invalid_argument);
}

TEST(ScenarioFaults, DeclaredDefaultsDisableThePlan) {
  util::Config c;
  net::ScenarioConfig::declare(c);
  const auto s = net::ScenarioConfig::from_config(c);
  EXPECT_FALSE(s.faults.enabled());
}

// --- End-to-end: lossy observation of an honest sender -----------------------

struct FixedPositions : phy::PositionProvider {
  explicit FixedPositions(std::vector<geom::Vec2> p) : pos(std::move(p)) {}
  std::vector<geom::Vec2> pos;
  geom::Vec2 position(NodeId node, SimTime) const override { return pos.at(node); }
};

struct LossyFixture {
  // S at node 0, monitor R at node 1, 200 m apart; faults installed only
  // when the plan is enabled (mirrors net::Network).
  explicit LossyFixture(const phy::FaultPlan& plan, std::uint64_t seed = 3)
      : prop(phy::PropagationParams{}, 3),
        positions({{0, 0}, {200, 0}}),
        channel(sim, prop, positions),
        faults(plan, seed) {
    for (NodeId i = 0; i < 2; ++i) {
      radios.push_back(std::make_unique<phy::Radio>(i, channel));
      macs.push_back(std::make_unique<mac::DcfMac>(sim, *radios.back(), params));
      timelines.push_back(std::make_unique<phy::CsTimeline>());
      radios.back()->add_listener(timelines.back().get());
    }
    faults.set_corruptor(mac::corrupt_rts_fields);
    if (faults.enabled()) channel.install_faults(faults);
  }

  Monitor& attach_monitor(MonitorConfig cfg) {
    cfg.separation_m = 200;
    monitor = detect::MonitorFactory(sim, *macs[1], *timelines[1]).watch(0, cfg);
    return *monitor;
  }

  void run_saturated(SimTime until) {
    feeder = [this, until] {
      for (int i = 0; i < 10; ++i) macs[0]->enqueue(1, 512, next_id++);
      if (sim.now() < until) sim.after(100 * kMillisecond, feeder);
    };
    sim.at(0, feeder);
    sim.run_until(until);
  }

  sim::Simulator sim;
  mac::DcfParams params;
  phy::Propagation prop;
  FixedPositions positions;
  phy::Channel channel;
  phy::FaultInjector faults;
  std::vector<std::unique_ptr<phy::Radio>> radios;
  std::vector<std::unique_ptr<mac::DcfMac>> macs;
  std::vector<std::unique_ptr<phy::CsTimeline>> timelines;
  std::unique_ptr<Monitor> monitor;
  std::function<void()> feeder;
  std::uint64_t next_id = 1;
};

TEST(LossyMonitor, HonestSenderResyncsInsteadOfViolating) {
  phy::FaultPlan plan;
  plan.loss_probability = 0.18;
  LossyFixture f(plan);
  Monitor& mon = f.attach_monitor(MonitorConfig{});
  f.run_saturated(20 * kSecond);

  const MonitorStats& st = mon.stats();
  EXPECT_GT(st.rts_observed, 100u);
  EXPECT_GT(st.seq_off_resyncs, 10u);     // misses were noticed...
  EXPECT_GT(st.frames_lost, 10u);         // ...and written off
  EXPECT_EQ(st.seq_off_violations, 0u);   // never blamed on the sender
  EXPECT_EQ(st.attempt_violations, 0u);
  EXPECT_EQ(st.impossible_backoff, 0u);
  for (const auto& w : mon.windows()) EXPECT_FALSE(w.deterministic_flag);
}

TEST(LossyMonitor, CorruptedRtsNeverFramesTheSender) {
  phy::FaultPlan plan;
  plan.corrupt_probability = 0.25;
  LossyFixture f(plan);
  Monitor& mon = f.attach_monitor(MonitorConfig{});
  f.run_saturated(20 * kSecond);

  // Corrupted deliveries fail the FCS: the monitor's MAC records reception
  // errors and the mangled SeqOff/Attempt/digest fields are never parsed.
  EXPECT_GT(f.macs[1]->stats().rx_errors, 20u);
  EXPECT_EQ(mon.stats().seq_off_violations, 0u);
  EXPECT_EQ(mon.stats().attempt_violations, 0u);
  EXPECT_GT(mon.stats().seq_off_resyncs, 10u);
}

TEST(LossyMonitor, LossyRunsAreDeterministic) {
  phy::FaultPlan plan;
  plan.loss_probability = 0.15;
  plan.corrupt_probability = 0.05;

  const auto run = [&plan] {
    LossyFixture f(plan);
    Monitor& mon = f.attach_monitor(MonitorConfig{});
    f.run_saturated(10 * kSecond);
    return mon.stats();
  };
  const MonitorStats a = run();
  const MonitorStats b = run();
  EXPECT_EQ(a.rts_observed, b.rts_observed);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.windows, b.windows);
  EXPECT_EQ(a.flagged_windows, b.flagged_windows);
  EXPECT_EQ(a.seq_off_resyncs, b.seq_off_resyncs);
  EXPECT_EQ(a.frames_lost, b.frames_lost);
  EXPECT_EQ(a.windows_discarded_impaired, b.windows_discarded_impaired);
}

TEST(LossyMonitor, DisabledPlanDrawsNothingAndChangesNothing) {
  const auto stats_with = [](bool install) {
    phy::FaultPlan plan;  // disabled
    LossyFixture f(plan);
    EXPECT_FALSE(f.faults.enabled());
    if (install) f.channel.install_faults(f.faults);
    Monitor& mon = f.attach_monitor(MonitorConfig{});
    f.run_saturated(10 * kSecond);
    EXPECT_EQ(f.faults.decisions(), 0u);
    return mon.stats();
  };
  const MonitorStats plain = stats_with(false);
  const MonitorStats installed = stats_with(true);
  EXPECT_EQ(plain.rts_observed, installed.rts_observed);
  EXPECT_EQ(plain.samples, installed.samples);
  EXPECT_EQ(plain.windows, installed.windows);
  EXPECT_EQ(plain.flagged_windows, installed.flagged_windows);
  EXPECT_EQ(plain.seq_off_resyncs, 0u);
  EXPECT_EQ(installed.seq_off_resyncs, 0u);
}

TEST(LossyMonitor, OutageDiscardsWindowsInsteadOfFlagging) {
  phy::FaultPlan plan;
  plan.outages.push_back({1, 3 * kSecond, 5 * kSecond});  // monitor goes deaf
  LossyFixture f(plan);
  Monitor& mon = f.attach_monitor(MonitorConfig{});
  f.run_saturated(10 * kSecond);

  // The timeline recorded the deaf interval...
  EXPECT_EQ(f.timelines[1]->outage_time(3 * kSecond, 5 * kSecond),
            2 * kSecond);
  EXPECT_EQ(f.timelines[1]->outage_time(6 * kSecond, 7 * kSecond), 0);

  // ...and the monitor blamed itself, not the sender: the two seconds of
  // unheard RTSs resync the PRS (the gap may exceed max_seq_off_gap) and
  // the spanning window is discarded.
  const MonitorStats& st = mon.stats();
  EXPECT_GT(st.seq_off_resyncs, 0u);
  EXPECT_EQ(st.seq_off_violations, 0u);
  EXPECT_EQ(st.attempt_violations, 0u);
  EXPECT_EQ(st.impossible_backoff, 0u);
  for (const auto& w : mon.windows()) EXPECT_FALSE(w.deterministic_flag);
  EXPECT_EQ(mon.stats().flagged_windows, 0u);
}

TEST(LossyMonitor, OutageForgivesArbitrarilyLargeGaps) {
  phy::FaultPlan plan;
  plan.outages.push_back({1, 2 * kSecond, 12 * kSecond});  // very long sleep
  LossyFixture f(plan);
  MonitorConfig cfg;
  cfg.max_seq_off_gap = 4;  // tiny bound: only the outage can excuse the gap
  Monitor& mon = f.attach_monitor(cfg);
  f.run_saturated(20 * kSecond);

  EXPECT_GT(mon.stats().rts_observed, 50u);
  EXPECT_EQ(mon.stats().seq_off_violations, 0u);
  EXPECT_GT(mon.stats().seq_off_resyncs, 0u);
}

// --- The violation side of the bounded-gap rule ------------------------------

TEST(Monitor, SkipAheadBeyondGapBoundIsViolation) {
  phy::FaultPlan plan;  // clean channel: every gap is the cheater's doing
  LossyFixture f(plan);
  f.macs[0]->set_announce_policy(std::make_unique<mac::SkipAheadAnnounce>(500));
  Monitor& mon = f.attach_monitor(MonitorConfig{});  // max_seq_off_gap = 64
  f.run_saturated(5 * kSecond);

  EXPECT_GT(mon.stats().rts_observed, 20u);
  EXPECT_GT(mon.stats().seq_off_violations, 10u);
  EXPECT_EQ(mon.stats().seq_off_resyncs, 0u);
}

TEST(Monitor, SkipAheadWithinGapBoundResyncs) {
  phy::FaultPlan plan;
  LossyFixture f(plan);
  f.macs[0]->set_announce_policy(std::make_unique<mac::SkipAheadAnnounce>(8));
  Monitor& mon = f.attach_monitor(MonitorConfig{});
  f.run_saturated(5 * kSecond);

  // Small jumps are indistinguishable from losses: tolerated (resync), but
  // every spanning window is discarded, so the cheat buys nothing.
  EXPECT_EQ(mon.stats().seq_off_violations, 0u);
  EXPECT_GT(mon.stats().seq_off_resyncs, 10u);
  EXPECT_EQ(mon.stats().samples, 0u);
}

// --- Memory bounds -----------------------------------------------------------

TEST(Monitor, DecodedHistoryStaysBounded) {
  phy::FaultPlan plan;
  LossyFixture f(plan);
  MonitorConfig cfg;
  cfg.max_decoded_frames = 64;
  ASSERT_FALSE(cfg.record_samples);  // default off: no sample log growth
  Monitor& mon = f.attach_monitor(cfg);

  std::size_t peak = 0;
  std::function<void()> probe = [&] {
    peak = std::max(peak, mon.decoded_retained());
    if (f.sim.now() < 120 * kSecond) f.sim.after(kSecond, probe);
  };
  f.sim.at(0, probe);
  f.run_saturated(120 * kSecond);

  EXPECT_GT(mon.stats().samples, 1000u);
  EXPECT_LE(std::max(peak, mon.decoded_retained()), 64u);
  EXPECT_TRUE(mon.sample_log().empty());
}

// --- Spatial index: bit-identical to the reference full scan -----------------
//
// Channel::transmit's grid prefilter and link-budget cache must be invisible:
// same deliveries, same per-receiver order (the fault injector draws one RNG
// decision per delivered frame, so any reordering or dropped receiver shifts
// the whole fault schedule), same carrier edges. We run the identical
// impaired scenario on the incremental index (IndexMode::kAuto) and on the
// full scan and require identical traces and identical fault-RNG
// consumption — on a 3x3 grid (a tiny topology, 9 radios) and on a 5x5 one.

struct DeliveryTrace : phy::RadioListener {
  // (time, kind, signal id): kind 0=carrier-off 1=carrier-on 2=rx 3=rx-error.
  std::vector<std::tuple<SimTime, int, std::uint64_t>> events;
  void on_carrier(bool busy, SimTime at) override {
    events.emplace_back(at, busy ? 1 : 0, 0);
  }
  void on_receive(const phy::Signal& s) override { events.emplace_back(s.end, 2, s.id); }
  void on_receive_error(const phy::Signal& s) override {
    events.emplace_back(s.end, 3, s.id);
  }
  void on_transmit_end(std::uint64_t) override {}
};

struct GridRunResult {
  std::vector<std::tuple<SimTime, int, std::uint64_t>> trace;  // all nodes, merged
  std::uint64_t fault_decisions = 0;
  phy::Channel::CacheStats stats;
};

GridRunResult run_grid_scenario(phy::Channel::IndexMode mode, int grid,
                                bool mobile, std::uint64_t seed = 5,
                                SimDuration pause = 5 * kSecond) {
  sim::Simulator sim;
  phy::Propagation prop(phy::PropagationParams{}, /*shadowing_seed=*/1);

  // grid x grid nodes, 300 m spacing: multiple cells at the 551 m cell
  // size, several audible neighbors per node, some beyond sensing range.
  std::vector<geom::Vec2> layout;
  for (int y = 0; y < grid; ++y)
    for (int x = 0; x < grid; ++x) layout.push_back({x * 300.0, y * 300.0});

  std::unique_ptr<phy::PositionProvider> positions;
  if (mobile) {
    // Compressed-time waypoint motion: fast legs and long pauses so the run
    // actually contains waypoint arrivals, simultaneous pauses (pair-cache
    // hits), and cell migrations. pause = 0 keeps every node continuously
    // in motion instead.
    net::RandomWaypointParams rwp;
    rwp.width = 600.0;
    rwp.height = 600.0;
    rwp.min_speed = 100.0;
    rwp.max_speed = 200.0;
    rwp.pause = pause;
    positions = std::make_unique<net::RandomWaypoint>(layout, rwp, seed);
  } else {
    positions = std::make_unique<net::StaticMobility>(layout);
  }

  phy::Channel channel(sim, prop, *positions);
  channel.set_index_mode(mode);

  std::vector<std::unique_ptr<phy::Radio>> radios;
  std::vector<std::unique_ptr<DeliveryTrace>> traces;
  for (NodeId i = 0; i < layout.size(); ++i) {
    radios.push_back(std::make_unique<phy::Radio>(i, channel));
    traces.push_back(std::make_unique<DeliveryTrace>());
    radios.back()->add_listener(traces.back().get());
  }

  phy::FaultPlan plan;
  plan.loss_probability = 0.3;
  plan.corrupt_probability = 0.2;
  plan.outages.push_back({7, 2 * kSecond, 5 * kSecond});
  phy::FaultInjector injector(plan, 9);
  channel.install_faults(injector);

  // Staggered pairs of near-simultaneous transmissions from rotating
  // sources: overlapping airtimes produce collisions, captures, and busy
  // carriers. The mobile run is spread over ~80 s so legs complete and
  // pauses overlap; the static one packs the same count into ~8 s.
  const SimTime spacing = (mobile ? 130 : 13) * kMillisecond;
  const auto payload = std::make_shared<const mac::Frame>();
  auto fire = [&radios](NodeId src, phy::PayloadPtr p) {
    if (!radios[src]->transmitting()) {
      radios[src]->transmit(std::move(p), 500 * kMicrosecond);
    }
  };
  for (std::size_t k = 0; k < 600; ++k) {
    const NodeId a = static_cast<NodeId>(k % layout.size());
    const NodeId b = static_cast<NodeId>((k * 7 + 3) % layout.size());
    const SimTime at = static_cast<SimTime>(k) * spacing;
    sim.at(at, [&fire, a, payload] { fire(a, payload); });
    sim.at(at + 200 * kMicrosecond, [&fire, b, payload] { fire(b, payload); });
  }
  sim.run();

  GridRunResult out;
  out.fault_decisions = injector.decisions();
  out.stats = channel.cache_stats();
  for (std::size_t i = 0; i < traces.size(); ++i) {
    for (const auto& e : traces[i]->events) {
      out.trace.emplace_back(std::get<0>(e), std::get<1>(e) + 10 * static_cast<int>(i),
                             std::get<2>(e));
    }
  }
  return out;
}

void expect_static_matches_scan(int grid) {
  const GridRunResult inc =
      run_grid_scenario(phy::Channel::IndexMode::kAuto, grid, /*mobile=*/false);
  const GridRunResult ref = run_grid_scenario(phy::Channel::IndexMode::kFullScan,
                                              grid, /*mobile=*/false);
  EXPECT_EQ(inc.trace, ref.trace);
  // Identical fault-RNG consumption proves receivers were delivered in
  // attach order — any other order permutes per-receiver fates.
  EXPECT_EQ(inc.fault_decisions, ref.fault_decisions);
  // The index run actually took the index, and the scan run the scan.
  EXPECT_EQ(inc.stats.full_scans, 0u);
  EXPECT_GT(ref.stats.full_scans, 0u);
  // Static radios never carry migration deadlines.
  EXPECT_EQ(inc.stats.cell_migrations, 0u);
  EXPECT_EQ(inc.stats.migration_checks, 0u);
  // Parked pairs cache their exact budgets: repeat deliveries are hits.
  EXPECT_GT(inc.stats.link_budget_hits, inc.stats.link_budget_misses);
}

// Seed-swept equality of delivery traces and fault decisions (and thus
// every link-budget comparison) between the incremental index and the
// full scan, for pausing-waypoint and continuously-moving radios.
void expect_mobile_matches_scan(int grid) {
  for (const std::uint64_t seed : {5ull, 11ull, 23ull}) {
    for (const SimDuration pause : {5 * kSecond, SimDuration{0}}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " pause=" + std::to_string(pause));
      const GridRunResult inc = run_grid_scenario(
          phy::Channel::IndexMode::kAuto, grid, /*mobile=*/true, seed, pause);
      const GridRunResult ref = run_grid_scenario(
          phy::Channel::IndexMode::kFullScan, grid, /*mobile=*/true, seed, pause);
      EXPECT_EQ(inc.trace, ref.trace);
      EXPECT_EQ(inc.fault_decisions, ref.fault_decisions);
      EXPECT_EQ(inc.stats.full_scans, 0u);
      // Fast legs across 600 m cross the 551 m cells: migrations happened.
      EXPECT_GT(inc.stats.cell_migrations, 0u);
      // Far moving pairs were rejected by the predicted-position prefilter.
      EXPECT_GT(inc.stats.prefilter_rejects, 0u);
      if (pause > 0) {
        // Overlapping pauses make parked pairs exactly cacheable.
        EXPECT_GT(inc.stats.link_budget_hits, 0u);
      }
    }
  }
}

// The 3x3 grid (9 radios) is the tiny-topology case, such as the all-pairs
// bench grid; the 5x5 grid spreads over more cells.
TEST(SpatialIndex, StaticScenarioMatchesFullScanExactly) {
  expect_static_matches_scan(3);
}

TEST(SpatialIndex, MobileScenarioMatchesFullScanExactly) {
  expect_mobile_matches_scan(3);
}

TEST(SpatialIndex, IncrementalStaticMatchesReferenceExactly) {
  expect_static_matches_scan(5);
}

TEST(SpatialIndex, IncrementalMobileMatchesReferenceSeedSwept) {
  expect_mobile_matches_scan(5);
}

}  // namespace
