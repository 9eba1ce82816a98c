#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "phy/channel.hpp"
#include "phy/cs_timeline.hpp"
#include "phy/joint_tracker.hpp"
#include "phy/propagation.hpp"
#include "phy/radio.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"

namespace manet::phy {
namespace {

struct DummyPayload : Payload {};

PayloadPtr payload() { return std::make_shared<const DummyPayload>(); }

/// Records radio callbacks for assertions.
struct Recorder : RadioListener {
  std::vector<std::pair<bool, SimTime>> carrier;
  std::vector<Signal> received;
  int errors = 0;
  int tx_ends = 0;

  void on_carrier(bool busy, SimTime at) override { carrier.push_back({busy, at}); }
  void on_receive(const Signal& s) override { received.push_back(s); }
  void on_receive_error(const Signal&) override { ++errors; }
  void on_transmit_end(std::uint64_t) override { ++tx_ends; }
};

/// Fixed positions for a handful of radios.
struct FixedPositions : PositionProvider {
  explicit FixedPositions(std::vector<geom::Vec2> p) : pos(std::move(p)) {}
  std::vector<geom::Vec2> pos;
  geom::Vec2 position(NodeId node, SimTime) const override { return pos.at(node); }
};

struct PhyFixture {
  explicit PhyFixture(std::vector<geom::Vec2> layout,
                      PropagationParams params = {})
      : prop(params, /*shadowing_seed=*/7), positions{std::move(layout)},
        channel(sim, prop, positions) {
    for (NodeId i = 0; i < positions.pos.size(); ++i) {
      radios.push_back(std::make_unique<Radio>(i, channel));
      recorders.push_back(std::make_unique<Recorder>());
      radios.back()->add_listener(recorders.back().get());
    }
  }

  sim::Simulator sim;
  Propagation prop;
  FixedPositions positions;
  Channel channel;
  std::vector<std::unique_ptr<Radio>> radios;
  std::vector<std::unique_ptr<Recorder>> recorders;
};

TEST(Propagation, ThresholdsMatchConfiguredRanges) {
  PropagationParams p;  // free space, 250 / 550 m
  Propagation prop(p, 1);
  EXPECT_NEAR(prop.mean_rx_power_dbm(250), prop.rx_threshold_dbm(), 1e-9);
  EXPECT_NEAR(prop.mean_rx_power_dbm(550), prop.cs_threshold_dbm(), 1e-9);
  // Decodable strictly inside, inaudible strictly outside.
  EXPECT_GT(prop.mean_rx_power_dbm(249), prop.rx_threshold_dbm());
  EXPECT_LT(prop.mean_rx_power_dbm(251), prop.rx_threshold_dbm());
  EXPECT_GT(prop.mean_rx_power_dbm(549), prop.cs_threshold_dbm());
  EXPECT_LT(prop.mean_rx_power_dbm(551), prop.cs_threshold_dbm());
}

TEST(Propagation, PowerDecaysWithDistanceAndExponent) {
  PropagationParams p;
  Propagation prop(p, 1);
  EXPECT_GT(prop.mean_rx_power_dbm(10), prop.mean_rx_power_dbm(100));
  // Free space: -20 dB per decade.
  EXPECT_NEAR(prop.mean_rx_power_dbm(10) - prop.mean_rx_power_dbm(100), 20.0, 1e-9);

  PropagationParams p4 = p;
  p4.path_loss_exponent = 4.0;
  Propagation prop4(p4, 1);
  EXPECT_NEAR(prop4.mean_rx_power_dbm(10) - prop4.mean_rx_power_dbm(100), 40.0, 1e-9);
}

TEST(Propagation, ShadowingAddsVariance) {
  PropagationParams p;
  p.shadowing_sigma_db = 6.0;
  Propagation prop(p, 42);
  util::RunningStats stats;
  for (int i = 0; i < 5000; ++i) {
    stats.add(prop.rx_power_dbm({0, 0}, {100, 0}));
  }
  EXPECT_NEAR(stats.mean(), prop.mean_rx_power_dbm(100), 0.3);
  EXPECT_NEAR(stats.stddev(), 6.0, 0.3);
}

TEST(Propagation, RejectsInvertedRanges) {
  PropagationParams p;
  p.tx_range_m = 600;
  p.cs_range_m = 300;
  EXPECT_THROW(Propagation(p, 1), std::invalid_argument);
}

TEST(Channel, DeliversWithinTxRangeOnly) {
  // Node 1 at 200 m (decodable), node 2 at 400 m (energy only),
  // node 3 at 600 m (inaudible).
  PhyFixture f({{0, 0}, {200, 0}, {400, 0}, {600, 0}});
  f.radios[0]->transmit(payload(), 100 * kMicrosecond);
  f.sim.run();

  EXPECT_EQ(f.recorders[1]->received.size(), 1u);
  EXPECT_EQ(f.recorders[2]->received.size(), 0u);
  EXPECT_EQ(f.recorders[3]->received.size(), 0u);
  // Energy seen (carrier busy edge) at 1 and 2, not at 3.
  EXPECT_FALSE(f.recorders[1]->carrier.empty());
  EXPECT_FALSE(f.recorders[2]->carrier.empty());
  EXPECT_TRUE(f.recorders[3]->carrier.empty());
  EXPECT_EQ(f.recorders[0]->tx_ends, 1);
}

TEST(Channel, CarrierBusyWindowMatchesAirtime) {
  PhyFixture f({{0, 0}, {200, 0}});
  f.sim.at(1000, [&] { f.radios[0]->transmit(payload(), 100 * kMicrosecond); });
  f.sim.run();
  ASSERT_EQ(f.recorders[1]->carrier.size(), 2u);
  EXPECT_EQ(f.recorders[1]->carrier[0], std::make_pair(true, SimTime{1000}));
  EXPECT_EQ(f.recorders[1]->carrier[1],
            std::make_pair(false, SimTime{1000 + 100 * kMicrosecond}));
}

TEST(Radio, SelfTransmissionSetsCarrierAndBlocksReception) {
  PhyFixture f({{0, 0}, {200, 0}});
  f.radios[0]->transmit(payload(), 100 * kMicrosecond);
  EXPECT_TRUE(f.radios[0]->carrier_busy());
  EXPECT_TRUE(f.radios[0]->transmitting());
  // Node 1 transmits while 0 is still on air: 0 must not decode it.
  f.sim.at(10 * kMicrosecond,
           [&] { f.radios[1]->transmit(payload(), 20 * kMicrosecond); });
  f.sim.run();
  EXPECT_EQ(f.recorders[0]->received.size(), 0u);
  EXPECT_FALSE(f.radios[0]->carrier_busy());
}

TEST(Radio, CollisionCorruptsBothFrames) {
  // Two senders equidistant from the middle receiver, overlapping in time.
  PhyFixture f({{0, 0}, {200, 0}, {400, 0}});
  f.radios[0]->transmit(payload(), 100 * kMicrosecond);
  f.sim.at(50 * kMicrosecond,
           [&] { f.radios[2]->transmit(payload(), 100 * kMicrosecond); });
  f.sim.run();
  EXPECT_EQ(f.recorders[1]->received.size(), 0u);
  EXPECT_GE(f.recorders[1]->errors, 1);
}

TEST(Radio, CaptureLetsMuchStrongerFrameSurvive) {
  // Interferer at 520 m (>10 dB weaker than the 50 m signal).
  PhyFixture f({{0, 0}, {50, 0}, {520, 0}});
  f.radios[2]->transmit(payload(), 100 * kMicrosecond);
  f.sim.at(10 * kMicrosecond,
           [&] { f.radios[0]->transmit(payload(), 50 * kMicrosecond); });
  f.sim.run();
  // Node 1 locks onto node 0's strong frame despite the ongoing interference.
  ASSERT_EQ(f.recorders[1]->received.size(), 1u);
  EXPECT_EQ(f.recorders[1]->received[0].transmitter, 0u);
}

TEST(Radio, WeakerConcurrentArrivalIsInterferenceNotLock) {
  // Strong frame first, weak frame second: strong survives.
  PhyFixture f({{0, 0}, {50, 0}, {520, 0}});
  f.radios[0]->transmit(payload(), 100 * kMicrosecond);
  f.sim.at(10 * kMicrosecond,
           [&] { f.radios[2]->transmit(payload(), 50 * kMicrosecond); });
  f.sim.run();
  ASSERT_EQ(f.recorders[1]->received.size(), 1u);
  EXPECT_EQ(f.recorders[1]->received[0].transmitter, 0u);
}

// Three overlapping signals at receiver 0 from senders 1, 2 and 3, started
// in that order 10 us apart and ended in each of the six possible orders.
// The radio keeps incident signals in no particular order (removal is
// swap-and-pop), so neither the locked frame's outcome nor receiver 0's
// carrier edges may depend on which signal ends first.
void expect_same_outcome_in_every_end_order(
    const std::vector<geom::Vec2>& senders, NodeId locked, bool ok) {
  std::array<int, 3> order{0, 1, 2};
  do {
    SCOPED_TRACE("end order " + std::to_string(order[0]) +
                 std::to_string(order[1]) + std::to_string(order[2]));
    PhyFixture f({{0, 0}, senders[0], senders[1], senders[2]});
    std::array<SimTime, 3> ends{};
    for (int j = 0; j < 3; ++j) {
      ends[order[j]] = (100 + 40 * j) * kMicrosecond;
    }
    for (int k = 0; k < 3; ++k) {
      const SimTime start = 10 * k * kMicrosecond;
      f.sim.at(start, [&f, k, airtime = ends[k] - start] {
        f.radios[k + 1]->transmit(payload(), airtime);
      });
    }
    f.sim.run();
    const Recorder& r = *f.recorders[0];
    const std::vector<std::pair<bool, SimTime>> edges{
        {true, 0}, {false, 180 * kMicrosecond}};
    EXPECT_EQ(r.carrier, edges);
    if (ok) {
      ASSERT_EQ(r.received.size(), 1u);
      EXPECT_EQ(r.received[0].transmitter, locked);
      EXPECT_EQ(r.received[0].end, ends[locked - 1]);
      EXPECT_EQ(r.errors, 0);
    } else {
      EXPECT_TRUE(r.received.empty());
      EXPECT_EQ(r.errors, 1);
    }
    EXPECT_FALSE(f.radios[0]->carrier_busy());
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(Radio, CapturedLockSurvivesEveryEndOrder) {
  // Sender 1 is close; 2 and 3 arrive >10 dB weaker and only interfere.
  expect_same_outcome_in_every_end_order({{50, 0}, {-520, 0}, {0, 520}},
                                         /*locked=*/1, /*ok=*/true);
}

TEST(Radio, CollidedLockFailsInEveryEndOrder) {
  // Three comparable senders: the second arrival corrupts the first lock.
  expect_same_outcome_in_every_end_order({{200, 0}, {-200, 0}, {0, 200}},
                                         /*locked=*/1, /*ok=*/false);
}

TEST(Radio, LateLockClearsWeakInterferenceInEveryEndOrder) {
  // Sender 1 is sensed but undecodable; sender 2 locks because the energy
  // already present is >10 dB weaker, and sender 3 stays interference.
  expect_same_outcome_in_every_end_order({{-520, 0}, {100, 0}, {0, 520}},
                                         /*locked=*/2, /*ok=*/true);
}

TEST(Radio, LockedFrameIsReleasedWhenTheLockEndsOrAnOutageStarts) {
  PhyFixture f({{0, 0}, {100, 0}});
  PayloadPtr first = payload();
  const std::weak_ptr<const Payload> first_ref = first;
  f.radios[1]->transmit(std::move(first), 100 * kMicrosecond);
  bool released_after_end = false;
  f.sim.at(200 * kMicrosecond, [&] {
    ASSERT_EQ(f.recorders[0]->received.size(), 1u);
    f.recorders[0]->received.clear();  // the listener's own copy
    released_after_end = first_ref.expired();
  });
  // A second frame that radio 0 locks onto, then loses to an outage.
  std::weak_ptr<const Payload> second_ref;
  f.sim.at(300 * kMicrosecond, [&] {
    PayloadPtr second = payload();
    second_ref = second;
    f.radios[1]->transmit(std::move(second), 100 * kMicrosecond);
  });
  f.sim.at(350 * kMicrosecond, [&] { f.radios[0]->set_outage(true); });
  bool released_by_outage = false;
  f.sim.at(360 * kMicrosecond,
           [&] { released_by_outage = second_ref.expired(); });
  f.sim.run();
  EXPECT_TRUE(released_after_end);
  EXPECT_TRUE(released_by_outage);
  EXPECT_TRUE(f.recorders[0]->received.empty());
}

TEST(CsTimeline, BusyTimeAndSlotAccounting) {
  CsTimeline tl;
  tl.on_carrier(true, 100 * kMicrosecond);
  tl.on_carrier(false, 200 * kMicrosecond);
  tl.on_carrier(true, 400 * kMicrosecond);
  tl.on_carrier(false, 500 * kMicrosecond);

  EXPECT_EQ(tl.busy_time(0, 600 * kMicrosecond), 200 * kMicrosecond);
  EXPECT_EQ(tl.busy_time(150 * kMicrosecond, 450 * kMicrosecond),
            100 * kMicrosecond);
  EXPECT_DOUBLE_EQ(tl.busy_fraction(0, 600 * kMicrosecond), 200.0 / 600.0);

  const SlotCounts slots = tl.count_slots(0, 600 * kMicrosecond, 20 * kMicrosecond);
  EXPECT_EQ(slots.total(), 30);
  EXPECT_EQ(slots.busy, 10);
  EXPECT_EQ(slots.idle, 20);
  EXPECT_EQ(slots.idle_periods, 3);
}

TEST(CsTimeline, CountableIdleSubtractsDifsPerIdlePeriod) {
  CsTimeline tl;
  const SimDuration difs = 50 * kMicrosecond;
  tl.on_carrier(true, 1 * kMillisecond);
  tl.on_carrier(false, 2 * kMillisecond);
  // Window [0, 3ms]: idle [0,1ms) loses DIFS, busy [1,2), idle [2,3) loses DIFS.
  EXPECT_EQ(tl.countable_idle_time(0, 3 * kMillisecond, difs),
            2 * kMillisecond - 2 * difs);
  // Idle period shorter than DIFS contributes nothing.
  EXPECT_EQ(tl.countable_idle_time(0, 40 * kMicrosecond, difs), 0);
}

TEST(CsTimeline, RedundantEdgesAreIgnored) {
  CsTimeline tl;
  tl.on_carrier(false, 10);  // already idle
  tl.on_carrier(true, 100);
  tl.on_carrier(true, 200);  // redundant
  tl.on_carrier(false, 300);
  EXPECT_EQ(tl.recorded_transitions(), 2u);
  EXPECT_EQ(tl.busy_time(0, 400), 200);
}

TEST(CsTimeline, PruneKeepsRecentWindowQueryable) {
  CsTimeline tl(1 * kSecond);  // short retention
  for (int i = 0; i < 1000; ++i) {
    tl.on_carrier(true, i * 10 * kMillisecond);
    tl.on_carrier(false, i * 10 * kMillisecond + 5 * kMillisecond);
  }
  // Old history pruned, recent queries still exact.
  EXPECT_LT(tl.recorded_transitions(), 300u);
  const SimTime t0 = 9900 * kMillisecond;
  EXPECT_EQ(tl.busy_time(t0, t0 + 10 * kMillisecond), 5 * kMillisecond);
}

TEST(JointTracker, AccumulatesJointDurations) {
  PhyFixture f({{0, 0}, {200, 0}, {400, 0}});
  JointBusyTracker tracker(*f.radios[0], *f.radios[1]);
  // Node 2 at 400 m of node 1 and node 0: audible by 1 (200 m away? no —
  // dist(1,2)=200 decodable; dist(0,2)=400 energy-only). Both hear it.
  f.sim.at(0, [&] { f.radios[2]->transmit(payload(), 1 * kMillisecond); });
  f.sim.run_until(2 * kMillisecond);
  tracker.flush(2 * kMillisecond);
  EXPECT_EQ(tracker.duration(true, true), 1 * kMillisecond);
  EXPECT_EQ(tracker.duration(false, false), 1 * kMillisecond);
  EXPECT_DOUBLE_EQ(tracker.r_busy_fraction(), 0.5);
}

TEST(JointTracker, ConditionalProbabilities) {
  PhyFixture f({{0, 0}, {200, 0}, {140, 480}});
  // Node 2 is 500 m from node 0 (energy) and ~520 m from node 1 (energy):
  // both busy when 2 transmits. Instead use node 0 transmitting: S=0 is
  // "busy" (own tx), R=1 busy (hears it).
  JointBusyTracker tracker(*f.radios[0], *f.radios[1]);
  f.sim.at(0, [&] { f.radios[0]->transmit(payload(), 1 * kMillisecond); });
  f.sim.run_until(4 * kMillisecond);
  tracker.flush(4 * kMillisecond);
  // R busy 25% of the window, S busy exactly when R busy.
  EXPECT_DOUBLE_EQ(tracker.r_busy_fraction(), 0.25);
  EXPECT_DOUBLE_EQ(tracker.p_s_busy_given_r_idle(), 0.0);
  EXPECT_DOUBLE_EQ(tracker.p_s_idle_given_r_busy(), 0.0);
}


TEST(CsTimeline, CumulativeBusySurvivesPruning) {
  CsTimeline tl(1 * kSecond);  // aggressive pruning
  SimDuration expected = 0;
  for (int i = 0; i < 500; ++i) {
    const SimTime t0 = i * 20 * kMillisecond;
    tl.on_carrier(true, t0);
    tl.on_carrier(false, t0 + 7 * kMillisecond);
    expected += 7 * kMillisecond;
  }
  const SimTime end = 500 * 20 * kMillisecond;
  EXPECT_EQ(tl.cumulative_busy(end), expected);
  // Long-horizon busy fraction derived from the counter is exact.
  EXPECT_NEAR(static_cast<double>(tl.cumulative_busy(end)) /
                  static_cast<double>(end),
              0.35, 1e-9);
}

TEST(CsTimeline, CumulativeBusyExtendsCurrentBusyState) {
  CsTimeline tl;
  tl.on_carrier(true, 100);
  EXPECT_EQ(tl.cumulative_busy(150), 50);
  tl.on_carrier(false, 200);
  EXPECT_EQ(tl.cumulative_busy(500), 100);
}

TEST(CsTimeline, BusyIntervalsMatchBusyTime) {
  CsTimeline tl;
  tl.on_carrier(true, 100);
  tl.on_carrier(false, 250);
  tl.on_carrier(true, 400);
  tl.on_carrier(false, 460);

  const auto iv = tl.busy_intervals(0, 1000);
  ASSERT_EQ(iv.size(), 2u);
  EXPECT_EQ(iv[0], std::make_pair(SimTime{100}, SimTime{250}));
  EXPECT_EQ(iv[1], std::make_pair(SimTime{400}, SimTime{460}));

  // Clipping at window edges.
  const auto clipped = tl.busy_intervals(150, 420);
  ASSERT_EQ(clipped.size(), 2u);
  EXPECT_EQ(clipped[0], std::make_pair(SimTime{150}, SimTime{250}));
  EXPECT_EQ(clipped[1], std::make_pair(SimTime{400}, SimTime{420}));

  SimDuration total = 0;
  for (const auto& [a, b] : clipped) total += b - a;
  EXPECT_EQ(total, tl.busy_time(150, 420));
}

}  // namespace
}  // namespace manet::phy
