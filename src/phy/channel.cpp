#include "phy/channel.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>

#include "phy/impairments.hpp"
#include "phy/radio.hpp"
#include "util/rng.hpp"

namespace manet::phy {

namespace {
// Pad added to the carrier-sense range when sizing incremental cells and
// audibility windows. It absorbs every inexactness the incremental path
// tolerates — motion-prediction FP noise (~1e-9 m), deadline rounding
// (≤ 1 ns of travel) — with ~9 orders of magnitude to spare, so "outside
// the padded radius" always implies "strictly beyond cs_range", where the
// monotone path-loss model guarantees inaudibility.
constexpr double kCellPadM = 1.0;

// Pair-cache sizing: a power of two near 256 slots per radio — roughly 2x
// the live parked (tx, cs-candidate) pair population at the scale
// scenarios' density, which a direct-mapped cache needs to keep its hit
// rate high — floored so small topologies stay collision-free and capped
// so 10k nodes retain ~6 KB of pair cache per node (2^21 slots x 32 B =
// 64 MB total).
constexpr std::size_t kPairSlotsPerRadio = 256;
constexpr std::size_t kPairSlotsMin = 1u << 12;
constexpr std::size_t kPairSlotsMax = 1u << 21;

std::size_t pair_cache_capacity(std::size_t radios) {
  std::size_t want = radios * kPairSlotsPerRadio;
  want = std::max(want, kPairSlotsMin);
  want = std::min(want, kPairSlotsMax);
  std::size_t cap = 1;
  while (cap < want) cap <<= 1;
  return cap;
}
}  // namespace

Channel::IndexMode Channel::parse_index_mode(std::string_view name) {
  if (name == "auto") return IndexMode::kAuto;
  if (name == "scan") return IndexMode::kFullScan;
  throw std::invalid_argument("unknown channel index mode '" +
                              std::string(name) + "' (expected auto|scan)");
}

const char* Channel::index_mode_name(IndexMode mode) {
  switch (mode) {
    case IndexMode::kAuto: return "auto";
    case IndexMode::kFullScan: return "scan";
  }
  return "?";
}

Channel::Channel(sim::Simulator& simulator, Propagation& propagation,
                 const PositionProvider& positions)
    : sim_(simulator), prop_(propagation), positions_(positions) {
  // Cells only need to cover the padded sensing range: staleness is
  // handled by migration deadlines, not slack.
  cell_m_ = prop_.params().cs_range_m + kCellPadM;
  // Candidate prefilter radius: 1 m of slack absorbs the FP rounding of a
  // predicted position (ref + v*dt vs the provider's own expression), so a
  // predicted distance beyond this limit proves the true distance exceeds
  // the padded sensing range — the exact claim the audibility window makes.
  const double predict_limit = cell_m_ + 1.0;
  predict_limit_sq_ = predict_limit * predict_limit;
}

void Channel::attach(Radio* radio) {
  if (by_id_.count(radio->id()) != 0) {
    throw std::invalid_argument("duplicate radio id attached to channel");
  }
  const auto index = static_cast<std::uint32_t>(radios_.size());
  by_id_.emplace(radio->id(), index);
  radio->set_channel_index(index);
  radios_.push_back(radio);
}

void Channel::install_faults(FaultInjector& faults) {
  faults_ = &faults;
  for (const FaultPlan::Outage& o : faults.plan().outages) {
    auto it = by_id_.find(o.node);
    if (it == by_id_.end()) {
      throw std::invalid_argument("fault outage names an unattached radio");
    }
    Radio* radio = radios_[it->second];
    sim_.at(o.start, [radio] { radio->set_outage(true); });
    sim_.at(o.stop, [radio] { radio->set_outage(false); });
  }
}

bool Channel::use_index() const {
  // Shadowing draws one RNG deviate per rx_power_dbm call and can lift a
  // node beyond cs_range above the threshold, so any pre-filtering would
  // change both the draw sequence and the audible set: full scan only.
  // The index also needs piecewise-linear motion to schedule migrations.
  return index_mode_ == IndexMode::kAuto &&
         prop_.params().shadowing_sigma_db == 0.0 &&
         positions_.piecewise_linear();
}

std::int32_t Channel::cell_coord(double v) const {
  const double c = std::floor(v / cell_m_);
  if (!(c >= -2147483000.0 && c <= 2147483000.0)) {
    throw std::invalid_argument(
        "node position overflows spatial-index cell coordinates");
  }
  return static_cast<std::int32_t>(c);
}

// ---------------------------------------------------------------------------
// Incremental index.

void Channel::heap_push(SimTime due, std::uint32_t idx) {
  migrate_heap_.emplace_back(due, idx);
  std::push_heap(migrate_heap_.begin(), migrate_heap_.end(),
                 std::greater<>{});
}

SimTime Channel::next_due(const MotionState& m, std::int32_t cx,
                          std::int32_t cy, SimTime now) const {
  const bool parked = m.velocity_mps.x == 0.0 && m.velocity_mps.y == 0.0;
  SimTime due;
  if (parked) {
    due = m.until;  // kTimeNever for static radios: never re-checked
  } else {
    // Earliest time the segment's straight line exits the current cell.
    double exit_s = std::numeric_limits<double>::infinity();
    const double x0 = static_cast<double>(cx) * cell_m_;
    const double y0 = static_cast<double>(cy) * cell_m_;
    if (m.velocity_mps.x > 0.0) {
      exit_s = std::min(exit_s,
                        (x0 + cell_m_ - m.position.x) / m.velocity_mps.x);
    } else if (m.velocity_mps.x < 0.0) {
      exit_s = std::min(exit_s, (x0 - m.position.x) / m.velocity_mps.x);
    }
    if (m.velocity_mps.y > 0.0) {
      exit_s = std::min(exit_s,
                        (y0 + cell_m_ - m.position.y) / m.velocity_mps.y);
    } else if (m.velocity_mps.y < 0.0) {
      exit_s = std::min(exit_s, (y0 - m.position.y) / m.velocity_mps.y);
    }
    if (exit_s < 0.0) exit_s = 0.0;  // numeric edge exactly on a boundary
    // Truncation rounds the deadline *down*: the re-check fires while the
    // radio is still inside its recorded cell, never after it left.
    const double exit_ns = exit_s * 1e9;
    const SimTime exit_t = exit_ns < 8e18
                               ? now + static_cast<SimTime>(exit_ns)
                               : kTimeNever;
    due = std::min(exit_t, m.until);
  }
  if (due == kTimeNever) return kTimeNever;
  // Progress guarantee: a deadline in the past (boundary rounding) retries
  // one tick ahead; a crossing costs at most a couple of re-checks.
  return std::max(due, now + 1);
}

void Channel::rebucket(std::uint32_t idx, SimTime now, bool initial) {
  const MotionState m = positions_.motion(radios_[idx]->id(), now);
  RadioMotion& rm = cells_[idx];
  const std::int32_t cx = cell_coord(m.position.x);
  const std::int32_t cy = cell_coord(m.position.y);
  if (initial) {
    grid_[cell_key(cx, cy)].push_back(idx);
  } else if (cx != rm.cx || cy != rm.cy) {
    std::vector<std::uint32_t>& old_cell = grid_[cell_key(rm.cx, rm.cy)];
    const auto it = std::find(old_cell.begin(), old_cell.end(), idx);
    if (it != old_cell.end()) {
      *it = old_cell.back();
      old_cell.pop_back();
    }
    grid_[cell_key(cx, cy)].push_back(idx);
    ++cache_stats_.cell_migrations;
  }
  rm.cx = cx;
  rm.cy = cy;
  rm.epoch = m.epoch;
  rm.velocity = m.velocity_mps;
  rm.ref_pos = m.position;
  rm.ref_t_s = time_to_seconds(now);
  rm.due = next_due(m, cx, cy, now);
  if (rm.due != kTimeNever) heap_push(rm.due, idx);
}

void Channel::ensure_incremental(SimTime now) {
  if (indexed_radios_ == radios_.size()) return;
  grid_.clear();
  migrate_heap_.clear();
  cells_.assign(radios_.size(), RadioMotion{});
  pair_cache_.assign(pair_cache_capacity(radios_.size()), PairEntry{});
  for (std::uint32_t i = 0; i < radios_.size(); ++i) {
    rebucket(i, now, /*initial=*/true);
  }
  indexed_radios_ = radios_.size();
}

void Channel::drain_migrations(SimTime now) {
  while (!migrate_heap_.empty() && migrate_heap_.front().first <= now) {
    std::pop_heap(migrate_heap_.begin(), migrate_heap_.end(),
                  std::greater<>{});
    const auto [due, idx] = migrate_heap_.back();
    migrate_heap_.pop_back();
    if (cells_[idx].due != due) continue;  // superseded entry
    ++cache_stats_.migration_checks;
    rebucket(idx, now, /*initial=*/false);
  }
}

void Channel::collect_candidates(
    const geom::Vec2& tx_pos, std::vector<std::uint32_t>& out) const {
  // Unsorted: transmit() orders the (much smaller) audible subset before
  // delivering, which is where attach order actually matters.
  out.clear();
  const std::int32_t cx = cell_coord(tx_pos.x);
  const std::int32_t cy = cell_coord(tx_pos.y);
  for (std::int32_t dx = -1; dx <= 1; ++dx) {
    for (std::int32_t dy = -1; dy <= 1; ++dy) {
      const auto it = grid_.find(cell_key(cx + dx, cy + dy));
      if (it == grid_.end()) continue;
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
  }
}

bool Channel::pair_power(std::uint32_t tx_idx, std::uint32_t rx_idx,
                         const geom::Vec2& tx_pos, SimTime at,
                         double& power_dbm) {
  const std::uint32_t lo = std::min(tx_idx, rx_idx);
  const std::uint32_t hi = std::max(tx_idx, rx_idx);
  const RadioMotion& lm = cells_[lo];
  const RadioMotion& hm = cells_[hi];
  const bool parked = lm.epoch != kMovingEpoch && hm.epoch != kMovingEpoch &&
                      lm.velocity.x == 0.0 && lm.velocity.y == 0.0 &&
                      hm.velocity.x == 0.0 && hm.velocity.y == 0.0;
  if (!parked) {
    // A moving endpoint: the predicted-position prefilter in transmit()
    // already rejected the far pairs, so nearly every pair reaching here
    // needs its exact power anyway — a cache probe would be pure overhead.
    // Exact power from exact positions, like the reference scan.
    ++cache_stats_.link_budget_misses;
    power_dbm = prop_.rx_power_dbm(
        tx_pos, positions_.position(radios_[rx_idx]->id(), at));
    return true;
  }
  // Both endpoints parked: their positions are constant for the lifetime of
  // the (epoch, epoch) pair, so the cached power is exactly what a fresh
  // computation would produce — the identical doubles feed the identical
  // path-loss expression.
  const std::uint64_t key = (static_cast<std::uint64_t>(lo) << 32) | hi;
  PairEntry& e = pair_cache_[util::mix64(key) & (pair_cache_.size() - 1)];
  if (e.key == key && e.lo_epoch == lm.epoch && e.hi_epoch == hm.epoch) {
    ++cache_stats_.link_budget_hits;
    power_dbm = e.power_dbm;
    return true;
  }
  ++cache_stats_.link_budget_misses;
  const double power = prop_.rx_power_dbm(
      tx_pos, positions_.position(radios_[rx_idx]->id(), at));
  e = PairEntry{key, lm.epoch, hm.epoch, power};
  power_dbm = power;
  return true;
}

// ---------------------------------------------------------------------------

bool Channel::radios_within(NodeId center, double range_m, SimTime at,
                            std::vector<NodeId>& out) {
  out.clear();
  if (!positions_.piecewise_linear()) return false;
  if (at != sim_.now()) return false;  // migrations only move forward
  if (!(range_m >= 0.0) || range_m > cell_m_) return false;  // 3x3 probe
  const auto center_it = by_id_.find(center);
  if (center_it == by_id_.end()) return false;
  ensure_incremental(at);
  drain_migrations(at);
  const geom::Vec2 center_pos = positions_.position(center, at);
  const std::int32_t cx = cell_coord(center_pos.x);
  const std::int32_t cy = cell_coord(center_pos.y);
  const double range_sq = range_m * range_m;
  for (std::int32_t dx = -1; dx <= 1; ++dx) {
    for (std::int32_t dy = -1; dy <= 1; ++dy) {
      const auto it = grid_.find(cell_key(cx + dx, cy + dy));
      if (it == grid_.end()) continue;
      for (const std::uint32_t idx : it->second) {
        if (idx == center_it->second) continue;
        const NodeId id = radios_[idx]->id();
        const geom::Vec2 d = positions_.position(id, at) - center_pos;
        if (d.dot(d) <= range_sq) out.push_back(id);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return true;
}

std::size_t Channel::index_memory_bytes() const {
  std::size_t bytes = cells_.capacity() * sizeof(RadioMotion) +
                      migrate_heap_.capacity() * sizeof(migrate_heap_[0]) +
                      pair_cache_.capacity() * sizeof(PairEntry);
  for (const auto& [key, cell] : grid_) {
    bytes += sizeof(key) + cell.capacity() * sizeof(std::uint32_t);
  }
  return bytes;
}

std::uint64_t Channel::transmit(Radio* tx, PayloadPtr payload, SimDuration airtime) {
  const std::uint64_t id = next_signal_id_++;
  const NodeId tx_id = tx->id();
  const SimTime start = sim_.now();
  const SimTime end = start + airtime;
  const geom::Vec2 tx_pos = positions_.position(tx_id, start);
  // The fault RNG stream is consumed only for enabled plans, keeping
  // fault-free runs bit-identical to a build without the injector.
  const bool faulty = faults_ != nullptr && faults_->enabled();
  const double cs_threshold = prop_.cs_threshold_dbm();
  const double base_rx_threshold = prop_.rx_threshold_dbm();
  const double capture_db = prop_.params().capture_threshold_db;

  std::vector<Radio*> receivers;
  if (!receiver_pool_.empty()) {
    receivers = std::move(receiver_pool_.back());
    receiver_pool_.pop_back();
  }

  auto deliver = [&](Radio* rx, double power) {
    Signal signal{id, tx_id, payload, start, end, power};
    double rx_threshold = base_rx_threshold;
    if (faulty && power >= rx_threshold) {
      switch (faults_->decode_fate(tx_id, rx->id())) {
        case DecodeFate::kIntact:
          break;
        case DecodeFate::kLost:
          // Anonymous energy: audible for carrier sense, never decodable —
          // the monitor's undecodable-busy case, now on demand.
          rx_threshold = std::numeric_limits<double>::infinity();
          break;
        case DecodeFate::kCorrupted:
          signal.payload = faults_->corrupt_payload(payload);
          signal.corrupted = true;
          break;
      }
    }
    rx->signal_start(signal, rx_threshold, capture_db);
    receivers.push_back(rx);
  };

  if (use_index()) {
    ensure_incremental(start);
    drain_migrations(start);
    // Take the scratch buffer: signal_start below can re-enter transmit(),
    // and the nested call must not rewrite the list this call iterates.
    std::vector<std::uint32_t> candidates = std::move(candidates_scratch_);
    candidates_scratch_ = {};
    collect_candidates(tx_pos, candidates);
    ++cache_stats_.candidate_sets;
    cache_stats_.candidates_seen += candidates.size();
    receivers.reserve(candidates.size());
    const std::uint32_t tx_idx = tx->channel_index();
    // Power evaluation draws no randomness, so candidate order is free;
    // only the audible subset must be delivered in attach order (the fault
    // RNG stream is consumed per delivery, like the reference full scan).
    std::vector<std::pair<std::uint32_t, double>> audible =
        std::move(audible_scratch_);
    audible_scratch_ = {};
    audible.clear();
    const double now_s = time_to_seconds(start);
    for (const std::uint32_t rx_idx : candidates) {
      if (rx_idx == tx_idx) continue;
      // Predicted-position prefilter: drain_migrations() above guarantees
      // every radio's recorded motion segment covers `start`, so ref + v*dt
      // is the candidate's position up to FP rounding. Beyond the slacked
      // limit the pair is provably inaudible without touching the radio,
      // the pair cache, or the position provider.
      const RadioMotion& rm = cells_[rx_idx];
      const double dt = now_s - rm.ref_t_s;
      const double px = rm.ref_pos.x + rm.velocity.x * dt - tx_pos.x;
      const double py = rm.ref_pos.y + rm.velocity.y * dt - tx_pos.y;
      if (px * px + py * py > predict_limit_sq_) {
        ++cache_stats_.prefilter_rejects;
        continue;
      }
      if (radios_[rx_idx]->in_outage()) continue;  // deaf: no energy arrives
      double power;
      if (!pair_power(tx_idx, rx_idx, tx_pos, start, power)) continue;
      if (power < cs_threshold) continue;  // inaudible
      audible.emplace_back(rx_idx, power);
    }
    std::sort(audible.begin(), audible.end());
    for (const auto& [rx_idx, power] : audible) {
      deliver(radios_[rx_idx], power);
    }
    audible.clear();
    audible_scratch_ = std::move(audible);
    candidates.clear();
    candidates_scratch_ = std::move(candidates);
  } else {
    // Reference path: exact original full scan (also the only correct path
    // under shadowing, where every delivery draws a shadowing deviate).
    ++cache_stats_.full_scans;
    receivers.reserve(radios_.size());
    for (Radio* rx : radios_) {
      if (rx == tx) continue;
      if (rx->in_outage()) continue;
      const geom::Vec2 rx_pos = positions_.position(rx->id(), start);
      const double power = prop_.rx_power_dbm(tx_pos, rx_pos);
      if (power < cs_threshold) continue;
      deliver(rx, power);
    }
  }

  // One end-of-air event finishes every delivery and the transmitter, in
  // the same relative order the per-receiver events used to run (they were
  // scheduled back-to-back at `end`, so no foreign event could interleave).
  // The emptied receiver list goes back to the pool afterwards.
  sim_.at(end, [this, tx, id, receivers = std::move(receivers)]() mutable {
    for (Radio* rx : receivers) rx->signal_end(id);
    tx->own_transmit_end(id);
    receivers.clear();
    if (receiver_pool_.size() < 64) receiver_pool_.push_back(std::move(receivers));
  });
  return id;
}

}  // namespace manet::phy
