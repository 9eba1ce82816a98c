// The shared wireless medium.
//
// On each transmission the channel computes the received power at every
// radio that could possibly hear it and delivers signal-start /
// signal-end notifications to radios whose received power clears the
// carrier-sense threshold. Propagation delay is not modeled (< 2 us across
// the 550 m sensing range, small against the 20 us slot); this matches the
// slot-synchronous abstraction of the paper's analysis.
//
// Two delivery paths share the exact same audibility decision (see
// DESIGN.md §4e and §4j):
//
//  * The incremental index (the production path, every topology size): a
//    uniform grid whose cells are maintained event-wise — each radio
//    carries a migration deadline (the time its current motion segment
//    exits its cell, or the segment end), kept in a min-heap that is
//    drained at the head of every transmission. Static radios never
//    appear in the heap; a parked waypoint node costs one re-check per
//    pause. Candidates from the 3x3 cell probe are then prefiltered by
//    *predicted position*: each radio's motion segment is pinned
//    (position, time) at its last rebucket, so ref + v*dt places it
//    exactly (up to FP rounding, absorbed by 1 m of slack) without a
//    provider query — a far mover costs two fused multiply-adds. Pairs
//    with both endpoints parked go through a bounded direct-mapped cache
//    keyed by the endpoints' motion-segment epochs holding the exact link
//    budget.
//  * The full scan over every radio: the oracle the index is checked
//    against, and the only path when nothing bounds the motion (a
//    provider that is not piecewise-linear) or when shadowing is on.
//
// Both paths are exact (never approximate): the grid is a conservative
// superset filter, and the final audibility decision always uses the same
// power comparison on the same position doubles, so results are
// bit-identical across paths — including the fault-injector RNG stream,
// which is consumed per audible delivery in attach order. With shadowing
// enabled (sigma > 0) rx_power_dbm draws from the shadowing RNG per
// delivery, so the index disables itself to preserve the draw sequence.
#pragma once

#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "geom/vec2.hpp"
#include "phy/propagation.hpp"
#include "phy/signal.hpp"
#include "sim/simulator.hpp"

namespace manet::phy {

class FaultInjector;
class Radio;

class Channel {
 public:
  /// How transmissions find their audible receivers. kAuto takes the
  /// incremental index for piecewise-linear providers and the full scan
  /// otherwise; kFullScan pins the scan (the oracle). Shadowing always
  /// forces kFullScan regardless of the setting.
  enum class IndexMode : std::uint8_t { kAuto, kFullScan };

  /// Parses "auto" / "scan"; throws std::invalid_argument on anything
  /// else.
  static IndexMode parse_index_mode(std::string_view name);
  static const char* index_mode_name(IndexMode mode);

  Channel(sim::Simulator& simulator, Propagation& propagation,
          const PositionProvider& positions);

  /// Registers a radio. Radios must outlive the channel's use of them.
  void attach(Radio* radio);

  /// Composes a fault injector into every subsequent delivery and schedules
  /// its outage toggles. Call after all radios are attached (outage node
  /// ids must resolve); the injector must outlive the channel's use of it.
  void install_faults(FaultInjector& faults);

  /// Starts a transmission of `payload` lasting `airtime` from `tx` (an
  /// attached radio). Returns the signal id.
  std::uint64_t transmit(Radio* tx, PayloadPtr payload, SimDuration airtime);

  sim::Simulator& simulator() { return sim_; }
  const Propagation& propagation() const { return prop_; }

  /// Total transmissions started (diagnostics).
  std::uint64_t transmissions() const { return next_signal_id_ - 1; }

  void set_index_mode(IndexMode mode) { index_mode_ = mode; }
  IndexMode index_mode() const { return index_mode_; }

  /// Exact neighbor query off the incremental grid: fills `out` with the
  /// ids of attached radios (center excluded) whose positions lie within
  /// `range_m` of center's position, ascending by id — byte-identical to
  /// an O(N) scan. Serves only when the incremental index can (piecewise-
  /// linear provider, `at` == now, range within one cell); returns false
  /// otherwise and the caller falls back to scanning.
  bool radios_within(NodeId center, double range_m, SimTime at,
                     std::vector<NodeId>& out);

  struct CacheStats {
    std::uint64_t link_budget_hits = 0;    // exact cached power reused
    std::uint64_t link_budget_misses = 0;  // power computed from positions
    std::uint64_t full_scans = 0;  // transmissions served by the slow path
    // Incremental index:
    std::uint64_t cell_migrations = 0;   // radio re-bucketed to a new cell
    std::uint64_t migration_checks = 0;  // deadline pops (incl. same-cell)
    std::uint64_t prefilter_rejects = 0; // candidates dropped by prediction
    std::uint64_t candidate_sets = 0;    // grid-served transmissions
    std::uint64_t candidates_seen = 0;   // sum of candidate-set sizes
  };
  const CacheStats& cache_stats() const { return cache_stats_; }

  /// Retained bytes of the incremental index + pair cache (bounded by
  /// construction; the memory-ceiling test reads this).
  std::size_t index_memory_bytes() const;

 private:
  /// Per-radio incremental-index state: current cell, current motion
  /// segment, and the next deadline at which the cell must be re-checked
  /// (kTimeNever for static radios — they never re-enter the heap).
  /// ref_pos/ref_t_s pin the segment's exact position at the last rebucket
  /// so transmit() can predict a candidate's position (ref + v*dt) without
  /// a provider query; the prediction differs from the provider's doubles
  /// only by FP rounding, absorbed by the prefilter's 1 m slack.
  struct RadioMotion {
    std::int32_t cx = 0;
    std::int32_t cy = 0;
    std::uint64_t epoch = kMovingEpoch;
    geom::Vec2 velocity{0.0, 0.0};
    geom::Vec2 ref_pos{0.0, 0.0};
    double ref_t_s = 0.0;
    SimTime due = kTimeNever;
  };

  /// One direct-mapped pair-cache slot: the exact link budget of a pair
  /// whose endpoints are both parked, valid while both motion-segment
  /// epochs match. Moving pairs never enter the cache — the predicted-
  /// position prefilter handles them.
  struct PairEntry {
    std::uint64_t key = ~std::uint64_t{0};  // (lo_idx << 32) | hi_idx
    std::uint64_t lo_epoch = kMovingEpoch;
    std::uint64_t hi_epoch = kMovingEpoch;
    double power_dbm = 0.0;
  };

  static std::uint64_t cell_key(std::int32_t cx, std::int32_t cy) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
           static_cast<std::uint32_t>(cy);
  }
  /// Cell coordinate of one axis value; throws std::invalid_argument when
  /// the position would overflow 32-bit cell indexing.
  std::int32_t cell_coord(double v) const;

  /// True when transmit() may take the incremental index.
  bool use_index() const;

  /// (Re)builds the incremental structures when the radio set changed.
  void ensure_incremental(SimTime now);
  /// Processes every migration deadline <= now, re-bucketing radios whose
  /// motion segment crossed a cell boundary or ended.
  void drain_migrations(SimTime now);
  void rebucket(std::uint32_t idx, SimTime now, bool initial);
  SimTime next_due(const MotionState& m, std::int32_t cx, std::int32_t cy,
                   SimTime now) const;
  void heap_push(SimTime due, std::uint32_t idx);
  void collect_candidates(const geom::Vec2& tx_pos,
                                      std::vector<std::uint32_t>& out) const;
  /// Decides pair audibility through the pair cache. Returns false when
  /// the pair is provably inaudible (no power computed); otherwise sets
  /// `power_dbm` to the exact received power (the caller still applies
  /// the carrier-sense threshold, as every path does).
  bool pair_power(std::uint32_t tx_idx, std::uint32_t rx_idx,
                  const geom::Vec2& tx_pos, SimTime at, double& power_dbm);

  sim::Simulator& sim_;
  Propagation& prop_;
  const PositionProvider& positions_;
  FaultInjector* faults_ = nullptr;
  std::vector<Radio*> radios_;                    // in attach order
  std::unordered_map<NodeId, std::uint32_t> by_id_;  // id -> attach index
  std::uint64_t next_signal_id_ = 1;
  IndexMode index_mode_ = IndexMode::kAuto;

  // Incremental spatial index (valid when indexed_radios_ == radios_.size()).
  double cell_m_ = 0.0;            // cs_range + pad: cell size
  double predict_limit_sq_ = 0.0;  // (cell_m_ + 1 m FP slack)^2
  std::size_t indexed_radios_ = 0;
  std::vector<RadioMotion> cells_;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> grid_;
  // Min-heap of (due, radio index): the activity set. Only radios whose
  // motion can invalidate their bucket carry an entry; each radio has at
  // most one live entry (rebucket pops before pushing).
  std::vector<std::pair<SimTime, std::uint32_t>> migrate_heap_;
  std::vector<PairEntry> pair_cache_;  // power-of-two, direct-mapped

  // Recycled candidate buffer. transmit() *takes* it (swap) rather than
  // iterating the member directly: delivering a signal can synchronously
  // re-enter transmit() (a MAC responding from a capture-induced receive
  // error), and a nested call must not clobber the list the outer call is
  // still walking. The nested call simply starts from an empty vector.
  std::vector<std::uint32_t> candidates_scratch_;
  // Recycled audible (rx index, power) buffer; same take-by-swap discipline
  // as candidates_scratch_.
  std::vector<std::pair<std::uint32_t, double>> audible_scratch_;
  // Recycled receiver lists: each transmission hands its audible-receiver
  // list to the end-of-air event, which returns the emptied vector here
  // instead of freeing it — one malloc/free pair per transmission saved.
  std::vector<std::vector<Radio*>> receiver_pool_;

  CacheStats cache_stats_;
};

}  // namespace manet::phy
