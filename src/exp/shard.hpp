// Sharding contract of the experiment fabric.
//
// A sweep is a flat sequence of CELLS (the unit a bench emits records
// for: one (load, PM) grid point, one attacker, ...), each evaluated as
// `runs` trials seeded by trial_seed(point_seed, run) — a pure function
// of the cell, never of which process runs it. A shard "i/N" therefore
// owns the i-th of N contiguous, balanced ranges of [0, cells):
//
//   |range_i| = cells/N + (i < cells%N),  range_i.end == range_{i+1}.begin
//
// so (a) any cell's results are bit-identical no matter which shard (or
// thread) computes it, and (b) concatenating the N shard artifacts in
// shard order reproduces the serial single-process artifact exactly —
// the property tools/sweep_merge validates and the scripts/check.sh
// determinism rows (fig5 and ROC shard merges) enforce byte-for-byte. N
// may exceed the cell count; trailing shards simply own empty ranges.
#pragma once

#include <cstdint>
#include <string>

namespace manet::exp {

struct ShardSpec {
  std::uint32_t index = 0;  // 0-based
  std::uint32_t count = 1;

  /// Parses "i/N" (0 <= i < N, N >= 1); throws util::ConfigError on
  /// anything else (strict, like the benches' numeric-list parsing).
  static ShardSpec parse(const std::string& text);

  std::string str() const;

  bool is_serial() const { return count == 1; }

  /// First cell this shard owns out of `cells` total.
  std::uint64_t begin(std::uint64_t cells) const;
  /// One past the last cell this shard owns.
  std::uint64_t end(std::uint64_t cells) const;

  bool operator==(const ShardSpec&) const = default;
};

}  // namespace manet::exp
