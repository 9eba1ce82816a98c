// Wilcoxon rank-sum (Mann-Whitney) test — the paper's hypothesis test for
// comparing the dictated back-off population x against the observed
// (estimated) population y without distributional assumptions.
//
// Two evaluation paths:
//  * Exact: the permutation null distribution of the rank sum, computed by
//    dynamic programming over the observed midranks (handles ties). Used
//    when the combined sample is small — where the normal approximation is
//    weakest and where the paper's table lookups operate.
//  * Normal approximation with tie correction and continuity correction,
//    for larger samples.
//
// p_less is the probability, under H0 "x and y come from identical
// populations", of a y rank sum at most as large as observed — small
// p_less means y is stochastically smaller than x (the misbehavior
// signature: shorter back-offs).
//
// The monitor runs one test per closed window, so the hot path is
// allocation-free: callers hold a WilcoxonScratch whose buffers (combined
// sample, midranks, the flat DP table) are reused across calls, and the DP
// skips the provably-zero tail of each row via reachable-sum bounds. The
// pre-optimization implementation is retained verbatim as
// `wilcoxon_rank_sum_reference`; tests assert the fast path matches it bit
// for bit and bench/micro_wilcoxon measures the speedup against it.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace manet::detect {

struct RankSumResult {
  double w_y = 0.0;        // rank sum of the y sample (midranks)
  double p_less = 1.0;     // P(W <= w_y | H0)  — y smaller
  double p_greater = 1.0;  // P(W >= w_y | H0)  — y larger
  double p_two_sided = 1.0;
  double z = 0.0;          // standardized statistic (approx path; 0 if exact)
  bool exact = false;
};

struct WilcoxonOptions {
  /// Use the exact permutation distribution when nx + ny <= this bound.
  /// 40 keeps the DP in the tens of microseconds.
  std::size_t exact_max_total = 40;
};

/// Reusable buffers for wilcoxon_rank_sum. All vectors grow to the largest
/// sample seen and are reused afterwards; a default-constructed scratch is
/// valid for any call.
struct WilcoxonScratch {
  std::vector<double> combined;       // x followed by y
  std::vector<double> ranks;          // midranks of `combined`
  std::vector<std::size_t> order;     // sort scratch for the midranks
  std::vector<long long> doubled;     // midranks * 2 (integral)
  std::vector<double> dp;             // flat (ny+1) x (smax+1) subset counts
  std::vector<long long> min_sum;     // reachable doubled-sum bounds per
  std::vector<long long> max_sum;     //   subset size (DP row support)
};

/// Requires nx >= 1 and ny >= 1. Reuses `scratch` across calls; results are
/// bit-identical to wilcoxon_rank_sum_reference for the same inputs.
RankSumResult wilcoxon_rank_sum(std::span<const double> x, std::span<const double> y,
                                const WilcoxonOptions& options,
                                WilcoxonScratch& scratch);

/// Convenience overload with a throwaway scratch.
RankSumResult wilcoxon_rank_sum(std::span<const double> x, std::span<const double> y,
                                const WilcoxonOptions& options = {});

/// Pre-optimization implementation, kept verbatim as the oracle: fresh
/// allocations per call, full-range DP rows, separate tie-group sort.
/// Not for production use.
RankSumResult wilcoxon_rank_sum_reference(std::span<const double> x,
                                          std::span<const double> y,
                                          const WilcoxonOptions& options = {});

}  // namespace manet::detect
