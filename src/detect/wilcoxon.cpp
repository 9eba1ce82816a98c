#include "detect/wilcoxon.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "util/stats.hpp"

namespace manet::detect {

namespace {

/// Exact permutation tail probabilities of the y rank sum given the
/// combined midranks. Midranks are multiples of 0.5, so doubling makes all
/// sums integral; the DP counts, for every (count, doubled-sum), the number
/// of ways to pick `count` of the N ranks with that sum.
///
/// The table is one flat scratch-owned array (row stride smax + 1), and the
/// inner loop only walks the reachable support of the previous row:
/// dp[c][s] can be nonzero only for s between the smallest and largest
/// doubled-rank sums attainable by c of the items processed so far. Entries
/// outside those bounds are exactly the ones the reference implementation's
/// `!= 0.0` guard skipped, so pruning them performs the identical sequence
/// of additions and the result is bit-identical.
RankSumResult exact_rank_sum(WilcoxonScratch& s, std::size_t ny, double w_y) {
  const std::size_t n = s.ranks.size();
  s.doubled.resize(n);
  long long total2 = 0;
  for (std::size_t i = 0; i < n; ++i) {
    s.doubled[i] = std::llround(s.ranks[i] * 2.0);
    total2 += s.doubled[i];
  }

  const auto smax = static_cast<std::size_t>(total2);
  const std::size_t stride = smax + 1;
  s.dp.assign((ny + 1) * stride, 0.0);
  s.dp[0] = 1.0;

  // max_sum[c] < 0 marks "no subset of size c over the processed items yet";
  // min_sum is only read when max_sum says the size is reachable.
  s.max_sum.assign(ny + 1, -1);
  s.min_sum.assign(ny + 1, 0);
  s.max_sum[0] = 0;

  for (std::size_t i = 0; i < n; ++i) {
    const long long r = s.doubled[i];
    const std::size_t cmax = std::min(ny, i + 1);
    for (std::size_t c = cmax; c >= 1; --c) {
      if (s.max_sum[c - 1] < 0) continue;
      double* row = s.dp.data() + c * stride;
      const double* prev = s.dp.data() + (c - 1) * stride;
      const long long hi = std::min<long long>(static_cast<long long>(smax),
                                               s.max_sum[c - 1] + r);
      const long long lo = s.min_sum[c - 1] + r;
      for (long long sv = hi; sv >= lo; --sv) {
        if (prev[sv - r] != 0.0) row[sv] += prev[sv - r];
      }
    }
    // Fold item i into the bounds, descending so size c reads the
    // pre-item bounds of size c - 1.
    for (std::size_t c = cmax; c >= 1; --c) {
      if (s.max_sum[c - 1] < 0) continue;
      if (s.max_sum[c] < 0) {
        s.max_sum[c] = s.max_sum[c - 1] + r;
        s.min_sum[c] = s.min_sum[c - 1] + r;
      } else {
        s.max_sum[c] = std::max(s.max_sum[c], s.max_sum[c - 1] + r);
        s.min_sum[c] = std::min(s.min_sum[c], s.min_sum[c - 1] + r);
      }
    }
  }

  const double* last = s.dp.data() + ny * stride;
  double total_ways = 0.0;
  for (std::size_t sv = 0; sv <= smax; ++sv) total_ways += last[sv];

  const auto w2 = static_cast<long long>(std::llround(w_y * 2.0));
  double less_eq = 0.0, greater_eq = 0.0;
  for (std::size_t sv = 0; sv <= smax; ++sv) {
    const double ways = last[sv];
    if (ways == 0.0) continue;
    if (static_cast<long long>(sv) <= w2) less_eq += ways;
    if (static_cast<long long>(sv) >= w2) greater_eq += ways;
  }

  RankSumResult res;
  res.w_y = w_y;
  res.exact = true;
  res.p_less = less_eq / total_ways;
  res.p_greater = greater_eq / total_ways;
  res.p_two_sided = std::min(1.0, 2.0 * std::min(res.p_less, res.p_greater));
  return res;
}

/// Normal approximation; `tie_term` is sum(t^3 - t) over the tie groups of
/// the combined sample, produced by the same pass that assigned midranks.
RankSumResult approx_rank_sum(std::size_t nx, std::size_t ny, double w_y,
                              double tie_term) {
  const double n = static_cast<double>(nx + ny);
  const double mean = static_cast<double>(ny) * (n + 1.0) / 2.0;
  const double var = (static_cast<double>(nx) * static_cast<double>(ny) / 12.0) *
                     ((n + 1.0) - tie_term / (n * (n - 1.0)));

  RankSumResult res;
  res.w_y = w_y;
  res.exact = false;
  if (var <= 0.0) {
    // All observations identical: no evidence either way.
    res.p_less = res.p_greater = res.p_two_sided = 1.0;
    return res;
  }
  const double sd = std::sqrt(var);
  // Continuity correction of one half rank in each direction.
  const double z_less = (w_y + 0.5 - mean) / sd;
  const double z_greater = (w_y - 0.5 - mean) / sd;
  res.z = (w_y - mean) / sd;
  res.p_less = util::normal_cdf(z_less);
  res.p_greater = 1.0 - util::normal_cdf(z_greater);
  res.p_two_sided = std::min(1.0, 2.0 * std::min(res.p_less, res.p_greater));
  return res;
}

// --- Reference implementation (pre-optimization, verbatim) -------------------

RankSumResult exact_rank_sum_reference(const std::vector<double>& ranks,
                                       std::size_t ny, double w_y) {
  const std::size_t n = ranks.size();
  std::vector<long long> r2(n);
  long long total2 = 0;
  for (std::size_t i = 0; i < n; ++i) {
    r2[i] = std::llround(ranks[i] * 2.0);
    total2 += r2[i];
  }

  // dp[c][s] = #subsets of size c with doubled-rank sum s.
  const auto smax = static_cast<std::size_t>(total2);
  std::vector<std::vector<double>> dp(ny + 1, std::vector<double>(smax + 1, 0.0));
  dp[0][0] = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto r = static_cast<std::size_t>(r2[i]);
    const std::size_t cmax = std::min(ny, i + 1);
    for (std::size_t c = cmax; c >= 1; --c) {
      auto& row = dp[c];
      const auto& prev = dp[c - 1];
      for (std::size_t s = smax; s >= r; --s) {
        if (prev[s - r] != 0.0) row[s] += prev[s - r];
      }
      if (r == 0) break;  // unreachable (ranks >= 1) but keeps loop safe
    }
  }

  double total_ways = 0.0;
  for (double ways : dp[ny]) total_ways += ways;

  const auto w2 = static_cast<long long>(std::llround(w_y * 2.0));
  double less_eq = 0.0, greater_eq = 0.0;
  for (std::size_t s = 0; s <= smax; ++s) {
    const double ways = dp[ny][s];
    if (ways == 0.0) continue;
    if (static_cast<long long>(s) <= w2) less_eq += ways;
    if (static_cast<long long>(s) >= w2) greater_eq += ways;
  }

  RankSumResult res;
  res.w_y = w_y;
  res.exact = true;
  res.p_less = less_eq / total_ways;
  res.p_greater = greater_eq / total_ways;
  res.p_two_sided = std::min(1.0, 2.0 * std::min(res.p_less, res.p_greater));
  return res;
}

RankSumResult approx_rank_sum_reference(const std::vector<double>& combined,
                                        std::size_t nx, std::size_t ny,
                                        double w_y) {
  const double n = static_cast<double>(nx + ny);
  const double mean = static_cast<double>(ny) * (n + 1.0) / 2.0;

  // Tie correction: subtract sum(t^3 - t) over tie groups.
  std::vector<double> sorted(combined);
  std::sort(sorted.begin(), sorted.end());
  double tie_term = 0.0;
  for (std::size_t i = 0; i < sorted.size();) {
    std::size_t j = i;
    while (j + 1 < sorted.size() && sorted[j + 1] == sorted[i]) ++j;
    const double t = static_cast<double>(j - i + 1);
    tie_term += t * t * t - t;
    i = j + 1;
  }
  const double var = (static_cast<double>(nx) * static_cast<double>(ny) / 12.0) *
                     ((n + 1.0) - tie_term / (n * (n - 1.0)));

  RankSumResult res;
  res.w_y = w_y;
  res.exact = false;
  if (var <= 0.0) {
    res.p_less = res.p_greater = res.p_two_sided = 1.0;
    return res;
  }
  const double sd = std::sqrt(var);
  const double z_less = (w_y + 0.5 - mean) / sd;
  const double z_greater = (w_y - 0.5 - mean) / sd;
  res.z = (w_y - mean) / sd;
  res.p_less = util::normal_cdf(z_less);
  res.p_greater = 1.0 - util::normal_cdf(z_greater);
  res.p_two_sided = std::min(1.0, 2.0 * std::min(res.p_less, res.p_greater));
  return res;
}

}  // namespace

RankSumResult wilcoxon_rank_sum(std::span<const double> x, std::span<const double> y,
                                const WilcoxonOptions& options,
                                WilcoxonScratch& scratch) {
  const std::size_t nx = x.size();
  const std::size_t ny = y.size();
  if (nx == 0 || ny == 0) {
    throw std::invalid_argument("wilcoxon_rank_sum: empty sample");
  }

  scratch.combined.clear();
  scratch.combined.reserve(nx + ny);
  scratch.combined.insert(scratch.combined.end(), x.begin(), x.end());
  scratch.combined.insert(scratch.combined.end(), y.begin(), y.end());
  const double tie_term =
      util::midranks_into(scratch.combined, scratch.ranks, scratch.order);

  double w_y = 0.0;
  for (std::size_t i = 0; i < ny; ++i) w_y += scratch.ranks[nx + i];

  if (nx + ny <= options.exact_max_total) {
    return exact_rank_sum(scratch, ny, w_y);
  }
  return approx_rank_sum(nx, ny, w_y, tie_term);
}

RankSumResult wilcoxon_rank_sum(std::span<const double> x, std::span<const double> y,
                                const WilcoxonOptions& options) {
  WilcoxonScratch scratch;
  return wilcoxon_rank_sum(x, y, options, scratch);
}

RankSumResult wilcoxon_rank_sum_reference(std::span<const double> x,
                                          std::span<const double> y,
                                          const WilcoxonOptions& options) {
  const std::size_t nx = x.size();
  const std::size_t ny = y.size();
  if (nx == 0 || ny == 0) {
    throw std::invalid_argument("wilcoxon_rank_sum: empty sample");
  }

  std::vector<double> combined;
  combined.reserve(nx + ny);
  combined.insert(combined.end(), x.begin(), x.end());
  combined.insert(combined.end(), y.begin(), y.end());
  const std::vector<double> ranks = util::midranks(combined);

  double w_y = 0.0;
  for (std::size_t i = 0; i < ny; ++i) w_y += ranks[nx + i];

  if (nx + ny <= options.exact_max_total) {
    return exact_rank_sum_reference(ranks, ny, w_y);
  }
  return approx_rank_sum_reference(combined, nx, ny, w_y);
}

}  // namespace manet::detect
