// Microbenchmark: Wilcoxon rank-sum test cost per monitor window.
// The monitor runs one test per completed window; at sample size 10 the
// exact permutation DP must stay in the tens of microseconds.
//
// Case families (select with --filter): exact_fast_n* and approx_fast_n*,
// the scratch-reused scalar path on the exact-DP and normal-approximation
// branches. The "fast" tag stays so rows in the committed BENCH_*.json
// history remain comparable.
#include <cstdint>
#include <vector>

#include "detect/wilcoxon.hpp"
#include "micro_common.hpp"
#include "util/rng.hpp"

namespace {

using namespace manet;
using detect::wilcoxon_rank_sum;
using detect::WilcoxonOptions;
using detect::WilcoxonScratch;

std::vector<double> sample(std::size_t n, double scale, std::uint64_t seed) {
  util::Xoshiro256ss rng(seed);
  std::vector<double> out(n);
  for (auto& v : out) v = rng.uniform(0, 32) * scale;
  return out;
}

void run_family(bench::MicroHarness& h, const char* family, std::size_t n,
                bool exact, std::size_t base_reps) {
  WilcoxonOptions opts;
  opts.exact_max_total = exact ? 2 * n : 0;

  const auto x = sample(n, 1.0, 1);
  const auto y = sample(n, 0.7, 2);
  WilcoxonScratch scratch;  // reused across iterations, like a monitor
  const std::size_t reps = h.reps(base_reps);
  h.run_case(std::string(family) + "_fast_n" + std::to_string(n), [&] {
    for (std::size_t i = 0; i < reps; ++i) {
      bench::keep(wilcoxon_rank_sum(x, y, opts, scratch).p_less);
    }
    return static_cast<std::uint64_t>(reps);
  });
}

}  // namespace

int main(int argc, char** argv) {
  bench::MicroHarness h("micro_wilcoxon",
                        "Wilcoxon rank-sum cost per closed monitor window: "
                        "exact-DP and normal-approximation branches.",
                        argc, argv);
  for (std::size_t n : {5u, 10u, 15u, 20u}) {
    run_family(h, "exact", n, /*exact=*/true, 4000);
  }
  for (std::size_t n : {10u, 25u, 50u, 100u, 500u}) {
    run_family(h, "approx", n, /*exact=*/false, 40000);
  }
  return h.finish();
}
