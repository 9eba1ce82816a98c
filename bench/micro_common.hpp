// Shared harness for the flag-driven microbenches (micro_md5,
// micro_event_queue, micro_sim_components, micro_wilcoxon, micro_monitor,
// micro_ingest, micro_sink) — the repo's one micro framework.
//
// MicroHarness gives the micros the same surface as the figure benches:
// FlagSet flags (--filter to select cases by substring, --reps as a work
// multiplier, --json for machine output) and one exp::Record per case
// through the standard sink, so bench/run_all.sh merges micro rows and
// sweep rows identically. Every record carries
//   bench, case, reps, ops, wall_seconds, ns_per_op
// plus whatever case-specific fields the bench adds (bytes, frames, ...).
// A --filter that matches no case is an error (finish() returns 1), so a
// renamed case cannot turn a filtered smoke run into a silent no-op.
//
// Timing is a single wall-clock measurement around the case body (which
// performs all `reps` repetitions itself): these are throughput benches
// with bodies in the hundreds of microseconds and up, where one
// measurement is stable enough and the figure that matters is the ratio
// between paired cases measured the same way.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>

#include "exp/sink.hpp"
#include "flag_set.hpp"

namespace manet::bench {

/// Compiler sink: keeps `value` alive without a memory write per use.
template <typename T>
inline void keep(T const& value) {
#if defined(__GNUC__) || defined(__clang__)
  asm volatile("" : : "g"(value) : "memory");
#else
  static volatile T sink;
  sink = value;
#endif
}

class MicroHarness {
 public:
  MicroHarness(std::string bench, const std::string& description, int argc,
               char** argv)
      : bench_(std::move(bench)), flags_(description) {
    flags_.add_string("filter", "",
                      "only run cases whose name contains this substring");
    flags_.add_double("reps", 1.0,
                      "repetition multiplier applied to every case's base count");
    flags_.add_json_flag("write one JSON record per case to this file");
    flags_.parse_or_exit(argc, argv);
    sink_ = flags_.make_sink();
    std::printf("# %s\n", bench_.c_str());
  }

  ~MicroHarness() { sink_->flush(); }

  bool enabled(const std::string& case_name) const {
    const std::string& f = flags_.get("filter");
    return f.empty() || case_name.find(f) != std::string::npos;
  }

  /// `base` scaled by --reps, never below 1.
  std::size_t reps(std::size_t base) const {
    const double scaled = static_cast<double>(base) * flags_.get_double("reps");
    return scaled < 1.0 ? 1 : static_cast<std::size_t>(scaled);
  }

  /// Times `body` (which performs the case's full workload and returns
  /// the operation count), prints one human line, and emits one record.
  /// `extra` appends case-specific fields to the record.
  void run_case(const std::string& name,
                const std::function<std::uint64_t()>& body,
                const std::function<void(exp::Record&)>& extra = {}) {
    if (!enabled(name)) return;
    const auto start = std::chrono::steady_clock::now();
    const std::uint64_t ops = body();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    ++cases_run_;
    last_wall_ = wall;
    const double ns_per_op =
        ops ? wall * 1e9 / static_cast<double>(ops) : 0.0;
    std::printf("  %-40s %14.1f ns/op  (%llu ops, %.3f s)\n", name.c_str(),
                ns_per_op, static_cast<unsigned long long>(ops), wall);
    std::fflush(stdout);

    exp::Record rec;
    rec.add("bench", bench_)
        .add("case", name)
        .add("reps", flags_.get_double("reps"))
        .add("ops", ops)
        .add("wall_seconds", wall)
        .add("ns_per_op", ns_per_op);
    if (extra) extra(rec);
    sink_->record(rec);
  }

  /// Wall-clock seconds of the most recent case body (for `extra`
  /// callbacks that report rates).
  double last_wall_seconds() const { return last_wall_; }

  /// main()'s exit status: 1, with an error, when --filter matched no case.
  int finish() const {
    if (cases_run_ > 0) return 0;
    std::fprintf(stderr, "error: --filter=%s matches no case of %s\n",
                 flags_.get("filter").c_str(), bench_.c_str());
    return 1;
  }

 private:
  std::string bench_;
  FlagSet flags_;
  std::shared_ptr<exp::ResultSink> sink_;
  std::size_t cases_run_ = 0;
  double last_wall_ = 0.0;
};

}  // namespace manet::bench
