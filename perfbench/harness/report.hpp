// Measurement plumbing shared by the benchmark workloads: the options a
// run is given, the in-memory span tracer, sample statistics with the
// percentile rule, and the report a run prints as its last line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;       // smoke-test sizes
  std::string spans_path;  // where a traced run writes its spans
};

// --- Statistics ---------------------------------------------------------------

double median(std::vector<double> samples);

/// Nearest-rank percentile (q in (0, 1)). Enforces the reporting rule:
/// at least ten samples must lie beyond the reported rank, otherwise the
/// sample is too small to support that percentile and this throws.
double percentile(std::vector<double> samples, double q);

/// Samples needed before percentile(q) may be reported.
std::size_t samples_needed(double q);

// --- Tracing ------------------------------------------------------------------

/// Spans recorded around the benchmark's own calls into the program's
/// modules (the layer is the module name). Kept in memory while the run
/// lasts and written out once at exit. Disabled tracers record nothing;
/// a Span still measures its own duration, so the workloads time their
/// calls the same way with tracing on or off.
class Tracer {
 public:
  struct Record {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  // 0: top level
    std::uint32_t thread = 0;
    const char* layer = "";
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  class Span {
   public:
    /// Child of the innermost open span on this thread, or of `parent`
    /// when given (spans opened on a worker for a caller's span).
    Span(Tracer& tracer, const char* layer, const char* name,
         std::uint32_t parent = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Seconds since the span opened (the final duration once closed).
    double seconds() const;
    std::uint32_t id() const { return id_; }
    void close();

   private:
    Tracer& tracer_;
    const char* layer_;
    const char* name_;
    std::uint32_t id_ = 0;
    std::uint32_t parent_ = 0;
    std::uint32_t saved_current_ = 0;
    std::int64_t start_ns_ = 0;
    std::int64_t end_ns_ = -1;
  };

  /// Starts or stops recording. Time spent enabled is the base of
  /// coverage().
  void set_enabled(bool enabled);
  bool enabled() const { return enabled_; }

  /// Sum of top-level span time over the time recording was enabled.
  double coverage() const;

  /// Self time per layer: each span's duration minus the part its child
  /// spans cover.
  std::map<std::string, double> self_seconds() const;

  /// Writes the spans as Chrome trace-event JSON.
  void write(const std::string& path) const;

  static std::int64_t now_ns();

 private:
  std::uint32_t open();
  void finish(const Record& record);

  bool enabled_ = false;
  std::int64_t enabled_since_ns_ = 0;
  std::int64_t enabled_total_ns_ = 0;
  mutable std::mutex mutex_;
  std::uint32_t next_id_ = 1;
  std::vector<Record> records_;
};

using Span = Tracer::Span;

// --- Report -------------------------------------------------------------------

/// What a run measured. Every ratio keeps its numerator and denominator
/// (its base) so the printed result can be checked by hand.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);

  /// value = scale * num / den + offset (0 when den is 0), with the base
  /// recorded.
  void ratio(const std::string& name, double num, const char* num_label,
             double den, const char* den_label, const std::string& unit,
             double scale = 1.0, double offset = 0.0);

  /// The median of `samples`, kept with the samples themselves.
  void median_of(const std::string& name, const std::vector<double>& samples,
                 const std::string& unit);

  /// percentile(samples, q) under the percentile rule, kept likewise.
  void percentile_of(const std::string& name, const std::vector<double>& samples,
                     double q, const std::string& unit);

  /// One operation whose output was checked.
  void op(bool ok, const std::string& what = "");

  void set_digest(const std::string& digest) { digest_ = digest; }
  void note(const std::string& key, const std::string& value) {
    notes_[key] = value;
  }

  /// Human-readable lines, then one JSON line (the harness's result).
  void print(const Options& opt, const Tracer& tracer) const;

 private:
  struct Entry {
    double value = 0.0;
    std::string unit;
    std::string base;  // "num_label=v / den_label=v", or "median of n=..."
    std::vector<double> samples;
  };
  std::map<std::string, Entry> metrics_;
  std::vector<std::string> metric_order_;
  std::map<std::string, std::string> notes_;
  std::vector<std::string> failures_;
  std::string digest_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// Appends printf-style text to `out`.
void appendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

/// Runs measurement units until the time budget is spent and at least
/// `min_units` units and `min_samples` samples exist; gives up at
/// `cap_s` so a run always ends.
class PhaseClock {
 public:
  PhaseClock(double budget_s, std::size_t min_units, std::size_t min_samples,
             double cap_s);
  bool more(std::size_t units, std::size_t samples) const;
  double elapsed() const;
  double budget() const { return budget_s_; }

 private:
  std::chrono::steady_clock::time_point start_;
  double budget_s_;
  std::size_t min_units_;
  std::size_t min_samples_;
  double cap_s_;
};

/// Spreads `count` set-up repetitions evenly over a timed phase: the k-th
/// falls due at the middle of the k-th of `count` equal slices of the
/// phase's budget. Their median then samples the same stretch of host
/// time as the phase's own metrics, not just the seconds before it.
class SetupSpread {
 public:
  SetupSpread(const PhaseClock& clock, std::size_t count) : clock_(clock), count_(count) {}
  /// Whether the next repetition is due; if so, it counts as made.
  bool next();

 private:
  const PhaseClock& clock_;
  std::size_t count_;
  std::size_t done_ = 0;
};

}  // namespace perfbench
