#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "exp/sink.hpp"

namespace perfbench {

// --- Statistics ---------------------------------------------------------------

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::logic_error("median of no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::size_t samples_needed(double q) {
  // Smallest n with n - ceil(q * n) >= 10.
  std::size_t n = 1;
  while (n - static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))) < 10) ++n;
  return n;
}

double percentile(std::vector<double> samples, double q) {
  const std::size_t n = samples.size();
  if (n < samples_needed(q)) {
    char msg[128];
    std::snprintf(msg, sizeof msg,
                  "p%.0f needs %zu samples (ten beyond it); have %zu", q * 100.0,
                  samples_needed(q), n);
    throw std::runtime_error(msg);
  }
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return samples[rank - 1];
}

// --- Tracing ------------------------------------------------------------------

namespace {

thread_local std::uint32_t t_current_span = 0;

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next++;
  return index;
}

}  // namespace

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint32_t Tracer::open() {
  std::lock_guard lock(mutex_);
  return next_id_++;
}

void Tracer::finish(const Record& record) {
  std::lock_guard lock(mutex_);
  records_.push_back(record);
}

Tracer::Span::Span(Tracer& tracer, const char* layer, const char* name,
                   std::uint32_t parent)
    : tracer_(tracer), layer_(layer), name_(name) {
  if (tracer_.enabled()) {
    parent_ = parent ? parent : t_current_span;
    id_ = tracer_.open();
    saved_current_ = t_current_span;
    t_current_span = id_;
  }
  start_ns_ = now_ns();
}

Tracer::Span::~Span() { close(); }

void Tracer::Span::close() {
  if (end_ns_ >= 0) return;
  end_ns_ = now_ns();
  if (id_ != 0) {
    t_current_span = saved_current_;
    tracer_.finish(
        Record{id_, parent_, thread_index(), layer_, name_, start_ns_, end_ns_});
  }
}

double Tracer::Span::seconds() const {
  const std::int64_t end = end_ns_ >= 0 ? end_ns_ : now_ns();
  return static_cast<double>(end - start_ns_) * 1e-9;
}

void Tracer::set_enabled(bool enabled) {
  if (enabled == enabled_) return;
  const std::int64_t now = now_ns();
  if (enabled) {
    enabled_since_ns_ = now;
  } else {
    enabled_total_ns_ += now - enabled_since_ns_;
  }
  enabled_ = enabled;
}

double Tracer::coverage() const {
  std::lock_guard lock(mutex_);
  std::int64_t top = 0;
  for (const Record& r : records_) {
    if (r.parent == 0) top += r.end_ns - r.start_ns;
  }
  std::int64_t base = enabled_total_ns_;
  if (enabled_) base += now_ns() - enabled_since_ns_;
  return base > 0 ? static_cast<double>(top) / static_cast<double>(base) : 0.0;
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::lock_guard lock(mutex_);
  std::map<std::uint32_t, std::int64_t> child_ns;
  for (const Record& r : records_) {
    if (r.parent != 0) child_ns[r.parent] += r.end_ns - r.start_ns;
  }
  std::map<std::string, double> self;
  for (const Record& r : records_) {
    const auto it = child_ns.find(r.id);
    // Children on worker threads may run in parallel and cover more than
    // the parent's interval; self time never goes below zero.
    const std::int64_t covered = it == child_ns.end() ? 0 : it->second;
    const std::int64_t own = std::max<std::int64_t>(0, r.end_ns - r.start_ns - covered);
    self[r.layer] += static_cast<double>(own) * 1e-9;
  }
  return self;
}

void Tracer::write(const std::string& path) const {
  std::lock_guard lock(mutex_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  const std::int64_t origin = records_.empty() ? 0 : std::min_element(
      records_.begin(), records_.end(), [](const Record& a, const Record& b) {
        return a.start_ns < b.start_ns;
      })->start_ns;
  out << "{\"traceEvents\": [";
  bool first = true;
  for (const Record& r : records_) {
    std::string line;
    appendf(line,
            "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
            "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %u, "
            "\"parent\": %u}}",
            first ? "" : ",", r.name, r.layer, r.thread,
            static_cast<double>(r.start_ns - origin) * 1e-3,
            static_cast<double>(r.end_ns - r.start_ns) * 1e-3, r.id, r.parent);
    out << line;
    first = false;
  }
  out << "\n]}\n";
}

// --- Report -------------------------------------------------------------------

void Report::metric(const std::string& name, double value, const std::string& unit) {
  if (!metrics_.count(name)) metric_order_.push_back(name);
  metrics_[name] = Entry{value, unit, "", {}};
}

void Report::ratio(const std::string& name, double num, const char* num_label,
                   double den, const char* den_label, const std::string& unit,
                   double scale, double offset) {
  metric(name, den != 0.0 ? scale * num / den + offset : 0.0, unit);
  std::string base;
  appendf(base, "%s=%.17g / %s=%.17g", num_label, num, den_label, den);
  if (scale != 1.0) appendf(base, " x %g", scale);
  if (offset != 0.0) appendf(base, " %+g", offset);
  metrics_[name].base = base;
}

void Report::median_of(const std::string& name, const std::vector<double>& samples,
                       const std::string& unit) {
  metric(name, median(samples), unit);
  Entry& e = metrics_[name];
  appendf(e.base, "median of n=%zu", samples.size());
  e.samples = samples;
}

void Report::percentile_of(const std::string& name, const std::vector<double>& samples,
                           double q, const std::string& unit) {
  metric(name, percentile(samples, q), unit);
  Entry& e = metrics_[name];
  appendf(e.base, "p%.0f of n=%zu", q * 100.0, samples.size());
  e.samples = samples;
}

void Report::op(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failures_.size() < 16) failures_.push_back(what);
  }
}

void Report::print(const Options& opt, const Tracer& tracer) const {
  std::printf("# workload %s seed %llu trace %d%s\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
              opt.tiny ? " (tiny)" : "");
  for (const std::string& name : metric_order_) {
    const Entry& e = metrics_.at(name);
    std::printf("metric %-28s %16.6g %-6s %s\n", name.c_str(), e.value,
                e.unit.c_str(), e.base.c_str());
  }
  std::printf("ops attempted %llu failed %llu failed_frac %.6g\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_),
              attempted_ ? static_cast<double>(failed_) / static_cast<double>(attempted_)
                         : 0.0);
  for (const std::string& f : failures_) std::printf("failure %s\n", f.c_str());
  std::printf("digest %s\n", digest_.c_str());
  if (opt.trace) {
    for (const auto& [layer, s] : tracer.self_seconds()) {
      std::printf("layer %-8s self %.6f s\n", layer.c_str(), s);
    }
  }

  manet::exp::Record rec;
  rec.add("workload", opt.workload)
      .add("seed", static_cast<std::uint64_t>(opt.seed))
      .add("trace", opt.trace)
      .add("tiny", opt.tiny)
      .add("attempted", attempted_)
      .add("failed", failed_)
      .add("digest", digest_)
      .add("nproc", std::thread::hardware_concurrency())
#ifdef __clang__
      .add("compiler", std::string("clang ") + __clang_version__)
#else
      .add("compiler", std::string("gcc ") + __VERSION__)
#endif
      .add("build_type", PERFBENCH_BUILD_TYPE)
      .add("cxx_flags", PERFBENCH_CXX_FLAGS);
  for (const auto& [key, value] : notes_) rec.add("note." + key, value);
  std::string json = rec.to_json();
  json.pop_back();  // reopen the object to append the metric map
  json += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : metric_order_) {
    const Entry& e = metrics_.at(name);
    appendf(json, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", \"base\": \"%s\", "
            "\"samples\": [",
            first ? "" : ", ", name.c_str(), e.value, e.unit.c_str(),
            manet::exp::json_escape(e.base).c_str());
    for (std::size_t i = 0; i < e.samples.size(); ++i) {
      appendf(json, "%s%.9g", i ? ", " : "", e.samples[i]);
    }
    json += "]}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// --- Helpers ------------------------------------------------------------------

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  if (n < 0) return;
  if (static_cast<std::size_t>(n) < sizeof buf) {
    out.append(buf, static_cast<std::size_t>(n));
    return;
  }
  std::string big(static_cast<std::size_t>(n) + 1, '\0');
  va_start(args, fmt);
  std::vsnprintf(big.data(), big.size(), fmt, args);
  va_end(args);
  big.pop_back();
  out += big;
}

PhaseClock::PhaseClock(double budget_s, std::size_t min_units,
                       std::size_t min_samples, double cap_s)
    : start_(std::chrono::steady_clock::now()),
      budget_s_(budget_s),
      min_units_(min_units),
      min_samples_(min_samples),
      cap_s_(cap_s) {}

double PhaseClock::elapsed() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
      .count();
}

bool PhaseClock::more(std::size_t units, std::size_t samples) const {
  if (units == 0) return true;
  const double t = elapsed();
  if (t >= cap_s_) return false;
  return t < budget_s_ || units < min_units_ || samples < min_samples_;
}

bool SetupSpread::next() {
  if (done_ >= count_) return false;
  const double at = clock_.budget() * (static_cast<double>(done_) + 0.5) /
                    static_cast<double>(count_);
  if (clock_.elapsed() < at) return false;
  ++done_;
  return true;
}

}  // namespace perfbench
