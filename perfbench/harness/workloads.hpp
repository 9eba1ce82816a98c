// The benchmark's workloads (one per source file) and the helpers the
// detection workloads share for checking and digesting their outputs.
#pragma once

#include <string>

#include "crypto/md5.hpp"
#include "detect/experiment.hpp"
#include "report.hpp"

namespace perfbench {

void run_grid_detect(const Options& opt, Tracer& tracer, Report& report);
void run_scale_aodv(const Options& opt, Tracer& tracer, Report& report);
void run_replay_allpairs(const Options& opt, Tracer& tracer, Report& report);

/// Hex MD5 of `text`: the digest of a run's deterministic outputs.
inline std::string digest_of(const std::string& text) {
  return manet::crypto::to_hex(manet::crypto::Md5::hash(text));
}

/// Canonical text of one configuration's deterministic outputs.
inline void describe(std::string& out, const manet::detect::DetectionResult& r) {
  const manet::detect::MonitorStats& s = r.stats;
  appendf(out,
          "w=%llu f=%llu fs=%llu rts=%llu smp=%llu sw=%llu sf=%llu so=%llu av=%llu "
          "ib=%llu sna=%llu slw=%llu sqg=%llu ffw=%llu\n",
          static_cast<unsigned long long>(r.windows),
          static_cast<unsigned long long>(r.flagged),
          static_cast<unsigned long long>(r.flagged_statistical),
          static_cast<unsigned long long>(s.rts_observed),
          static_cast<unsigned long long>(s.samples),
          static_cast<unsigned long long>(s.windows),
          static_cast<unsigned long long>(s.flagged_windows),
          static_cast<unsigned long long>(s.seq_off_violations),
          static_cast<unsigned long long>(s.attempt_violations),
          static_cast<unsigned long long>(s.impossible_backoff),
          static_cast<unsigned long long>(s.skipped_no_anchor),
          static_cast<unsigned long long>(s.skipped_long_window),
          static_cast<unsigned long long>(s.skipped_queue_gap),
          static_cast<unsigned long long>(s.windows_to_first_flag));
}

/// The counters two runs of one detection configuration must agree on.
inline bool same_counters(const manet::detect::DetectionResult& a,
                          const manet::detect::DetectionResult& b) {
  return a.windows == b.windows && a.flagged == b.flagged &&
         a.flagged_statistical == b.flagged_statistical && a.stats == b.stats;
}

}  // namespace perfbench
