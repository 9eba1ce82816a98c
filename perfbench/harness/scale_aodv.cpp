// scale_aodv: the 1k-node scale point. Random waypoint at 40 nodes/km^2,
// ScaleWorkload request/response flows over AODV, no detection attached;
// Network::run_until is called in 100 ms sim-time slices. Repetitions of
// three scenarios run in turn on the main thread.
#include <algorithm>

#include "net/scale.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace manet;

namespace {

constexpr SimDuration kSlice = 100 * kMillisecond;
constexpr std::size_t kScenarios = 3;

struct Instance {
  explicit Instance(const net::ScenarioConfig& config)
      : net(config),
        workload(net, config.num_flows, config.packets_per_second, config.seed) {}
  net::Network net;
  net::ScaleWorkload workload;
};

struct Counters {
  net::ScaleWorkload::Stats requests;
  mac::MacStats mac;
  net::AodvStats aodv;
  phy::Channel::CacheStats channel;
  std::uint64_t events = 0;
  std::uint64_t compactions = 0;
  std::size_t index_bytes = 0;
};

Counters collect(Instance& inst) {
  Counters c;
  net::Network& net = inst.net;
  c.requests = inst.workload.stats();
  for (NodeId i = 0; i < net.size(); ++i) {
    const mac::MacStats& m = net.mac(i).stats();
    c.mac.rts_sent += m.rts_sent;
    c.mac.cts_sent += m.cts_sent;
    c.mac.data_sent += m.data_sent;
    c.mac.ack_sent += m.ack_sent;
    c.mac.retries += m.retries;
    c.mac.retry_drops += m.retry_drops;
    c.mac.queue_drops += m.queue_drops;
    c.mac.packets_acked += m.packets_acked;
    c.mac.broadcasts_sent += m.broadcasts_sent;
    c.mac.rx_errors += m.rx_errors;
    const net::AodvStats& a = net.router(i)->stats();
    c.aodv.rreq_sent += a.rreq_sent;
    c.aodv.rrep_sent += a.rrep_sent;
    c.aodv.rerr_sent += a.rerr_sent;
    c.aodv.forwarded += a.forwarded;
    c.aodv.discovery_failures += a.discovery_failures;
    c.aodv.drops_no_route += a.drops_no_route;
    c.aodv.drops_link_failure += a.drops_link_failure;
    c.compactions += net.timeline(i).budget_stats().compactions;
  }
  c.channel = net.channel().cache_stats();
  c.events = net.simulator().dispatched_events();
  c.index_bytes = net.channel().index_memory_bytes();
  return c;
}

std::uint64_t frames_sent(const mac::MacStats& m) {
  return m.rts_sent + m.cts_sent + m.data_sent + m.ack_sent + m.broadcasts_sent;
}

std::string describe(const Counters& c) {
  std::string out;
  appendf(out, "req gen=%llu del=%llu rsp_sent=%llu rsp_del=%llu\n",
          static_cast<unsigned long long>(c.requests.requests_generated),
          static_cast<unsigned long long>(c.requests.requests_delivered),
          static_cast<unsigned long long>(c.requests.responses_sent),
          static_cast<unsigned long long>(c.requests.responses_delivered));
  appendf(out, "mac rts=%llu cts=%llu data=%llu ack=%llu retry=%llu rdrop=%llu "
          "qdrop=%llu acked=%llu bcast=%llu rxerr=%llu\n",
          static_cast<unsigned long long>(c.mac.rts_sent),
          static_cast<unsigned long long>(c.mac.cts_sent),
          static_cast<unsigned long long>(c.mac.data_sent),
          static_cast<unsigned long long>(c.mac.ack_sent),
          static_cast<unsigned long long>(c.mac.retries),
          static_cast<unsigned long long>(c.mac.retry_drops),
          static_cast<unsigned long long>(c.mac.queue_drops),
          static_cast<unsigned long long>(c.mac.packets_acked),
          static_cast<unsigned long long>(c.mac.broadcasts_sent),
          static_cast<unsigned long long>(c.mac.rx_errors));
  appendf(out, "aodv rreq=%llu rrep=%llu rerr=%llu fwd=%llu dfail=%llu nroute=%llu "
          "lfail=%llu\n",
          static_cast<unsigned long long>(c.aodv.rreq_sent),
          static_cast<unsigned long long>(c.aodv.rrep_sent),
          static_cast<unsigned long long>(c.aodv.rerr_sent),
          static_cast<unsigned long long>(c.aodv.forwarded),
          static_cast<unsigned long long>(c.aodv.discovery_failures),
          static_cast<unsigned long long>(c.aodv.drops_no_route),
          static_cast<unsigned long long>(c.aodv.drops_link_failure));
  appendf(out, "sim events=%llu\n", static_cast<unsigned long long>(c.events));
  return out;
}

/// Host seconds of a typical repetition of one scenario: each slice's
/// median over the repetitions, summed. Repetitions of one scenario
/// simulate the same slices, so a host stall that hits a slice in a
/// minority of them drops out.
double typical_rep_s(const std::vector<std::vector<double>>& rep_slice_ms) {
  double total_ms = 0.0;
  std::vector<double> column;
  for (std::size_t k = 0; k < rep_slice_ms.front().size(); ++k) {
    column.clear();
    for (const auto& slices : rep_slice_ms) column.push_back(slices[k]);
    total_ms += median(column);
  }
  return total_ms / 1e3;
}

}  // namespace

void run_scale_aodv(const Options& opt, Tracer& tracer, Report& report) {
  // A run simulates kScenarios random scenarios in turn, seeded seed +
  // j * 2^32 (the first is the run's own seed): how much traffic one
  // random topology carries varies by several percent, and the run's
  // figures average it out.
  const std::size_t scenarios = opt.tiny ? 1 : kScenarios;
  std::vector<net::ScaleScenarioParams> params(scenarios);
  for (std::size_t j = 0; j < scenarios; ++j) {
    params[j].nodes = opt.tiny ? 100 : 1000;
    params[j].density_per_km2 = 40.0;
    params[j].num_flows = opt.tiny ? 5 : 50;
    params[j].packets_per_second = 2.0;
    params[j].sim_seconds = 10.0;
    params[j].seed = opt.seed + (std::uint64_t{j} << 32);
  }
  const double sim_seconds = params[0].sim_seconds;
  const SimTime stop = seconds_to_time(sim_seconds);
  // Setups per run (of the first scenario): a build takes milliseconds, so
  // many are timed; a few come first and the rest are spread over the
  // phase (SetupSpread).
  const std::size_t setups = opt.tiny ? 1 : 101;
  const std::size_t setups_first = opt.tiny ? 1 : 5;

  std::vector<double> setup_s;
  std::vector<double> build_s;
  const auto build = [&] {
    Span setup(tracer, "net", "setup");
    const net::ScenarioConfig config = net::make_scale_config(params[0]);
    Instance inst(config);
    setup.close();
    setup_s.push_back(setup.seconds());
  };
  // The Network constructor alone (net.build_s), separately from the
  // workload install that setup_s also counts.
  const auto build_network_only = [&] {
    const net::ScenarioConfig config = net::make_scale_config(params[0]);
    Span span(tracer, "net", "Network::Network");
    net::Network net(config);
    span.close();
    build_s.push_back(span.seconds());
  };

  for (std::size_t k = 0; k < setups_first; ++k) {
    build();
    if (opt.trace) build_network_only();
  }

  // One repetition of scenario j: build, then run 10 sim-s in 100 ms
  // slices. Repetitions run one at a time: concurrent 1k-node simulations
  // on a few shared cores contend for cache and memory bandwidth, and
  // their wall times then measure the host more than the simulator.
  struct Rep {
    Counters counters;
    std::vector<double> slice_ms;
  };
  const auto run_rep = [&](std::size_t j) {
    Rep r;
    Instance inst(net::make_scale_config(params[j]));
    inst.workload.start(kSecond, stop);
    Span rep(tracer, "net", "ScaleWorkload run");
    for (SimTime t = kSlice; t <= stop; t += kSlice) {
      Span slice(tracer, "sim", "Network::run_until");
      inst.net.run_until(t);
      slice.close();
      r.slice_ms.push_back(slice.seconds() * 1e3);
    }
    rep.close();
    r.counters = collect(inst);
    return r;
  };

  // Per scenario: describe() of its first repetition, which every later
  // one must repeat, and that repetition's counters.
  std::vector<std::string> reference(scenarios);
  std::vector<Counters> counters(scenarios);
  struct Phase {
    std::vector<std::vector<std::vector<double>>> rep_slice_ms;  // [scenario][rep][slice]
    std::vector<double> slice_ms;
    std::size_t reps = 0;

    /// Host seconds of one typical repetition of every scenario.
    double typical_s() const {
      double total = 0.0;
      for (const auto& reps_of : rep_slice_ms) total += typical_rep_s(reps_of);
      return total;
    }
  };
  const auto run_phase = [&](double budget_s) {
    Phase phase;
    phase.rep_slice_ms.resize(scenarios);
    const PhaseClock clock(budget_s, scenarios, 0, std::max(60.0, 3 * budget_s));
    SetupSpread spread(clock, setups - setup_s.size());
    while (clock.more(phase.reps, 0)) {
      while (spread.next()) build();
      const std::size_t j = phase.reps % scenarios;
      const Rep r = run_rep(j);
      const Counters& c = r.counters;
      const auto& rq = c.requests;
      report.op(rq.requests_delivered <= rq.requests_generated &&
                    rq.responses_delivered <= rq.requests_delivered &&
                    rq.responses_sent <= rq.requests_delivered,
                "request conservation violated");
      const std::string text = describe(c);
      if (reference[j].empty()) {
        reference[j] = text;
        counters[j] = c;
      } else {
        report.op(text == reference[j], "scale run output differs across repetitions");
      }
      phase.rep_slice_ms[j].push_back(r.slice_ms);
      phase.slice_ms.insert(phase.slice_ms.end(), r.slice_ms.begin(), r.slice_ms.end());
      ++phase.reps;
    }
    while (setup_s.size() < setups) build();
    return phase;
  };

  const bool traced = opt.trace;
  tracer.set_enabled(false);
  const Phase plain = run_phase(traced ? opt.seconds / 2 : opt.seconds);
  Phase measured;
  if (traced) {
    tracer.set_enabled(true);
    measured = run_phase(opt.seconds / 2);
    build_network_only();
    tracer.set_enabled(false);
  }
  std::string outputs;
  for (const std::string& text : reference) outputs += text;
  report.set_digest(digest_of(outputs));
  char shape[128];
  std::snprintf(shape, sizeof shape,
                "%zu scenarios x %zu nodes, %zu flows x %.3g req/s, %.3g sim-s",
                scenarios, params[0].nodes, params[0].num_flows,
                params[0].packets_per_second, sim_seconds);
  report.note("scenario", shape);

  if (!traced) {
    report.median_of("setup_s", setup_s, "s");
    std::uint64_t frames = 0;
    for (const Counters& c : counters) frames += frames_sent(c.mac);
    const double rep_s = plain.typical_s();
    char rep_label[64];
    std::snprintf(rep_label, sizeof rep_label, "typical_s(n=%zu reps)", plain.reps);
    report.ratio("sim_s_per_wall_s", sim_seconds * static_cast<double>(scenarios), "sim_s",
                 rep_s, rep_label, "s/s");
    report.ratio("frames_per_s", static_cast<double>(frames), "frames_sent", rep_s,
                 rep_label, "1/s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    return;
  }

  // Layer counters: the first scenario's first repetition.
  const Counters& c = counters[0];
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  report.metric("sim.events", d(c.events), "count");
  report.ratio("sim.ns_per_event", typical_rep_s(measured.rep_slice_ms[0]),
               "typical_run_until_s", d(c.events), "events", "ns", 1e9);
  report.median_of("sim.slice_ms_p50", measured.slice_ms, "ms");
  report.percentile_of("sim.slice_ms_p90", measured.slice_ms, 0.9, "ms");

  report.ratio("phy.candidates_per_tx", d(c.channel.candidates_seen), "candidates_seen",
               d(c.channel.candidate_sets), "candidate_sets", "1");
  report.ratio("phy.prefilter_reject_frac", d(c.channel.prefilter_rejects),
               "prefilter_rejects", d(c.channel.candidates_seen), "candidates_seen", "1");
  report.ratio("phy.link_budget_hit_frac", d(c.channel.link_budget_hits), "hits",
               d(c.channel.link_budget_hits + c.channel.link_budget_misses),
               "hits+misses", "1");
  report.metric("phy.cell_migrations", d(c.channel.cell_migrations), "count");
  report.metric("phy.index_bytes", d(c.index_bytes), "B");
  report.metric("phy.timeline_compactions", d(c.compactions), "count");

  report.metric("mac.rts_sent", d(c.mac.rts_sent), "count");
  report.metric("mac.data_sent", d(c.mac.data_sent), "count");
  report.metric("mac.broadcasts_sent", d(c.mac.broadcasts_sent), "count");
  report.ratio("mac.retries_per_rts", d(c.mac.retries), "retries", d(c.mac.rts_sent),
               "rts_sent", "1");
  report.ratio("mac.ack_frac", d(c.mac.packets_acked), "acked",
               d(c.mac.packets_acked + c.mac.retry_drops + c.mac.queue_drops),
               "acked+retry_drops+queue_drops", "1");
  report.metric("mac.rx_errors", d(c.mac.rx_errors), "count");

  report.median_of("net.build_s", build_s, "s");
  report.metric("net.rreq_sent", d(c.aodv.rreq_sent), "count");
  report.ratio("net.rreq_per_request", d(c.aodv.rreq_sent), "rreq_sent",
               d(c.requests.requests_generated), "requests_generated", "1");
  report.metric("net.discovery_failures", d(c.aodv.discovery_failures), "count");
  report.metric("net.forwarded", d(c.aodv.forwarded), "count");
  report.metric("net.drops_no_route", d(c.aodv.drops_no_route), "count");
  report.metric("net.drops_link_failure", d(c.aodv.drops_link_failure), "count");
  report.metric("net.requests_generated", d(c.requests.requests_generated), "count");
  report.metric("net.requests_delivered", d(c.requests.requests_delivered), "count");
  report.metric("net.responses_delivered", d(c.requests.responses_delivered), "count");
  report.ratio("net.pdr", d(c.requests.requests_delivered), "requests_delivered",
               d(c.requests.requests_generated), "requests_generated", "1");

  report.ratio("trace.overhead_frac", measured.typical_s(), "traced_typical_s",
               plain.typical_s(), "untraced_typical_s", "1", 1.0, -1.0);
  report.metric("trace.coverage", tracer.coverage(), "1");
}

}  // namespace perfbench
