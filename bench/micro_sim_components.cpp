// Microbenchmarks of the per-slot / per-frame primitives: the verifiable
// PRS lookup, the system-state equations, the ARMA update, the lens-area
// geometry, a complete two-node DCF exchange through the whole stack, and
// whole simulated seconds of the Table-1 grid and of a saturated pair.
#include <cstdint>
#include <functional>
#include <string>

#include "detect/arma.hpp"
#include "detect/system_state.hpp"
#include "geom/circle.hpp"
#include "mac/backoff.hpp"
#include "mac/dcf.hpp"
#include "micro_common.hpp"
#include "net/mobility.hpp"
#include "net/network.hpp"
#include "phy/channel.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace manet;

// Runs `body(i)` for i in [1, reps] as one case of `reps` ops, 1M at
// --reps=1.
template <typename Body>
void primitive_case(bench::MicroHarness& h, const std::string& name,
                    Body body) {
  const std::size_t reps = h.reps(1000000);
  h.run_case(name, [&] {
    for (std::size_t i = 1; i <= reps; ++i) body(i);
    return static_cast<std::uint64_t>(reps);
  });
}

}  // namespace

int main(int argc, char** argv) {
  bench::MicroHarness h(
      "micro_sim_components",
      "Per-slot/per-frame primitives (PRS, system-state model, ARMA, lens "
      "area), one DCF exchange, and simulated seconds of the Table-1 grid "
      "and a saturated pair.",
      argc, argv);

  {
    mac::DcfParams params;
    mac::VerifiableBackoff prs(42, params);
    primitive_case(h, "prs_dictated_slots", [&](std::size_t i) {
      bench::keep(prs.dictated_slots(i, 1 + (i & 3)));
    });
  }
  {
    const geom::RegionModel regions(240, 550);
    const detect::SystemStateModel model(regions);
    detect::SystemStateParams p;
    p.k = p.n = p.m = p.j = 5;
    p.contenders = 20;
    double rho = 0.0;
    primitive_case(h, "system_state_equations", [&](std::size_t) {
      p.rho = rho;
      rho = rho >= 0.9 ? 0.0 : rho + 0.01;
      bench::keep(model.estimated_idle(p, 70, 30));
    });
  }
  {
    detect::ArmaIntensityFilter filter(0.995);
    double b = 0.0;
    primitive_case(h, "arma_update", [&](std::size_t) {
      filter.add_batch(b);
      b = b >= 1.0 ? 0.0 : b + 0.001;
      bench::keep(filter.intensity());
    });
  }
  {
    double d = 0.0;
    primitive_case(h, "lens_area", [&](std::size_t) {
      d = d >= 1000.0 ? 1.0 : d + 1.0;
      bench::keep(geom::lens_area(550.0, d));
    });
  }

  if (h.enabled("full_dcf_exchange")) {
    // Steady-state cost of one complete RTS/CTS/DATA/ACK exchange through
    // PHY+MAC: the stack is built once, each op services one packet end
    // to end (the MAC is idle again when run() returns).
    sim::Simulator sim;
    mac::DcfParams params;
    phy::Propagation prop(phy::PropagationParams{}, 1);
    net::StaticMobility positions({{0.0, 0.0}, {200.0, 0.0}});
    phy::Channel channel(sim, prop, positions);
    phy::Radio r0(0, channel), r1(1, channel);
    mac::DcfMac m0(sim, r0, params), m1(sim, r1, params);
    const std::size_t reps = h.reps(20000);
    h.run_case("full_dcf_exchange", [&] {
      for (std::uint64_t id = 1; id <= reps; ++id) {
        m0.enqueue(1, 512, id);
        sim.run();
        bench::keep(m1.stats().packets_delivered);
      }
      return static_cast<std::uint64_t>(reps);
    });
  }

  {
    // One simulated second of the paper's 56-node Table-1 static grid under
    // the fig-5 traffic load (one op), with kernel events and transmissions
    // per wall-clock second — the sweep benches' cost in microbenchmark form.
    const std::size_t reps = h.reps(10);
    std::uint64_t events = 0;
    std::uint64_t transmissions = 0;
    h.run_case(
        "table1_network_sim_second",
        [&] {
          for (std::size_t r = 0; r < reps; ++r) {
            net::ScenarioConfig cfg;
            cfg.sim_seconds = 1;
            cfg.num_flows = 30;
            cfg.seed = 3;
            net::Network nw(cfg);
            nw.build_random_flows();
            nw.set_flow_rates(15);
            const SimTime stop = seconds_to_time(cfg.sim_seconds);
            nw.start_traffic(0, stop);
            nw.run_until(stop);
            events += nw.simulator().dispatched_events();
            transmissions += nw.channel().transmissions();
          }
          return static_cast<std::uint64_t>(reps);
        },
        [&](exp::Record& rec) {
          const double wall = h.last_wall_seconds();
          rec.add("events_per_s", static_cast<double>(events) / wall)
              .add("tx_per_s", static_cast<double>(transmissions) / wall);
        });
  }

  {
    // One simulated second of a saturated two-node link (one op): the
    // smallest topology the channel's spatial index serves.
    const std::size_t reps = h.reps(50);
    h.run_case("saturated_pair_sim_second", [&] {
      for (std::size_t r = 0; r < reps; ++r) {
        sim::Simulator sim;
        mac::DcfParams params;
        phy::Propagation prop(phy::PropagationParams{}, 1);
        net::StaticMobility positions({{0.0, 0.0}, {200.0, 0.0}});
        phy::Channel channel(sim, prop, positions);
        phy::Radio r0(0, channel), r1(1, channel);
        mac::DcfMac m0(sim, r0, params), m1(sim, r1, params);
        std::uint64_t id = 0;
        std::function<void()> refill = [&] {
          while (m0.queue_length() < 40) m0.enqueue(1, 512, ++id);
          if (sim.now() < 1 * kSecond) sim.after(100 * kMillisecond, refill);
        };
        sim.at(0, refill);
        sim.run_until(1 * kSecond);
        bench::keep(m1.stats().packets_delivered);
      }
      return static_cast<std::uint64_t>(reps);
    });
  }
  return h.finish();
}
