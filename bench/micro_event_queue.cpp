// Microbenchmark: discrete-event kernel throughput — the floor under every
// simulation second this library runs.
//
// Cases (select with --filter; ns_per_op is per event):
//  * schedule_and_pop_<batch>   — fill a fresh queue with <batch> random
//                                 timestamps, then drain it.
//  * schedule_cancel            — schedule and immediately cancel.
//  * cancel_churn_steady_state  — a standing population of 512 timers,
//                                 one cancelled and replaced per op; the
//                                 record's heap_entries and live fields
//                                 show the dead-entry compaction bound.
//  * simulator_self_scheduling  — one self-rescheduling timer through
//                                 the Simulator.
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "micro_common.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace {

using namespace manet;
using sim::EventQueue;
using sim::Simulator;

void schedule_and_pop(bench::MicroHarness& h, std::size_t batch) {
  // ~1M events per case at --reps=1, whatever the batch size.
  const std::size_t reps = h.reps((std::size_t{1} << 20) / batch);
  util::Xoshiro256ss rng(1);
  h.run_case("schedule_and_pop_" + std::to_string(batch), [&] {
    for (std::size_t r = 0; r < reps; ++r) {
      EventQueue q;
      for (std::size_t i = 0; i < batch; ++i) {
        q.schedule(static_cast<SimTime>(rng.uniform_int(1u << 20)), [] {});
      }
      while (!q.empty()) bench::keep(q.pop().id);
    }
    return static_cast<std::uint64_t>(reps * batch);
  });
}

}  // namespace

int main(int argc, char** argv) {
  bench::MicroHarness h("micro_event_queue",
                        "Event queue schedule/pop/cancel throughput and the "
                        "Simulator's self-scheduling loop.",
                        argc, argv);

  for (std::size_t batch : {1024u, 16384u, 131072u}) schedule_and_pop(h, batch);

  {
    // The MAC cancels timers constantly; cancel must be O(1)-ish.
    const std::size_t reps = h.reps(1000);
    h.run_case("schedule_cancel", [&] {
      for (std::size_t r = 0; r < reps; ++r) {
        EventQueue q;
        for (int i = 0; i < 1024; ++i) q.cancel(q.schedule(i, [] {}));
        bench::keep(q.empty());
      }
      return static_cast<std::uint64_t>(reps * 1024);
    });
  }

  {
    // The MAC's steady-state pattern: a standing population of timers where
    // almost every scheduled event is cancelled and replaced before firing.
    // Exercises slot reuse and the dead-entry compaction bound.
    EventQueue q;
    util::Xoshiro256ss rng(7);
    std::vector<sim::EventId> live(512, sim::kInvalidEvent);
    SimTime t = 0;
    for (auto& id : live) id = q.schedule(++t, [] {});
    const std::size_t reps = h.reps(1000000);
    h.run_case(
        "cancel_churn_steady_state",
        [&] {
          for (std::size_t r = 0; r < reps; ++r) {
            const std::size_t i = rng.uniform_int(512);
            q.cancel(live[i]);
            live[i] = q.schedule(++t, [] {});
          }
          return static_cast<std::uint64_t>(reps);
        },
        [&](exp::Record& rec) {
          rec.add("heap_entries", static_cast<std::uint64_t>(q.heap_entries()))
              .add("live", static_cast<std::uint64_t>(q.size()));
        });
  }

  {
    // A single self-rescheduling timer: the pattern of per-node periodic work.
    const std::size_t reps = h.reps(100);
    h.run_case("simulator_self_scheduling", [&] {
      for (std::size_t r = 0; r < reps; ++r) {
        Simulator sim;
        int remaining = 10000;
        std::function<void()> tick = [&] {
          if (--remaining > 0) sim.after(20, tick);
        };
        sim.at(0, tick);
        sim.run();
        bench::keep(sim.now());
      }
      return static_cast<std::uint64_t>(reps * 10000);
    });
  }
  return h.finish();
}
