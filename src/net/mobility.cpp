#include "net/mobility.hpp"

#include <cassert>

namespace manet::net {

RandomWaypoint::RandomWaypoint(std::vector<geom::Vec2> initial,
                               const RandomWaypointParams& params,
                               std::uint64_t seed)
    : params_(params) {
  assert(params.min_speed > 0.0 && params.max_speed >= params.min_speed);
  nodes_.reserve(initial.size());
  for (std::size_t i = 0; i < initial.size(); ++i) {
    NodeState st{util::Xoshiro256ss(util::mix64(seed ^ (0x5BD1E995u + i))), Leg{}};
    st.leg = make_leg(st.rng, initial[i], 0);
    nodes_.push_back(std::move(st));
  }
}

RandomWaypoint::Leg RandomWaypoint::make_leg(util::Xoshiro256ss& rng,
                                             geom::Vec2 from, SimTime start) const {
  Leg leg;
  leg.start = start;
  leg.from = from;
  leg.to = {rng.uniform(0.0, params_.width), rng.uniform(0.0, params_.height)};
  const double speed = rng.uniform(params_.min_speed, params_.max_speed);
  const double dist = geom::distance(from, leg.to);
  leg.arrive = start + seconds_to_time(dist / speed);
  leg.next_start = leg.arrive + params_.pause;
  return leg;
}

void RandomWaypoint::advance_to(NodeState& st, SimTime at) const {
  while (at >= st.leg.next_start) {
    st.leg = make_leg(st.rng, st.leg.to, st.leg.next_start);
    ++st.leg_index;
  }
}

phy::MotionState RandomWaypoint::motion(NodeId node, SimTime at) const {
  NodeState& st = nodes_.at(node);
  if (at < st.leg.start) at = st.leg.start;  // clamp rewinds like position()
  advance_to(st, at);
  const Leg& leg = st.leg;
  phy::MotionState m;
  if (at >= leg.arrive) {
    // Pause phase [arrive, next_start): parked at the waypoint. With
    // pause == 0 this phase is empty and advance_to() already skipped it.
    m.position = leg.to;
    m.velocity_mps = {0.0, 0.0};
    m.until = leg.next_start;
    m.epoch = 2 * st.leg_index + 1;
    return m;
  }
  // Travel phase [start, arrive): position() interpolates linearly, so the
  // segment's velocity is exact up to floating-point noise (the channel
  // pads its cells to absorb that).
  m.position = position_at(leg, at);
  const double travel_s = time_to_seconds(leg.arrive - leg.start);
  m.velocity_mps = (leg.to - leg.from) * (1.0 / travel_s);
  m.until = leg.arrive;
  m.epoch = 2 * st.leg_index;
  return m;
}

geom::Vec2 RandomWaypoint::position_at(const Leg& leg, SimTime at) {
  if (at >= leg.arrive) return leg.to;  // pausing
  const double frac = static_cast<double>(at - leg.start) /
                      static_cast<double>(leg.arrive - leg.start);
  return leg.from + (leg.to - leg.from) * frac;
}

geom::Vec2 RandomWaypoint::position(NodeId node, SimTime at) const {
  NodeState& st = nodes_.at(node);
  if (at < st.leg.start) {
    // Out-of-order (earlier) query: restart the node's trajectory. This is
    // deterministic only for monotone queries, which the simulator
    // guarantees; tolerate rewinds by clamping to the current leg start.
    at = st.leg.start;
  }
  advance_to(st, at);
  return position_at(st.leg, at);
}

}  // namespace manet::net
