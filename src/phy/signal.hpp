// In-flight signal representation and the opaque payload the PHY carries.
//
// The PHY is payload-agnostic: MAC frames derive from Payload and are
// recovered by the MAC with a static downcast. This keeps the dependency
// direction mac -> phy.
#pragma once

#include <cstdint>
#include <memory>

#include "geom/vec2.hpp"
#include "util/types.hpp"

namespace manet::phy {

/// Base class for anything the PHY can carry.
struct Payload {
  virtual ~Payload() = default;
};

using PayloadPtr = std::shared_ptr<const Payload>;

/// One transmission as perceived by one receiver.
struct Signal {
  std::uint64_t id = 0;        // unique per transmission event
  NodeId transmitter = kInvalidNode;
  PayloadPtr payload;
  SimTime start = 0;
  SimTime end = 0;
  double rx_power_dbm = 0.0;   // at this receiver
  /// Fault injection marked this delivery's bits as damaged: a radio that
  /// locks onto it reports a reception error (the FCS fails), never a
  /// valid frame.
  bool corrupted = false;
};

/// A node's position epoch value meaning "in motion right now": the
/// position may differ at the very next query, so nothing keyed by the
/// epoch may be cached.
inline constexpr std::uint64_t kMovingEpoch = ~std::uint64_t{0};

/// One piecewise-linear motion segment of a node: from the query instant
/// until `until`, the node's true position stays within floating-point
/// noise of position + velocity_mps * (t - query time). The channel's
/// incremental spatial index consumes these to schedule cell migrations at
/// exact boundary-crossing times and to bound pair distances over time; it
/// never reconstructs exact positions from a segment (exact positions
/// always come from position(), so cached-path results stay bit-identical
/// to a full scan).
struct MotionState {
  geom::Vec2 position;          // exact position at the query time
  geom::Vec2 velocity_mps;      // constant over [query time, until)
  SimTime until = 0;            // segment end; <= query time means "unknown"
  /// Distinct per segment (a waypoint leg's travel and pause phases get
  /// different epochs); kMovingEpoch when the provider cannot describe the
  /// motion. Two equal non-kMovingEpoch epochs identify the same segment.
  std::uint64_t epoch = kMovingEpoch;
};

/// Interface nodes use to expose their (possibly moving) positions.
class PositionProvider {
 public:
  virtual ~PositionProvider() = default;
  virtual geom::Vec2 position(NodeId node, SimTime at) const = 0;

  /// True when motion() describes every node's trajectory as piecewise-
  /// linear segments; required by the channel's incremental index. The
  /// default (false) keeps unknown providers on the full-scan path.
  virtual bool piecewise_linear() const { return false; }

  /// The motion segment containing `at`. Default: position only, nothing
  /// known beyond the instant. Like position(), expected to be queried
  /// with non-decreasing `at` per node.
  virtual MotionState motion(NodeId node, SimTime at) const {
    return MotionState{position(node, at), geom::Vec2{0.0, 0.0}, at, kMovingEpoch};
  }
};

}  // namespace manet::phy
