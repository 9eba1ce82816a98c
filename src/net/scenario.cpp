#include "net/scenario.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "phy/channel.hpp"

namespace manet::net {

void ScenarioConfig::declare(util::Config& c) {
  c.declare("topology", "grid", "Topology type: grid | random (Table 1)");
  c.declare("grid_rows", "7", "Grid rows (Table 1: 7x8 grid, 56 nodes)");
  c.declare("grid_cols", "8", "Grid columns");
  c.declare("grid_spacing", "240", "Distance between one-hop grid neighbors (m)");
  c.declare("random_nodes", "112", "Node count for the random topology");
  c.declare("area_width", "3000", "Topology area width (m)");
  c.declare("area_height", "3000", "Topology area height (m)");
  c.declare("mobility", "static", "Mobility: static | rwp (random waypoint)");
  c.declare("min_speed", "0.5", "Random waypoint minimum speed (m/s)");
  c.declare("max_speed", "20", "Random waypoint maximum speed (m/s; Table 1: 0-20)");
  c.declare("pause", "0", "Random waypoint pause time (s; Table 1: 0,50,100,200,300)");
  c.declare("traffic", "poisson", "Traffic model: poisson | cbr (Table 1)");
  c.declare("packet_size", "512", "Payload size in bytes (Table 1)");
  c.declare("num_flows", "30", "Number of source-destination pairs");
  c.declare("rate", "20", "Per-flow packet rate (packets/s)");
  c.declare("sim_time", "300", "Simulation time (s; Table 1)");
  c.declare("seed", "1", "Master random seed");
  c.declare("queue_length", "50", "MAC interface queue capacity (Table 1)");
  c.declare("tx_range", "250", "Transmission range (m; Table 1)");
  c.declare("cs_range", "550", "Sensing/interference range (m; Table 1)");
  c.declare("path_loss_exponent", "2", "Shadowing-model path loss exponent beta");
  c.declare("shadowing_sigma", "0", "Shadowing sigma_dB (0 = free space)");
  c.declare("use_eifs", "false", "Defer EIFS after corrupted receptions");
  c.declare("routing", "none", "Routing: none (one-hop MAC) | aodv (Table 1)");
  c.declare("flow_pattern", "one_hop",
            "Flow destinations: one_hop (paper) | any (multi-hop, needs aodv)");
  c.declare("fault_loss", "0", "I.i.d. per-delivery frame decode-failure probability");
  c.declare("fault_corrupt", "0", "Per-delivery frame field-corruption probability");
  c.declare("fault_ge", "false", "Enable Gilbert-Elliott bursty decode failures");
  c.declare("fault_ge_p_gb", "0.05", "GE transition probability good -> bad");
  c.declare("fault_ge_p_bg", "0.25", "GE transition probability bad -> good");
  c.declare("fault_ge_loss_good", "0", "GE decode-failure probability in the good state");
  c.declare("fault_ge_loss_bad", "1", "GE decode-failure probability in the bad state");
  c.declare("fault_outages", "",
            "Receiver outages: node:start_s:stop_s[,node:start_s:stop_s...]");
  c.declare("fault_seed", "0", "Extra stream selector for the fault RNG");
  c.declare("channel_index", "auto",
            "Channel receiver lookup: auto | scan");
  c.declare("timeline_retention_s", "10",
            "Carrier-history retention horizon per node (s)");
  c.declare("timeline_max_transitions", "262144",
            "Hard per-node carrier-transition budget (compacted beyond)");
}

void ScenarioConfig::validate() const {
  if (topology == TopologyKind::kGrid) {
    if (grid_rows == 0 || grid_cols == 0) {
      throw std::invalid_argument("grid dimensions must be positive");
    }
    if (grid_rows > kMaxNodes / grid_cols) {
      throw std::invalid_argument(
          "grid node count overflows spatial-index node capacity (" +
          std::to_string(grid_rows) + "x" + std::to_string(grid_cols) + ")");
    }
  } else if (random_nodes == 0 || random_nodes > kMaxNodes) {
    throw std::invalid_argument(
        "random topology node count out of range: " +
        std::to_string(random_nodes));
  }
  for (const auto& [value, name] :
       {std::pair<double, const char*>{area_width_m, "area width"},
        {area_height_m, "area height"}}) {
    if (!(value > 0.0) || !(value <= kMaxAreaM)) {
      throw std::invalid_argument(
          std::string(name) +
          " must be in (0, 1e9] m to fit grid-cell indexing: " +
          std::to_string(value));
    }
  }
  if (topology == TopologyKind::kGrid &&
      !(grid_spacing_m > 0.0 &&
        grid_spacing_m * static_cast<double>(std::max(grid_rows, grid_cols)) <=
            kMaxAreaM)) {
    throw std::invalid_argument(
        "grid spacing out of range: " + std::to_string(grid_spacing_m));
  }
  if (!(timeline_retention_s > 0.0)) {
    throw std::invalid_argument("timeline retention must be positive");
  }
  if (timeline_max_transitions < 2) {
    throw std::invalid_argument("timeline transition budget must be >= 2");
  }
}

ScenarioConfig ScenarioConfig::from_config(const util::Config& c) {
  ScenarioConfig s;
  s.topology = parse_topology(c.get("topology"));
  s.grid_rows = static_cast<std::size_t>(c.get_int("grid_rows"));
  s.grid_cols = static_cast<std::size_t>(c.get_int("grid_cols"));
  s.grid_spacing_m = c.get_double("grid_spacing");
  s.random_nodes = static_cast<std::size_t>(c.get_int("random_nodes"));
  s.area_width_m = c.get_double("area_width");
  s.area_height_m = c.get_double("area_height");
  s.mobility = parse_mobility(c.get("mobility"));
  s.min_speed_mps = c.get_double("min_speed");
  s.max_speed_mps = c.get_double("max_speed");
  s.pause_s = c.get_double("pause");
  s.traffic = parse_traffic(c.get("traffic"));
  s.payload_bytes = static_cast<std::uint32_t>(c.get_int("packet_size"));
  s.num_flows = static_cast<std::size_t>(c.get_int("num_flows"));
  s.packets_per_second = c.get_double("rate");
  s.sim_seconds = c.get_double("sim_time");
  s.seed = static_cast<std::uint64_t>(c.get_int("seed"));
  s.mac.queue_capacity = static_cast<std::uint32_t>(c.get_int("queue_length"));
  s.mac.use_eifs = c.get_bool("use_eifs");
  s.prop.tx_range_m = c.get_double("tx_range");
  s.prop.cs_range_m = c.get_double("cs_range");
  s.prop.path_loss_exponent = c.get_double("path_loss_exponent");
  s.prop.shadowing_sigma_db = c.get_double("shadowing_sigma");
  s.routing = parse_routing(c.get("routing"));
  s.flow_pattern = parse_flow_pattern(c.get("flow_pattern"));
  s.faults.loss_probability = c.get_double("fault_loss");
  s.faults.corrupt_probability = c.get_double("fault_corrupt");
  s.faults.gilbert_elliott = c.get_bool("fault_ge");
  s.faults.ge_p_good_to_bad = c.get_double("fault_ge_p_gb");
  s.faults.ge_p_bad_to_good = c.get_double("fault_ge_p_bg");
  s.faults.ge_loss_good = c.get_double("fault_ge_loss_good");
  s.faults.ge_loss_bad = c.get_double("fault_ge_loss_bad");
  s.faults.outages = parse_outages(c.get("fault_outages"));
  s.faults.seed = static_cast<std::uint64_t>(c.get_int("fault_seed"));
  s.channel_index = c.get("channel_index");
  phy::Channel::parse_index_mode(s.channel_index);  // validate eagerly
  s.timeline_retention_s = c.get_double("timeline_retention_s");
  s.timeline_max_transitions =
      static_cast<std::size_t>(c.get_int("timeline_max_transitions"));
  s.validate();
  return s;
}

std::vector<phy::FaultPlan::Outage> parse_outages(const std::string& spec) {
  std::vector<phy::FaultPlan::Outage> out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const std::size_t c1 = item.find(':');
    const std::size_t c2 = c1 == std::string::npos ? std::string::npos
                                                   : item.find(':', c1 + 1);
    if (c1 == std::string::npos || c2 == std::string::npos) {
      throw std::invalid_argument("malformed outage (want node:start:stop): " + item);
    }
    phy::FaultPlan::Outage o;
    try {
      o.node = static_cast<NodeId>(std::stoul(item.substr(0, c1)));
      const double start_s = std::stod(item.substr(c1 + 1, c2 - c1 - 1));
      const double stop_s = std::stod(item.substr(c2 + 1));
      o.start = seconds_to_time(start_s);
      o.stop = seconds_to_time(stop_s);
    } catch (const std::exception&) {
      throw std::invalid_argument("malformed outage (want node:start:stop): " + item);
    }
    if (o.stop <= o.start) {
      throw std::invalid_argument("outage stop must be after start: " + item);
    }
    out.push_back(o);
  }
  return out;
}

TopologyKind parse_topology(const std::string& name) {
  if (name == "grid") return TopologyKind::kGrid;
  if (name == "random") return TopologyKind::kRandom;
  throw std::invalid_argument("unknown topology: " + name);
}

TrafficKind parse_traffic(const std::string& name) {
  if (name == "poisson") return TrafficKind::kPoisson;
  if (name == "cbr") return TrafficKind::kCbr;
  throw std::invalid_argument("unknown traffic model: " + name);
}

MobilityKind parse_mobility(const std::string& name) {
  if (name == "static") return MobilityKind::kStatic;
  if (name == "rwp") return MobilityKind::kRandomWaypoint;
  throw std::invalid_argument("unknown mobility model: " + name);
}

RoutingKind parse_routing(const std::string& name) {
  if (name == "none") return RoutingKind::kNone;
  if (name == "aodv") return RoutingKind::kAodv;
  throw std::invalid_argument("unknown routing protocol: " + name);
}

FlowPattern parse_flow_pattern(const std::string& name) {
  if (name == "one_hop") return FlowPattern::kOneHop;
  if (name == "any") return FlowPattern::kAny;
  throw std::invalid_argument("unknown flow pattern: " + name);
}

}  // namespace manet::net
