#include "src/shard/topology_planner.h"

#include <algorithm>
#include <vector>

#include "src/common/check.h"
#include "src/shard/shard.h"

namespace fpgadp::shard {

namespace {

uint64_t CeilDiv(uint64_t a, uint64_t b) { return (a + b - 1) / b; }

/// Forwarding levels below the root of a `members`-node array-heap tree
/// with `fanout` children per node (0 when the root is alone).
uint64_t TreeDepth(uint64_t members, uint64_t fanout) {
  uint64_t depth = 0;
  uint64_t covered = 1;
  uint64_t level = 1;
  while (covered < members) {
    level *= fanout;
    covered += level;
    ++depth;
  }
  return depth;
}

}  // namespace

uint64_t TopologyPlanner::WireCycles(const PlannerInputs& in,
                                     uint64_t payload_bytes) {
  return CeilDiv((payload_bytes + in.header_bytes) * 16,
                 in.bytes_per_cycle_x16);
}

TopologyDecision TopologyPlanner::Choose(const PlannerInputs& in) {
  FPGADP_CHECK(in.num_shards > 0);
  FPGADP_CHECK(in.max_ports > 0);
  FPGADP_CHECK(in.fanout > 0);
  FPGADP_CHECK(in.bytes_per_cycle_x16 > 0);
  FPGADP_CHECK(in.shrink_pct <= 100);

  const uint64_t s = in.num_shards;
  const uint32_t ports = std::min(in.max_ports, in.num_shards);
  const uint64_t group = CeilDiv(s, ports);  // shards per coordinator port

  auto make = [&](GatherTopology topo, uint32_t nports) {
    GatherConfig g;
    g.topology = topo;
    g.coordinator_ports = nports;
    g.fanout = in.fanout;
    g.merge_cycles_per_input = in.merge_cycles_per_input;
    g.switch_combine_cycles = in.switch_combine_cycles;
    return g;
  };

  const uint64_t serve = in.service_estimate_cycles;

  // Compute-bound short-circuit: the root uplink is mostly idle, so no
  // amount of response-path engineering moves the finish line. What can:
  // balancing the scatter, when the per-shard service estimates say the
  // partitioner left some shards far hotter than the mean.
  if (in.root_uplink_occupancy_pct < kComputeBoundPct) {
    TopologyDecision d;
    d.gather = make(GatherTopology::kFlat, 1);
    d.cost_cycles = serve + in.wire_estimate_cycles;
    d.balance_scatter = in.service_estimate_mean_cycles > 0 &&
                        serve * 100 > in.service_estimate_mean_cycles * 110;
    d.rationale = "flat: root uplink " +
                  std::to_string(in.root_uplink_occupancy_pct) +
                  "% busy, compute-bound" +
                  (d.balance_scatter ? ", balance scatter (slowest shard >1.1x mean)"
                                     : "");
    return d;
  }

  const uint64_t req_wire = WireCycles(in, in.request_bytes);
  const uint64_t resp_wire = WireCycles(in, in.response_bytes);
  // Merged subtree/port response: `group` concatenated slices, shrunk by
  // the workload's merge (top-k caps ANNS; multi-get concatenates).
  const uint64_t merged_bytes =
      group * in.response_bytes * in.shrink_pct / 100;
  const uint64_t merged_wire = WireCycles(in, merged_bytes);
  const uint64_t depth = TreeDepth(group, in.fanout);

  struct Candidate {
    GatherConfig gather;
    uint64_t cost = 0;
    const char* why = nullptr;
  };
  std::vector<Candidate> ranked;

  // Flat, one port: every request and response serializes through a
  // single endpoint pair.
  ranked.push_back({make(GatherTopology::kFlat, 1),
                    std::max({serve, s * resp_wire, s * req_wire}),
                    "single endpoint"});
  // Flat-N: same shape, `ports` times the line rate on both directions.
  if (ports > 1) {
    ranked.push_back({make(GatherTopology::kFlat, ports),
                      std::max({serve, group * resp_wire, group * req_wire}),
                      "per-port fan-in"});
  }
  // Switch: responses combine in-network; the port receives one merged
  // packet after the combiner folds the group's contributions.
  if (in.switch_available) {
    ranked.push_back(
        {make(GatherTopology::kSwitch, ports),
         std::max({serve, group * in.switch_combine_cycles + merged_wire,
                   group * req_wire}),
         "in-switch combine"});
  }
  // Tree: one merged packet per port too, but interior shards pay the
  // merge and each level adds a forwarding hop. Requests can ride the
  // same tree as multicast bundles when slices share bytes.
  {
    const uint64_t distinct =
        in.request_bytes - std::min(in.shared_request_bytes, in.request_bytes);
    const uint64_t bundle_wire =
        WireCycles(in, in.shared_request_bytes + group * distinct);
    const bool multicast = in.shared_request_bytes > 0 && group > 1 &&
                           bundle_wire < group * req_wire;
    const uint64_t req_egress = multicast ? bundle_wire : group * req_wire;
    Candidate tree{make(GatherTopology::kTree, ports),
                   std::max({serve, merged_wire, req_egress}) +
                       depth * (in.fanout * in.merge_cycles_per_input +
                                merged_wire),
                   multicast ? "tree merge + multicast scatter"
                             : "tree merge"};
    if (multicast) tree.gather.scatter = ScatterMode::kTree;
    ranked.push_back(tree);
  }

  // Stable ranking: candidates were pushed simplest-first, and min_element
  // keeps the earliest of equals — the flat < flat-N < switch < tree
  // tie-break.
  const Candidate& best = *std::min_element(
      ranked.begin(), ranked.end(),
      [](const Candidate& a, const Candidate& b) { return a.cost < b.cost; });

  TopologyDecision d;
  d.gather = best.gather;
  d.cost_cycles = best.cost + in.wire_estimate_cycles;
  d.rationale = std::string(GatherTopologyName(best.gather.topology)) + "x" +
                std::to_string(best.gather.coordinator_ports) + ": " +
                best.why + ", modeled " + std::to_string(best.cost) +
                " cycles/request";
  return d;
}

PlannerInputs HarvestPlannerInputs(const ShardCoordinator& coord,
                                   Workload& workload, uint32_t num_shards,
                                   uint64_t elapsed_cycles,
                                   uint64_t probe_request) {
  PlannerInputs in;
  in.num_shards = num_shards;
  in.request_bytes = coord.avg_request_bytes();
  in.shared_request_bytes = workload.ScatterSharedBytes(probe_request);
  in.response_bytes = coord.avg_response_bytes();
  uint64_t max_est = 0, sum_est = 0;
  for (uint32_t s = 0; s < num_shards; ++s) {
    const uint64_t est = coord.service_estimate(s);
    max_est = std::max(max_est, est);
    sum_est += est;
  }
  in.service_estimate_cycles = max_est;
  in.service_estimate_mean_cycles = sum_est / num_shards;
  in.wire_estimate_cycles = coord.wire_estimate();
  const uint64_t concat = uint64_t(num_shards) * in.response_bytes;
  const uint64_t full_mask =
      num_shards >= 64 ? ~0ull : (1ull << num_shards) - 1;
  const uint64_t merged =
      concat == 0 ? 0
                  : workload.MergedBytes(probe_request, full_mask, concat);
  in.shrink_pct =
      concat == 0
          ? 100
          : uint32_t(std::min<uint64_t>(100, merged * 100 / concat));
  // Root-uplink occupancy: serialization cycles over elapsed, counting
  // BOTH directions — each served slice crossed the egress once (request)
  // and the ingress once (response); a request-heavy mix (fat multi-get
  // slices) is just as wire-bound as a response-heavy one. NOT the
  // fabric's rx-busy gauge, which counts propagation latency and
  // saturates even when the port's line rate is mostly idle.
  const uint64_t ser =
      coord.responses_observed() *
      (TopologyPlanner::WireCycles(in, in.response_bytes) +
       TopologyPlanner::WireCycles(in, in.request_bytes));
  in.root_uplink_occupancy_pct =
      elapsed_cycles == 0
          ? 100
          : uint32_t(std::min<uint64_t>(100, ser * 100 / elapsed_cycles));
  return in;
}

}  // namespace fpgadp::shard
