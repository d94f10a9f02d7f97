#include "src/shard/gather.h"

#include <algorithm>

#include "src/common/check.h"

namespace fpgadp::shard {

const char* GatherTopologyName(GatherTopology topology) {
  switch (topology) {
    case GatherTopology::kFlat: return "flat";
    case GatherTopology::kTree: return "tree";
    case GatherTopology::kSwitch: return "switch";
  }
  return "unknown";
}

bool ParseGatherTopology(const std::string& text, GatherTopology* out) {
  if (text == "flat") { *out = GatherTopology::kFlat; return true; }
  if (text == "tree") { *out = GatherTopology::kTree; return true; }
  if (text == "switch") { *out = GatherTopology::kSwitch; return true; }
  return false;
}

GatherPlan::GatherPlan(const GatherConfig& config, uint32_t num_shards,
                       uint32_t replicas)
    : config_(config), num_shards_(num_shards), replicas_(replicas) {
  FPGADP_CHECK(num_shards_ > 0);
  FPGADP_CHECK(config_.coordinator_ports > 0);
  FPGADP_CHECK(replicas_ > 0);
  if (replicas_ > 1) {
    // Tree and switch gather address peers by shard id; replica routing is
    // only defined for the flat response path.
    FPGADP_CHECK(config_.topology == GatherTopology::kFlat);
    // Scatter bundles address subtree members by shard id too, and the
    // replay-after-failover protocol re-posts individual slices.
    FPGADP_CHECK(config_.scatter == ScatterMode::kUnicast);
  }
  // Answers carry per-shard coverage as 64-bit masks on the wire
  // (Packet::addr / Packet::user2).
  FPGADP_CHECK(num_shards_ <= 64);
  if (config_.topology == GatherTopology::kTree ||
      config_.scatter == ScatterMode::kTree) {
    FPGADP_CHECK(config_.fanout > 0);
  }
}

void GatherPlan::Arm(uint64_t request_id,
                     const std::vector<SliceInfo>& slices,
                     uint64_t shared_bytes) {
  FPGADP_CHECK(config_.topology == GatherTopology::kTree ||
               config_.scatter == ScatterMode::kTree);
  FPGADP_CHECK(!slices.empty());
  FPGADP_CHECK(routes_.find(request_id) == routes_.end());
  std::map<uint32_t, Role>& route = routes_[request_id];
  // One heap-shaped fanout-ary tree per coordinator port, over the port's
  // members in ascending shard order.
  for (uint32_t port = 0; port < ports(); ++port) {
    std::vector<const SliceInfo*> group;
    for (size_t i = 0; i < slices.size(); ++i) {
      FPGADP_CHECK(i == 0 || slices[i - 1].shard < slices[i].shard);
      FPGADP_CHECK(slices[i].request_bytes >= shared_bytes);
      if (PortOf(slices[i].shard) == port) group.push_back(&slices[i]);
    }
    for (size_t i = 0; i < group.size(); ++i) {
      Role role;
      if (i == 0) {
        role.parent = kToCoordinator;
        role.port = port;
      } else {
        role.parent = group[(i - 1) / config_.fanout]->shard;
      }
      const size_t first_child = i * config_.fanout + 1;
      for (size_t c = first_child;
           c < first_child + config_.fanout && c < group.size(); ++c) {
        ++role.expected_children;
        role.down.push_back(group[c]->shard);
      }
      role.slice_bytes = group[i]->request_bytes;
      role.tag = group[i]->tag;
      // Seeded with the member's distinct bytes; the bottom-up pass below
      // folds in descendants, and the shared portion is added once per
      // bundle at the end.
      role.subtree_bytes = group[i]->request_bytes - shared_bytes;
      route[group[i]->shard] = role;
    }
    // Heap order guarantees parent index < child index, so one reverse
    // sweep accumulates subtree distinct bytes bottom-up.
    for (size_t i = group.size(); i-- > 1;) {
      route[group[(i - 1) / config_.fanout]->shard].subtree_bytes +=
          route[group[i]->shard].subtree_bytes;
    }
    for (const SliceInfo* s : group) {
      route[s->shard].subtree_bytes += shared_bytes;
    }
  }
}

void GatherPlan::Release(uint64_t request_id) { routes_.erase(request_id); }

const GatherPlan::Role* GatherPlan::RoleOf(uint64_t request_id,
                                           uint32_t shard) const {
  const auto it = routes_.find(request_id);
  if (it == routes_.end()) return nullptr;
  const auto rit = it->second.find(shard);
  return rit == it->second.end() ? nullptr : &rit->second;
}

bool GatherPlan::Upstream(uint64_t request_id, uint32_t shard,
                          Hop* hop) const {
  if (config_.topology != GatherTopology::kTree) {
    *hop = {PortNode(PortOf(shard)), 0};
    return true;
  }
  const Role* role = RoleOf(request_id, shard);
  if (role == nullptr) return false;
  hop->dst = role->parent == kToCoordinator ? PortNode(role->port)
                                            : ShardNode(role->parent);
  hop->children = role->expected_children;
  return true;
}

}  // namespace fpgadp::shard
