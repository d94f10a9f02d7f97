#include "src/shard/workloads.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/common/parallel.h"

namespace fpgadp::shard {

namespace {

/// (distance, id) ascending — the exact order IvfPqIndex::Search returns,
/// so a sharded merge is indistinguishable from a single-node scan.
bool NeighborLess(const anns::Neighbor& a, const anns::Neighbor& b) {
  return a.distance < b.distance ||
         (a.distance == b.distance && a.id < b.id);
}

}  // namespace

class AnnsTopKWorkload::SliceScan final : public Task {
 public:
  SliceScan(const anns::IvfPqIndex* index, const float* query,
            std::vector<uint32_t> lists, size_t k, size_t answer_size)
      : answer_size(answer_size),
        index_(index),
        query_(query, query + index->dim()),
        lists_(std::move(lists)),
        k_(k) {}

  /// min(k, codes in the lists): the size Serve charged for.
  const size_t answer_size;
  /// The slice's top-k, closest first; read it only after Wait().
  std::vector<anns::Neighbor> answer;

 private:
  void Run() override { answer = index_->SearchLists(query_.data(), lists_, k_); }

  const anns::IvfPqIndex* index_;
  std::vector<float> query_;
  std::vector<uint32_t> lists_;
  size_t k_;
};

AnnsTopKWorkload::AnnsTopKWorkload(const anns::IvfPqIndex* index,
                                   Partitioner partitioner,
                                   const Config& config)
    : index_(index), partitioner_(std::move(partitioner)), config_(config) {
  FPGADP_CHECK(index_ != nullptr);
  FPGADP_CHECK(config_.k > 0);
  FPGADP_CHECK(config_.nprobe > 0);
  FPGADP_CHECK(config_.scan_lanes > 0);
  // Balanced placement ignores the ownership map, which live resharding
  // (range scheme) depends on to re-route slices mid-flight.
  FPGADP_CHECK(!(config_.balance_scatter &&
                 partitioner_.scheme() == PartitionScheme::kRange));
}

AnnsTopKWorkload::~AnnsTopKWorkload() {
  // Every scan reads index_, which the caller may free once this returns.
  for (auto& [key, scan] : scans_) scan->Wait();
  for (const std::shared_ptr<SliceScan>& scan : dropped_) scan->Wait();
}

void AnnsTopKWorkload::Drop(std::shared_ptr<SliceScan> scan) {
  std::erase_if(dropped_, [](const std::shared_ptr<SliceScan>& s) {
    return s->done();
  });
  if (!scan->done()) dropped_.push_back(std::move(scan));
}

uint64_t AnnsTopKWorkload::AddQuery(const float* query) {
  queries_.insert(queries_.end(), query, query + index_->dim());
  return queries_.size() / index_->dim() - 1;
}

const float* AnnsTopKWorkload::Query(uint64_t request_id) const {
  return queries_.data() + request_id * index_->dim();
}

const std::vector<anns::Neighbor>& AnnsTopKWorkload::result(
    uint64_t request_id) const {
  return results_.at(request_id);
}

std::vector<SubRequest> AnnsTopKWorkload::Scatter(uint64_t request_id) {
  const std::vector<uint32_t> probes =
      index_->SelectProbes(Query(request_id), config_.nprobe);
  std::map<uint32_t, std::vector<uint32_t>> by_shard;
  if (config_.balance_scatter) {
    // Greedy LPT over the same per-list cost Serve charges: heaviest list
    // first, each to the least-loaded shard. The ledger persists across
    // requests, so a hot list probed every query rotates rather than
    // pinning one shard.
    struct ListCost {
      uint64_t cost = 0;
      uint32_t list = 0;
    };
    std::vector<ListCost> costs;
    costs.reserve(probes.size());
    for (uint32_t list : probes) {
      const uint64_t codes = index_->list(list).ids.size();
      costs.push_back(
          {config_.lut_cycles_per_list +
               (codes + config_.scan_lanes - 1) / config_.scan_lanes,
           list});
    }
    std::sort(costs.begin(), costs.end(),
              [](const ListCost& a, const ListCost& b) {
                return a.cost > b.cost ||
                       (a.cost == b.cost && a.list < b.list);
              });
    if (shard_load_.size() != partitioner_.num_shards()) {
      shard_load_.assign(partitioner_.num_shards(), 0);
    }
    for (const ListCost& lc : costs) {
      uint32_t best = 0;
      for (uint32_t s = 1; s < shard_load_.size(); ++s) {
        if (shard_load_[s] < shard_load_[best]) best = s;
      }
      by_shard[best].push_back(lc.list);
      shard_load_[best] += lc.cost;
    }
    for (auto& [shard, lists] : by_shard) {
      std::sort(lists.begin(), lists.end());
    }
  } else {
    for (uint32_t list : probes) {
      by_shard[partitioner_.ShardOf(list)].push_back(list);
    }
  }
  std::vector<SubRequest> subs;
  subs.reserve(by_shard.size());
  for (auto& [shard, lists] : by_shard) {
    SubRequest sr;
    sr.shard = shard;
    // The query vector plus the probed list ids travel to the shard.
    sr.request_bytes = index_->dim() * sizeof(float) +
                       lists.size() * sizeof(uint32_t);
    plan_[{request_id, shard}] = std::move(lists);
    subs.push_back(sr);
  }
  return subs;
}

Service AnnsTopKWorkload::Serve(uint32_t shard, uint64_t request_id) {
  const auto plan_it = plan_.find({request_id, shard});
  if (plan_it == plan_.end()) {
    // Stale serve: the gather already finalized (deadline or failover
    // replay raced a late response) and Merge released the plan. Nothing
    // is listening; charge the minimum occupancy and move on.
    return Service{1, 0};
  }
  const std::vector<uint32_t>& lists = plan_it->second;
  uint64_t codes = 0;
  for (uint32_t list : lists) codes += index_->list(list).ids.size();
  // SearchLists keeps every code while it holds fewer than k, so the answer
  // has min(k, codes) neighbours whatever the query: the cost below needs
  // no scan, and the scan can run while the engine moves on.
  const size_t answer_size = std::min<uint64_t>(config_.k, codes);
  auto scan = std::make_shared<SliceScan>(index_, Query(request_id), lists,
                                          config_.k, answer_size);
  Submit(scan);
  std::shared_ptr<SliceScan>& slot = scans_[{request_id, shard}];
  if (slot != nullptr) Drop(std::move(slot));  // a failover replay
  slot = std::move(scan);
  Service svc;
  // FANNS-shaped shard cost: one LUT build per probed list, then the ADC
  // scan retires scan_lanes codes per cycle.
  svc.compute_cycles =
      uint64_t(config_.lut_cycles_per_list) * lists.size() +
      (codes + config_.scan_lanes - 1) / config_.scan_lanes;
  svc.response_bytes = answer_size * sizeof(anns::Neighbor);
  return svc;
}

uint64_t AnnsTopKWorkload::ScatterSharedBytes(uint64_t request_id) {
  (void)request_id;
  return index_->dim() * sizeof(float);
}

uint64_t AnnsTopKWorkload::MergedBytes(uint64_t request_id,
                                       uint64_t done_mask,
                                       uint64_t concat_bytes) {
  (void)request_id;
  (void)done_mask;
  return std::min<uint64_t>(concat_bytes,
                            config_.k * sizeof(anns::Neighbor));
}

void AnnsTopKWorkload::Merge(uint64_t request_id,
                             const PartialOutcome& outcome) {
  std::vector<anns::Neighbor> merged;
  for (const PartialOutcome::Slice& slice : outcome.slices) {
    const auto key = std::make_pair(request_id, slice.shard);
    const auto it = scans_.find(key);
    if (it != scans_.end()) {
      if (slice.outcome == SubOutcome::kDone) {
        SliceScan& scan = *it->second;
        scan.Wait();
        // The simulation already carried answer_size neighbours' bytes.
        FPGADP_CHECK(scan.answer.size() == scan.answer_size);
        merged.insert(merged.end(), scan.answer.begin(), scan.answer.end());
      } else {
        Drop(std::move(it->second));
      }
      scans_.erase(it);
    }
    plan_.erase(key);
  }
  std::sort(merged.begin(), merged.end(), NeighborLess);
  if (merged.size() > config_.k) merged.resize(config_.k);
  results_[request_id] = std::move(merged);
}

uint32_t AnnsTopKWorkload::SliceOwner(uint32_t shard, uint64_t request_id) {
  if (partitioner_.scheme() != PartitionScheme::kRange) return shard;
  const auto it = plan_.find({request_id, shard});
  if (it == plan_.end() || it->second.empty()) return shard;
  const uint32_t owner = partitioner_.ShardOf(it->second.front());
  for (uint32_t list : it->second) {
    if (partitioner_.ShardOf(list) != owner) return shard;  // split slice
  }
  return owner;
}

void AnnsTopKWorkload::CommitMigration(const MigrationPlan& plan) {
  FPGADP_CHECK(partitioner_.scheme() == PartitionScheme::kRange);
  FPGADP_CHECK(
      partitioner_.RangeOwnedBy(plan.range_lo, plan.range_hi, plan.source));
  partitioner_.MoveRange(plan.range_lo, plan.range_hi, plan.target);
}

KvsMultiGetWorkload::KvsMultiGetWorkload(Partitioner partitioner,
                                         const Config& config)
    : partitioner_(std::move(partitioner)), config_(config) {
  stores_.resize(partitioner_.num_shards());
}

void KvsMultiGetWorkload::Load(uint64_t key, uint64_t value) {
  stores_[partitioner_.ShardOf(key)][key] = value;
}

uint64_t KvsMultiGetWorkload::AddMultiGet(std::vector<uint64_t> keys) {
  FPGADP_CHECK(!keys.empty());
  requests_.push_back(std::move(keys));
  return requests_.size() - 1;
}

const std::vector<KvsMultiGetWorkload::GetResult>&
KvsMultiGetWorkload::result(uint64_t request_id) const {
  return results_.at(request_id);
}

std::vector<SubRequest> KvsMultiGetWorkload::Scatter(uint64_t request_id) {
  std::map<uint32_t, std::vector<uint64_t>> by_shard;
  for (uint64_t key : requests_[request_id]) {
    by_shard[partitioner_.ShardOf(key)].push_back(key);
  }
  std::vector<SubRequest> subs;
  subs.reserve(by_shard.size());
  for (auto& [shard, keys] : by_shard) {
    SubRequest sr;
    sr.shard = shard;
    sr.request_bytes = keys.size() * uint64_t(config_.key_bytes);
    plan_[{request_id, shard}] = std::move(keys);
    subs.push_back(sr);
  }
  return subs;
}

Service KvsMultiGetWorkload::Serve(uint32_t shard, uint64_t request_id) {
  const auto plan_it = plan_.find({request_id, shard});
  if (plan_it == plan_.end()) {
    // Stale serve after the gather finalized and released its plan (see
    // AnnsTopKWorkload::Serve).
    return Service{1, 0};
  }
  const std::vector<uint64_t>& keys = plan_it->second;
  auto& hits = partials_[{request_id, shard}];
  for (uint64_t key : keys) {
    // Each key reads from the store that owns it under the current routing
    // table — after a migration flip that may no longer be `shard`'s.
    const auto& store = stores_[partitioner_.ShardOf(key)];
    const auto it = store.find(key);
    if (it != store.end()) hits.emplace(key, it->second);
  }
  Service svc;
  // The NIC DRAM pipeline fills once, then retires one bucket line per op
  // at bus occupancy — the same facts SmartNicKvs charges per request.
  svc.compute_cycles =
      kvs::SmartNicKvs::DramLatencyCycles(config_.nic) +
      uint64_t(std::ceil(double(keys.size()) *
                         kvs::SmartNicKvs::DramCyclesPerOp(config_.nic)));
  svc.response_bytes = keys.size() * 8 +
                       uint64_t(hits.size()) * config_.nic.value_bytes;
  return svc;
}

void KvsMultiGetWorkload::Merge(uint64_t request_id,
                                const PartialOutcome& outcome) {
  std::map<uint32_t, SubOutcome> shard_outcome;
  for (const PartialOutcome::Slice& slice : outcome.slices) {
    shard_outcome[slice.shard] = slice.outcome;
  }
  // Each key's slice is the one Scatter put it in — recorded in the plan,
  // NOT re-derived from the live partitioner, which may have flipped
  // ownership mid-request during a migration.
  std::unordered_map<uint64_t, uint32_t> key_slice;
  for (const PartialOutcome::Slice& slice : outcome.slices) {
    const auto it = plan_.find({request_id, slice.shard});
    if (it == plan_.end()) continue;
    for (uint64_t key : it->second) key_slice[key] = slice.shard;
  }
  std::vector<GetResult> merged;
  merged.reserve(requests_[request_id].size());
  for (uint64_t key : requests_[request_id]) {
    const uint32_t shard = key_slice.at(key);
    GetResult r;
    r.key = key;
    const auto oc = shard_outcome.find(shard);
    r.served = oc != shard_outcome.end() && oc->second == SubOutcome::kDone;
    if (r.served) {
      const auto& hits = partials_[{request_id, shard}];
      const auto hit = hits.find(key);
      if (hit != hits.end()) {
        r.hit = true;
        r.value = hit->second;
      }
    }
    merged.push_back(r);
  }
  for (const PartialOutcome::Slice& slice : outcome.slices) {
    partials_.erase({request_id, slice.shard});
    plan_.erase({request_id, slice.shard});
  }
  results_[request_id] = std::move(merged);
}

uint32_t KvsMultiGetWorkload::SliceOwner(uint32_t shard,
                                         uint64_t request_id) {
  if (partitioner_.scheme() != PartitionScheme::kRange) return shard;
  const auto it = plan_.find({request_id, shard});
  if (it == plan_.end() || it->second.empty()) return shard;
  const uint32_t owner = partitioner_.ShardOf(it->second.front());
  for (uint64_t key : it->second) {
    if (partitioner_.ShardOf(key) != owner) return shard;  // split slice
  }
  return owner;
}

void KvsMultiGetWorkload::CommitMigration(const MigrationPlan& plan) {
  FPGADP_CHECK(partitioner_.scheme() == PartitionScheme::kRange);
  FPGADP_CHECK(
      partitioner_.RangeOwnedBy(plan.range_lo, plan.range_hi, plan.source));
  auto& src = stores_[plan.source];
  auto& dst = stores_[plan.target];
  for (auto it = src.begin(); it != src.end();) {
    if (it->first >= plan.range_lo && it->first <= plan.range_hi) {
      dst[it->first] = it->second;
      it = src.erase(it);
    } else {
      ++it;
    }
  }
  partitioner_.MoveRange(plan.range_lo, plan.range_hi, plan.target);
}

HashJoinWorkload::HashJoinWorkload(const rel::Table* build,
                                   const rel::Table* probe,
                                   const rel::JoinSpec& spec,
                                   Partitioner partitioner,
                                   const Config& config)
    : build_(build), probe_(probe), spec_(spec),
      partitioner_(std::move(partitioner)), config_(config) {
  FPGADP_CHECK(build_ != nullptr);
  FPGADP_CHECK(probe_ != nullptr);
}

std::vector<SubRequest> HashJoinWorkload::Scatter(uint64_t request_id) {
  FPGADP_CHECK(request_id == 0);
  const uint32_t n = partitioner_.num_shards();
  build_parts_.assign(n, rel::Table(build_->schema()));
  probe_parts_.assign(n, rel::Table(probe_->schema()));
  for (const rel::Row& r : build_->rows()) {
    build_parts_[partitioner_.ShardOf(uint64_t(r.Get(spec_.left_key)))]
        .Append(r);
  }
  for (const rel::Row& r : probe_->rows()) {
    probe_parts_[partitioner_.ShardOf(uint64_t(r.Get(spec_.right_key)))]
        .Append(r);
  }

  // The joined schema: left's fields then right's, truncated the way
  // HashJoinCpu/HashJoinFpga truncate (kMaxColumns-wide tuples).
  std::vector<rel::Field> fields = build_->schema().fields();
  for (const rel::Field& f : probe_->schema().fields()) {
    if (fields.size() >= rel::kMaxColumns) break;
    fields.push_back(f);
  }
  const rel::Schema out_schema{fields};
  result_ = rel::Table(out_schema);

  // Each shard's local build+probe runs here as a nested pipeline
  // simulation (Scatter executes outside any engine tick), so Serve only
  // replays the precomputed cost from inside the cluster.
  outputs_.assign(n, rel::Table(out_schema));
  services_.assign(n, Service{});
  std::vector<SubRequest> subs;
  subs.reserve(n);
  for (uint32_t s = 0; s < n; ++s) {
    if (build_parts_[s].num_rows() == 0 || probe_parts_[s].num_rows() == 0) {
      services_[s] = Service{1, 0};  // no matches possible, pipeline no-op
    } else {
      auto stats = rel::HashJoinFpga(build_parts_[s], probe_parts_[s], spec_,
                                     config_.fpga);
      FPGADP_CHECK(stats.ok());
      services_[s] = Service{stats->cycles, stats->output.total_bytes()};
      outputs_[s] = std::move(stats->output);
    }
    SubRequest sr;
    sr.shard = s;
    sr.request_bytes =
        build_parts_[s].total_bytes() + probe_parts_[s].total_bytes();
    subs.push_back(sr);
  }
  return subs;
}

Service HashJoinWorkload::Serve(uint32_t shard, uint64_t) {
  return services_[shard];
}

void HashJoinWorkload::Merge(uint64_t, const PartialOutcome& outcome) {
  for (const PartialOutcome::Slice& slice : outcome.slices) {
    if (slice.outcome != SubOutcome::kDone) continue;
    for (const rel::Row& r : outputs_[slice.shard].rows()) result_.Append(r);
  }
}

}  // namespace fpgadp::shard
