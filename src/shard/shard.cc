#include "src/shard/shard.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/net/agg_switch.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace fpgadp::shard {

namespace {
// Forwarded kOffloadReq marker (Packet::addr): bit 63 set, low bits = the
// slice's original scatter shard. Ordinary flat-gather requests carry
// addr = 0, so the flag cannot collide.
constexpr uint64_t kForwardFlag = 1ull << 63;
// Scatter-tree bundle marker (Packet::addr): bit 62 set. Migration
// forwarding (kForwardFlag) requires unicast scatter and bundles require
// tree scatter, so the two flags never meet on one packet.
constexpr uint64_t kScatterFlag = 1ull << 62;
}  // namespace

ShardCoordinator::ShardCoordinator(std::string name, Workload* workload,
                                   std::vector<net::RdmaEndpoint*> endpoints,
                                   GatherPlan* plan,
                                   net::AggregatingSwitch* agg_switch,
                                   uint32_t num_shards, const Config& config,
                                   ElasticState* elastic)
    : sim::Module(std::move(name)), workload_(workload),
      endpoints_(std::move(endpoints)), plan_(plan), agg_switch_(agg_switch),
      num_shards_(num_shards), config_(config), elastic_(elastic) {
  FPGADP_CHECK(workload_ != nullptr);
  FPGADP_CHECK(plan_ != nullptr);
  FPGADP_CHECK(elastic_ != nullptr);
  FPGADP_CHECK(endpoints_.size() == plan_->ports());
  for (net::RdmaEndpoint* ep : endpoints_) FPGADP_CHECK(ep != nullptr);
  FPGADP_CHECK((agg_switch_ != nullptr) ==
               (plan_->topology() == GatherTopology::kSwitch));
  FPGADP_CHECK(num_shards_ > 0);
  FPGADP_CHECK(config_.window > 0);
  FPGADP_CHECK(config_.feasibility_headroom_pct > 0 &&
               config_.feasibility_headroom_pct <= 100);
  // NextEventCycle covers queued slices, gather and beacon deadlines; the
  // endpoints wake the coordinator on every delivery; and ingress (Submit /
  // TrySubmit via Enqueue) self-wakes. A skipped window is a run of
  // no-progress ticks, which AttributeSkip reproduces.
  for (net::RdmaEndpoint* ep : endpoints_) ep->SetWakeListener(this);
  shard_queue_.resize(num_shards_);
  in_flight_.assign(num_shards_, 0);
  queue_hwm_.assign(num_shards_, 0);
  svc_est_x16_.assign(num_shards_,
                      config_.initial_service_estimate_cycles << 4);
  pending_cost_.assign(num_shards_, 0);
  wire_est_ = config_.initial_wire_estimate_cycles;
  FPGADP_CHECK(elastic_->replicas.num_shards() == num_shards_);
  FPGADP_CHECK(elastic_->replicas.replication_factor() == plan_->replicas());
}

void ShardCoordinator::Submit(uint64_t request_id) {
  const std::vector<SubRequest> subs = workload_->Scatter(request_id);
  Enqueue(request_id, subs);
}

uint64_t ShardCoordinator::EstimateFor(const SubRequest& sub) const {
  return sub.est_service_cycles > 0 ? sub.est_service_cycles
                                    : svc_est_x16_[sub.shard] >> 4;
}

bool ShardCoordinator::TrySubmit(uint64_t request_id,
                                 const std::vector<SubRequest>& subs,
                                 uint64_t deadline_budget_cycles) {
  switch (config_.admission) {
    case AdmissionPolicy::kQueueDepth:
      if (config_.max_pending > 0 && active_.size() >= config_.max_pending) {
        ++ingress_shed_;
        return false;
      }
      break;
    case AdmissionPolicy::kDeadlineFeasible: {
      const uint64_t budget =
          deadline_budget_cycles * config_.feasibility_headroom_pct / 100;
      for (const SubRequest& sr : subs) {
        FPGADP_CHECK(sr.shard < num_shards_);
        const uint64_t eta =
            wire_est_ + pending_cost_[sr.shard] + EstimateFor(sr);
        if (eta > budget) {
          ++ingress_shed_;
          return false;
        }
      }
      break;
    }
  }
  Enqueue(request_id, subs);
  return true;
}

void ShardCoordinator::Enqueue(uint64_t request_id,
                               const std::vector<SubRequest>& subs) {
  // Wake BEFORE mutating: if the coordinator was sleeping, its skipped
  // cycles are attributed against the pre-enqueue state the serial loop
  // would have observed (see Module::WakeUp).
  WakeUp();
  FPGADP_CHECK(active_.find(request_id) == active_.end());
  FPGADP_CHECK(!subs.empty());
  const bool scatter_tree =
      plan_->config().scatter == ScatterMode::kTree;
  Active a;
  a.subs.reserve(subs.size());
  for (const SubRequest& sr : subs) {
    FPGADP_CHECK(sr.shard < num_shards_);
    Sub sub;
    sub.shard = sr.shard;
    sub.bytes = sr.request_bytes;
    sub.tag = next_tag_++;
    sub.est_cycles = EstimateFor(sr);
    pending_cost_[sr.shard] += sub.est_cycles;
    tag_map_[sub.tag] = {request_id, a.subs.size()};
    req_bytes_total_ += sub.bytes;
    ++req_slices_;
    a.subs.push_back(sub);
  }
  // Arm the response / scatter routes before the first slice can ship.
  if (plan_->topology() == GatherTopology::kTree || scatter_tree) {
    std::vector<GatherPlan::SliceInfo> slices;
    slices.reserve(a.subs.size());
    for (const Sub& sub : a.subs) {
      slices.push_back({sub.shard, sub.bytes, sub.tag});
    }
    std::sort(slices.begin(), slices.end(),
              [](const GatherPlan::SliceInfo& x,
                 const GatherPlan::SliceInfo& y) { return x.shard < y.shard; });
    const uint64_t shared =
        scatter_tree ? workload_->ScatterSharedBytes(request_id) : 0;
    plan_->Arm(request_id, slices, shared);
  }
  if (agg_switch_ != nullptr) {
    std::vector<uint64_t> masks(plan_->ports(), 0);
    for (const Sub& sub : a.subs) {
      masks[plan_->PortOf(sub.shard)] |= 1ull << sub.shard;
    }
    for (uint32_t port = 0; port < plan_->ports(); ++port) {
      if (masks[port] != 0) {
        agg_switch_->Arm(request_id, plan_->PortNode(port), masks[port]);
      }
    }
  }
  // Queue slices for shipping: every slice under unicast scatter; only
  // each port-group's root under tree scatter — descendants ride the
  // root's bundle and never occupy a window slot of their own.
  for (size_t i = 0; i < a.subs.size(); ++i) {
    Sub& sub = a.subs[i];
    if (scatter_tree) {
      const GatherPlan::Role* role = plan_->RoleOf(request_id, sub.shard);
      sub.windowed = role->parent == GatherPlan::kToCoordinator;
      if (!sub.windowed) continue;
    }
    shard_queue_[sub.shard].push_back({request_id, i});
    ++total_queued_;
    queue_hwm_[sub.shard] =
        std::max(queue_hwm_[sub.shard], shard_queue_[sub.shard].size());
  }
  active_.emplace(request_id, std::move(a));
}

void ShardCoordinator::ObserveService(uint32_t shard, uint64_t service_cycles,
                                      uint64_t rtt_cycles) {
  // Integer EWMA, alpha = 1/8, in 4-bit fixed point: deterministic across
  // platforms and cheap enough for the response path.
  const int64_t obs_x16 = static_cast<int64_t>(service_cycles << 4);
  int64_t est = static_cast<int64_t>(svc_est_x16_[shard]);
  est += (obs_x16 - est) / 8;
  svc_est_x16_[shard] = static_cast<uint64_t>(est < 16 ? 16 : est);
  // rtt - service still contains shard queue wait; taking the minimum over
  // responses converges on the uncongested wire round trip (the queue term
  // is costed separately via pending_cost_).
  const uint64_t wire =
      rtt_cycles > service_cycles ? rtt_cycles - service_cycles : 0;
  if (!wire_seen_ || wire < wire_est_) {
    wire_est_ = wire;
    wire_seen_ = true;
  }
}

uint32_t ShardCoordinator::PrimaryNode(uint32_t shard) const {
  return plan_->ReplicaNode(shard, elastic_->replicas.Primary(shard));
}

bool ShardCoordinator::CanFailover(uint32_t shard) const {
  return elastic_->replicas.CanPromote(shard);
}

void ShardCoordinator::TraceElastic(const std::string& what,
                                    sim::Cycle cycle) {
  if (trace_writer() == nullptr) return;
  trace_writer()->Instant(trace_pid(), trace_tid(), what, cycle);
}

void ShardCoordinator::FailoverShard(uint32_t shard, sim::Cycle cycle) {
  ReplicaSet& replicas = elastic_->replicas;
  const uint32_t old_primary = replicas.Primary(shard);
  FPGADP_CHECK(replicas.Promote(shard));
  ++failovers_;
  TraceElastic("failover.shard" + std::to_string(shard) + " r" +
                   std::to_string(old_primary) + "->r" +
                   std::to_string(replicas.Primary(shard)),
               cycle);
  // Replay every sent, unresolved slice to the new primary under a fresh
  // tag. The old tags die with the old primary: late completions and
  // responses miss tag_map_ and drop, so at-least-once delivery can repeat
  // Serve (idempotent per request id) but never double-resolve a slice.
  const uint32_t node = PrimaryNode(shard);
  for (auto& [request_id, a] : active_) {
    for (size_t i = 0; i < a.subs.size(); ++i) {
      Sub& sub = a.subs[i];
      if (sub.shard != shard || !sub.sent ||
          sub.outcome != SubOutcome::kPending) {
        continue;
      }
      tag_map_.erase(sub.tag);
      sub.tag = next_tag_++;
      tag_map_[sub.tag] = {request_id, i};
      sub.sent_at = cycle;  // the RTT estimator restarts with the replay
      net::Packet p;
      p.dst = node;
      p.kind = net::OpKind::kOffloadReq;
      p.tag = sub.tag;
      p.user = request_id;
      p.bytes = sub.bytes;
      endpoints_[plan_->PortOf(shard)]->PostPacket(p);
      ++replayed_slices_;
    }
  }
}

void ShardCoordinator::CheckBeacons(sim::Cycle cycle) {
  const uint64_t timeout = elastic_->config.beacon_timeout_cycles;
  ReplicaSet& replicas = elastic_->replicas;
  for (uint32_t s = 0; s < num_shards_; ++s) {
    for (uint32_t r = 0; r < replicas.replication_factor(); ++r) {
      if (!replicas.alive(s, r)) continue;
      if (cycle < replicas.last_beacon(s, r) + timeout) continue;
      ++beacon_timeouts_;
      if (r == replicas.Primary(s) && replicas.CanPromote(s)) {
        FailoverShard(s, cycle);
      } else {
        // A silent standby (or a primary with nothing left to promote to)
        // is just marked dead; transport retry caps cover the rest.
        replicas.MarkDead(s, r);
        TraceElastic("beacon_dead.shard" + std::to_string(s) + " r" +
                         std::to_string(r),
                     cycle);
      }
    }
  }
}

void ShardCoordinator::StartMigration(const MigrationPlan& plan,
                                      sim::Cycle now) {
  FPGADP_CHECK(plan_->topology() == GatherTopology::kFlat);
  // Migration forwarding re-routes individual slices by shard; a subtree
  // bundle has no single re-route target.
  FPGADP_CHECK(plan_->config().scatter == ScatterMode::kUnicast);
  FPGADP_CHECK(plan.source < num_shards_ && plan.target < num_shards_);
  FPGADP_CHECK(plan.source != plan.target);
  FPGADP_CHECK(plan.state_bytes > 0 && plan.chunk_bytes > 0);
  FPGADP_CHECK(plan.range_lo <= plan.range_hi);
  // One active migration per shard: overlapping copies out of / into the
  // same store would race their flips.
  FPGADP_CHECK(!elastic_->Busy(plan.source) && !elastic_->Busy(plan.target));
  Migration m;
  m.plan = plan;
  m.seq = elastic_->next_migration_seq++;
  m.started_at = now;
  m.next_chunk_at = now;
  elastic_->migrations.push_back(m);
  net::Packet p;
  p.dst = PrimaryNode(plan.source);
  p.kind = net::OpKind::kMigrateStart;
  p.user = m.seq;
  endpoints_[plan_->PortOf(plan.source)]->PostPacket(p);
  TraceElastic("migration.start seq" + std::to_string(m.seq) + " shard" +
                   std::to_string(plan.source) + "->shard" +
                   std::to_string(plan.target),
               now);
}

void ShardCoordinator::HandleMigrateDone(const net::Packet& p,
                                         sim::Cycle cycle) {
  Migration* m = elastic_->Find(p.user);
  if (m == nullptr || m->phase != MigrationPhase::kCopy) return;
  // The flip point of the double-ownership window: from this tick on, new
  // scatters route to the target; requests scattered before it reach the
  // source, which forwards anything it no longer owns (SliceOwner).
  workload_->CommitMigration(m->plan);
  m->phase = MigrationPhase::kDrain;
  m->flipped_at = cycle;
  ++migrations_flipped_;
  TraceElastic("migration.flip seq" + std::to_string(m->seq), cycle);
  std::vector<uint64_t>& draining = migration_drain_[m->seq];
  for (const auto& [request_id, a] : active_) {
    draining.push_back(request_id);
  }
  if (draining.empty()) {
    m->phase = MigrationPhase::kDone;
    m->finished_at = cycle;
    migration_drain_.erase(m->seq);
    TraceElastic("migration.done seq" + std::to_string(m->seq), cycle);
  }
}

bool ShardCoordinator::PollOutcome(PartialOutcome* out) {
  if (outcomes_.empty()) return false;
  *out = std::move(outcomes_.front());
  outcomes_.pop_front();
  return true;
}

void ShardCoordinator::ReportService(uint64_t tag, uint64_t service_cycles,
                                     uint64_t response_bytes) {
  const auto it = tag_map_.find(tag);
  if (it == tag_map_.end()) return;
  Sub& sub = active_.find(it->second.first)->second.subs[it->second.second];
  sub.service_cycles = service_cycles;
  sub.response_bytes = response_bytes;
}

void ShardCoordinator::ResolveSub(uint64_t request_id, size_t sub_index,
                                  SubOutcome outcome, sim::Cycle cycle) {
  const auto it = active_.find(request_id);
  if (it == active_.end()) return;
  Active& a = it->second;
  Sub& sub = a.subs[sub_index];
  if (sub.outcome != SubOutcome::kPending) return;
  sub.outcome = outcome;
  ++a.resolved;
  tag_map_.erase(sub.tag);
  if (sub.sent && sub.windowed) --in_flight_[sub.shard];
  pending_cost_[sub.shard] -= std::min(pending_cost_[sub.shard],
                                       sub.est_cycles);
  if (a.resolved == a.subs.size()) Finalize(request_id, a, cycle);
}

void ShardCoordinator::Finalize(uint64_t request_id, Active& a,
                                sim::Cycle cycle) {
  PartialOutcome out;
  out.request_id = request_id;
  out.completed_at = cycle;
  out.slices.reserve(a.subs.size());
  uint32_t failed = 0, rejected = 0, timed_out = 0;
  for (const Sub& sub : a.subs) {
    out.slices.push_back({sub.shard, sub.outcome});
    switch (sub.outcome) {
      case SubOutcome::kDone: ++out.shards_done; break;
      case SubOutcome::kFailed: ++failed; break;
      case SubOutcome::kRejected: ++rejected; break;
      case SubOutcome::kTimedOut: ++timed_out; break;
      case SubOutcome::kPending: break;
    }
  }
  if (out.shards_done == out.shards_total()) {
    out.status = Status::OK();
  } else {
    const std::string detail =
        name() + ": request " + std::to_string(request_id) + ": " +
        std::to_string(out.shards_done) + "/" +
        std::to_string(out.shards_total()) + " slices done (" +
        std::to_string(failed) + " failed, " + std::to_string(rejected) +
        " rejected, " + std::to_string(timed_out) + " timed out)";
    // Failure ranking mirrors accl::PartialOutcome: a dead shard outranks
    // a missed deadline outranks load shedding.
    if (failed > 0) {
      out.status = Status::Unavailable(detail);
    } else if (timed_out > 0) {
      out.status = Status::Timeout(detail);
    } else {
      out.status = Status::ResourceExhausted(detail);
    }
  }
  ++gathers_completed_;
  if (out.degraded()) ++gathers_degraded_;
  workload_->Merge(request_id, out);
  // Wake the poller BEFORE the outcome lands (see Module::WakeUp).
  if (outcome_listener_ != nullptr) outcome_listener_->WakeUp();
  outcomes_.push_back(std::move(out));
  active_.erase(request_id);
  // Drain bookkeeping: a kDrain migration completes when every request
  // that was active at its flip has finalized.
  for (auto it = migration_drain_.begin(); it != migration_drain_.end();) {
    std::vector<uint64_t>& ids = it->second;
    const auto pos = std::find(ids.begin(), ids.end(), request_id);
    if (pos != ids.end()) ids.erase(pos);
    if (ids.empty()) {
      Migration* m = elastic_->Find(it->first);
      m->phase = MigrationPhase::kDone;
      m->finished_at = cycle;
      TraceElastic("migration.done seq" + std::to_string(it->first), cycle);
      it = migration_drain_.erase(it);
    } else {
      ++it;
    }
  }
  // Tear down the routes (if any were armed): interior shards drop orphaned
  // merge state (and scatter bundles) on their next lookup, and the switch
  // frees any held partial group.
  plan_->Release(request_id);
  if (agg_switch_ != nullptr) agg_switch_->Disarm(request_id);
}

void ShardCoordinator::MarkSubtreeSent(Active& a, uint64_t request_id,
                                       const GatherPlan::Role& root_role,
                                       sim::Cycle cycle) {
  std::vector<uint32_t> stack(root_role.down.begin(), root_role.down.end());
  while (!stack.empty()) {
    const uint32_t shard = stack.back();
    stack.pop_back();
    const GatherPlan::Role* role = plan_->RoleOf(request_id, shard);
    if (role != nullptr) {
      stack.insert(stack.end(), role->down.begin(), role->down.end());
    }
    for (Sub& sub : a.subs) {
      if (sub.shard == shard && !sub.sent) {
        sub.sent = true;
        sub.sent_at = cycle;
      }
    }
  }
}

bool ShardCoordinator::PumpQueues(sim::Cycle cycle) {
  const bool scatter_tree =
      plan_->config().scatter == ScatterMode::kTree;
  bool progressed = false;
  for (uint32_t s = 0; s < num_shards_; ++s) {
    auto& q = shard_queue_[s];
    while (!q.empty()) {
      const auto [request_id, sub_index] = q.front();
      const auto it = active_.find(request_id);
      if (it == active_.end() ||
          it->second.subs[sub_index].outcome != SubOutcome::kPending) {
        // The request finalized (deadline expiry) while this slice waited
        // for window room; there is nobody left to serve it for.
        q.pop_front();
        --total_queued_;
        progressed = true;
        continue;
      }
      if (in_flight_[s] >= config_.window) break;
      Sub& sub = it->second.subs[sub_index];
      net::Packet p;
      p.dst = PrimaryNode(s);
      p.kind = net::OpKind::kOffloadReq;
      p.tag = sub.tag;
      p.user = request_id;
      if (scatter_tree) {
        // One bundle for the whole port group: the subtree's bytes behind
        // this root, shared portion counted once. Descendants ship with it.
        const GatherPlan::Role* role = plan_->RoleOf(request_id, s);
        FPGADP_CHECK(role != nullptr);
        p.addr = kScatterFlag;
        p.bytes = role->subtree_bytes;
        MarkSubtreeSent(it->second, request_id, *role, cycle);
      } else {
        p.bytes = sub.bytes;
      }
      endpoints_[plan_->PortOf(s)]->PostPacket(p);
      sub.sent = true;
      sub.sent_at = cycle;
      ++in_flight_[s];
      q.pop_front();
      --total_queued_;
      progressed = true;
    }
  }
  return progressed;
}

void ShardCoordinator::HandleResponse(const net::Packet& p,
                                      sim::Cycle cycle) {
  const uint64_t request_id = p.user;
  const auto it = active_.find(request_id);
  // A tagged answer whose tag died is stale: its slice already resolved,
  // or was replayed to a promoted primary under a fresh tag.
  if (it == active_.end() ||
      (p.tag != 0 && tag_map_.find(p.tag) == tag_map_.end())) {
    ++late_responses_;
    return;
  }
  Active& a = it->second;
  const uint64_t covered = p.addr | p.user2;
  const auto pending_covered = [covered](const Sub& sub) {
    return sub.outcome == SubOutcome::kPending &&
           ((covered >> sub.shard) & 1) != 0;
  };
  size_t left = std::count_if(a.subs.begin(), a.subs.end(), pending_covered);
  if (left == 0) {
    ++late_responses_;  // straggler re-covering already-resolved slices
    return;
  }
  // Only the last ResolveSub can finalize the request and erase `a`, and
  // the loop touches `a` no further once it made that call.
  for (size_t i = 0; left > 0; ++i) {
    Sub& sub = a.subs[i];
    if (!pending_covered(sub)) continue;
    --left;
    if (((p.addr >> sub.shard) & 1) == 0) {
      ResolveSub(request_id, i, SubOutcome::kRejected, cycle);
      continue;
    }
    resp_bytes_total_ += sub.response_bytes;
    ++resp_count_;
    ObserveService(sub.shard, sub.service_cycles, cycle - sub.sent_at);
    ResolveSub(request_id, i, SubOutcome::kDone, cycle);
  }
}

void ShardCoordinator::Tick(sim::Cycle cycle) {
  bool progressed = false;

  // Arm deadlines for requests scattered since the last tick.
  if (config_.gather_deadline_cycles > 0) {
    for (auto& [id, a] : active_) {
      if (a.deadline == 0) a.deadline = cycle + config_.gather_deadline_cycles;
    }
  }

  // Transport verdicts: a slice whose request packet exhausted the retry
  // cap resolves kFailed (successful offload sends complete silently) —
  // unless the shard has a live standby, in which case the coordinator
  // promotes it and replays instead of degrading. Tags from before a
  // promotion were replaced by the replay, so a stale verdict for the old
  // primary misses tag_map_ and is ignored.
  for (net::RdmaEndpoint* ep : endpoints_) {
    net::Completion comp;
    while (ep->PollCompletion(&comp)) {
      progressed = true;
      if (comp.status == StatusCode::kOk) continue;
      const auto it = tag_map_.find(comp.tag);
      if (it == tag_map_.end()) continue;
      const auto [request_id, sub_index] = it->second;
      const auto ait = active_.find(request_id);
      if (ait == active_.end()) continue;
      const uint32_t shard = ait->second.subs[sub_index].shard;
      if (CanFailover(shard)) {
        FailoverShard(shard, cycle);  // replays this slice too
      } else {
        ResolveSub(request_id, sub_index, SubOutcome::kFailed, cycle);
      }
    }
  }

  // Beacon liveness: promote away from primaries that went silent.
  if (elastic_->config.beacon_timeout_cycles > 0) CheckBeacons(cycle);

  // Responses: each resolves every pending slice its masks cover.
  for (net::RdmaEndpoint* ep : endpoints_) {
    net::Packet p;
    while (ep->PollRecv(&p)) {
      progressed = true;
      if (p.kind == net::OpKind::kHealthBeacon) {
        elastic_->replicas.ObserveBeacon(static_cast<uint32_t>(p.user),
                                         static_cast<uint32_t>(p.user2), cycle);
        continue;
      }
      if (p.kind == net::OpKind::kMigrateDone) {
        HandleMigrateDone(p, cycle);
        continue;
      }
      if (p.kind == net::OpKind::kOffloadResp) HandleResponse(p, cycle);
    }
  }

  // Expire gathers past their deadline: pending slices resolve kTimedOut
  // and the request degrades instead of stalling the cluster.
  for (auto it = active_.begin(); it != active_.end();) {
    const uint64_t request_id = it->first;
    Active& a = it->second;
    ++it;  // Finalize erases the entry
    if (a.deadline == 0 || cycle < a.deadline) continue;
    for (Sub& sub : a.subs) {
      if (sub.outcome != SubOutcome::kPending) continue;
      sub.outcome = SubOutcome::kTimedOut;
      ++a.resolved;
      tag_map_.erase(sub.tag);
      if (sub.sent && sub.windowed) --in_flight_[sub.shard];
      pending_cost_[sub.shard] -= std::min(pending_cost_[sub.shard],
                                           sub.est_cycles);
      // An unsent slice still sits in its shard queue; PumpQueues drops it.
    }
    Finalize(request_id, a, cycle);
    progressed = true;
  }

  if (PumpQueues(cycle)) progressed = true;

  if (progressed) {
    MarkBusy();
  } else if (!active_.empty()) {
    ++gather_stall_cycles_;
    MarkStall(sim::StallKind::kInputStarved);
  }
}

sim::Cycle ShardCoordinator::NextEventCycle(sim::Cycle now) const {
  for (const net::RdmaEndpoint* ep : endpoints_) {
    if (ep->completions_available() > 0 || ep->recv_available() > 0) {
      return now;
    }
  }
  for (uint32_t s = 0; s < num_shards_; ++s) {
    if (!shard_queue_[s].empty() && in_flight_[s] < config_.window) {
      return now;
    }
  }
  sim::Cycle earliest = sim::kNoEventCycle;
  for (const auto& [id, a] : active_) {
    if (a.deadline == 0) {
      // Unarmed with a deadline configured: the next tick arms it.
      if (config_.gather_deadline_cycles > 0) return now;
      continue;
    }
    earliest = std::min(earliest, a.deadline);
  }
  // Beacon deadlines: fast-forward must land exactly on the cycle a silent
  // primary would be declared dead, or serial and skipped runs diverge.
  if (elastic_->config.beacon_timeout_cycles > 0) {
    const ReplicaSet& replicas = elastic_->replicas;
    for (uint32_t s = 0; s < num_shards_; ++s) {
      for (uint32_t r = 0; r < replicas.replication_factor(); ++r) {
        if (!replicas.alive(s, r)) continue;
        earliest = std::min(earliest, replicas.last_beacon(s, r) +
                                          elastic_->config.beacon_timeout_cycles);
      }
    }
  }
  return earliest > now ? earliest : now;
}

void ShardCoordinator::AttributeSkip(sim::Cycle from, sim::Cycle to) {
  if (active_.empty()) return;  // idle backfill
  const uint64_t n = to - from;
  gather_stall_cycles_ += n;
  MarkStallN(sim::StallKind::kInputStarved, n);
}

void ShardCoordinator::ExportCustomMetrics(
    obs::MetricsRegistry& registry) const {
  const std::string base = "shard." + name();
  registry.GetGauge(base + ".gathers_completed")
      ->Set(static_cast<double>(gathers_completed_));
  registry.GetGauge(base + ".gathers_degraded")
      ->Set(static_cast<double>(gathers_degraded_));
  registry.GetGauge(base + ".late_responses")
      ->Set(static_cast<double>(late_responses_));
  registry.GetGauge(base + ".gather_stall_cycles")
      ->Set(static_cast<double>(gather_stall_cycles_));
  registry.GetGauge(base + ".ingress_shed")
      ->Set(static_cast<double>(ingress_shed_));
  for (uint32_t s = 0; s < num_shards_; ++s) {
    registry.GetGauge(base + ".queue_hwm.shard" + std::to_string(s))
        ->Set(static_cast<double>(queue_hwm_[s]));
  }
  // Only an actually-elastic cluster (replicas or migrations) grows the
  // gauge set; a plain R=1 cluster exports exactly the historical metrics.
  if (plan_->replicas() > 1 || !elastic_->migrations.empty()) {
    registry.GetGauge(base + ".failovers")
        ->Set(static_cast<double>(failovers_));
    registry.GetGauge(base + ".replayed_slices")
        ->Set(static_cast<double>(replayed_slices_));
    registry.GetGauge(base + ".beacon_timeouts")
        ->Set(static_cast<double>(beacon_timeouts_));
    registry.GetGauge(base + ".migrations_flipped")
        ->Set(static_cast<double>(migrations_flipped_));
    uint64_t done = 0, aborted = 0;
    for (const Migration& m : elastic_->migrations) {
      if (m.phase == MigrationPhase::kDone) ++done;
      if (m.phase == MigrationPhase::kAborted) ++aborted;
    }
    registry.GetGauge(base + ".migrations_done")
        ->Set(static_cast<double>(done));
    registry.GetGauge(base + ".migrations_aborted")
        ->Set(static_cast<double>(aborted));
  }
}

ShardServer::ShardServer(std::string name, uint32_t shard_id,
                         Workload* workload, net::RdmaEndpoint* endpoint,
                         const GatherPlan* plan, ShardCoordinator* coordinator,
                         const Config& config, uint32_t replica_index,
                         ElasticState* elastic)
    : sim::Module(std::move(name)), shard_id_(shard_id), workload_(workload),
      endpoint_(endpoint), plan_(plan), coordinator_(coordinator),
      config_(config), replica_index_(replica_index), elastic_(elastic) {
  FPGADP_CHECK(workload_ != nullptr);
  FPGADP_CHECK(endpoint_ != nullptr);
  FPGADP_CHECK(plan_ != nullptr);
  FPGADP_CHECK(coordinator_ != nullptr);
  FPGADP_CHECK(elastic_ != nullptr);
  FPGADP_CHECK(config_.max_queue > 0);
  // NextEventCycle covers the pipeline, merge timeouts, beacon posts and
  // chunk pacing; the endpoint wakes the server on arrivals.
  endpoint_->SetWakeListener(this);
  next_beacon_at_ = elastic_->config.beacon_interval_cycles;
}

void ShardServer::TickBeacon(sim::Cycle cycle, bool* progressed) {
  if (next_beacon_at_ == 0 || cycle < next_beacon_at_) return;
  net::Packet b;
  b.dst = plan_->PortNode(plan_->PortOf(shard_id_));
  b.kind = net::OpKind::kHealthBeacon;
  b.user = shard_id_;
  b.user2 = replica_index_;
  endpoint_->PostPacket(b);
  ++beacons_sent_;
  next_beacon_at_ = cycle + elastic_->config.beacon_interval_cycles;
  *progressed = true;
}

void ShardServer::TickMigration(sim::Cycle cycle, bool* progressed) {
  if (streaming_seq_ == 0) return;
  Migration* m = elastic_->Find(streaming_seq_);
  if (m == nullptr || m->phase != MigrationPhase::kCopy) {
    streaming_seq_ = 0;  // flipped or aborted under us
    return;
  }
  if (cycle < m->next_chunk_at) return;
  // One paced chunk per interval: the copy pays real wire serialization,
  // so it contends with serving traffic instead of teleporting state.
  const uint64_t remaining = m->plan.state_bytes - m->bytes_streamed;
  const uint64_t n = std::min(m->plan.chunk_bytes, remaining);
  net::Packet c;
  c.dst = plan_->ReplicaNode(m->plan.target,
                             elastic_->replicas.Primary(m->plan.target));
  c.kind = net::OpKind::kMigrateChunk;
  c.user = m->seq;
  c.bytes = n;
  endpoint_->PostPacket(c);
  m->bytes_streamed += n;
  migrated_bytes_out_ += n;
  if (m->bytes_streamed >= m->plan.state_bytes) {
    streaming_seq_ = 0;
  } else {
    m->next_chunk_at = cycle + m->plan.chunk_interval_cycles;
  }
  *progressed = true;
}

void ShardServer::AbortMigration(sim::Cycle cycle) {
  for (Migration& m : elastic_->migrations) {
    if (m.phase != MigrationPhase::kCopy) continue;
    if (m.plan.source != shard_id_ && m.plan.target != shard_id_) continue;
    m.phase = MigrationPhase::kAborted;
    m.finished_at = cycle;
    if (streaming_seq_ == m.seq) streaming_seq_ = 0;
    return;
  }
}

uint32_t ShardServer::SliceShard(const net::Packet& req) const {
  return (req.addr & kForwardFlag) != 0
             ? static_cast<uint32_t>(req.addr & ~kForwardFlag)
             : shard_id_;
}

ShardServer::MergeState ShardServer::NewMerge(sim::Cycle cycle) const {
  MergeState m;
  m.own_shard = shard_id_;
  const uint64_t timeout = plan_->config().merge_timeout_cycles;
  if (timeout > 0) m.timeout_at = cycle + timeout;
  return m;
}

void ShardServer::FoldOwn(const net::Packet& req, bool served,
                          uint64_t response_bytes, sim::Cycle cycle) {
  const auto it = merges_.find(req.user);
  MergeState fresh = NewMerge(cycle);
  MergeState& m = it == merges_.end() ? fresh : it->second;
  // The own bit is the slice's scatter shard, so a forwarded slice answers
  // for the shard it was scattered to.
  m.own_shard = SliceShard(req);
  m.own_tag = req.tag;
  (served ? m.done_mask : m.rejected_mask) |= 1ull << m.own_shard;
  m.concat_bytes += response_bytes;
  m.own_resolved = true;
  if (TryEmit(req.user, m, /*force=*/false, cycle)) {
    if (it != merges_.end()) merges_.erase(it);
  } else if (it == merges_.end()) {
    merges_.emplace(req.user, fresh);
  }
}

bool ShardServer::TryEmit(uint64_t request_id, const MergeState& m,
                          bool force, sim::Cycle cycle) {
  GatherPlan::Hop hop;
  if (!plan_->Upstream(request_id, m.own_shard, &hop)) {
    // The gather finalized (deadline expiry) and released its route;
    // nobody upstream is listening anymore.
    ++stale_merges_dropped_;
    return true;
  }
  if (!force && (!m.own_resolved || m.children_seen < hop.children)) {
    return false;
  }
  net::Packet up;
  up.dst = hop.dst;
  up.kind = net::OpKind::kOffloadResp;
  // An answer for the own slice alone carries its tag, which lets the
  // coordinator drop it once stale.
  up.tag = m.children_seen == 0 ? m.own_tag : 0;
  up.user = request_id;
  up.addr = m.done_mask;
  up.user2 = m.rejected_mask;
  up.bytes = m.done_mask == 0 ? 0
                              : workload_->MergedBytes(request_id, m.done_mask,
                                                       m.concat_bytes);
  // Each child was folded in as it arrived; only the unfinished tail of the
  // last fold delays the answer, so a childless one leaves at once.
  const sim::Cycle at = std::max(cycle, m.merge_ready_at);
  if (at <= cycle) {
    endpoint_->PostPacket(up);
  } else {
    emits_.push_back({at, up});
  }
  if (plan_->topology() == GatherTopology::kTree) ++merges_forwarded_;
  return true;
}

void ShardServer::Tick(sim::Cycle cycle) {
  bool progressed = false;

  TickBeacon(cycle, &progressed);

  // Post packets whose merge or bundle-forward delay elapsed.
  for (size_t i = 0; i < emits_.size();) {
    if (emits_[i].at <= cycle) {
      endpoint_->PostPacket(emits_[i].packet);
      emits_.erase(emits_.begin() + static_cast<ptrdiff_t>(i));
      progressed = true;
    } else {
      ++i;
    }
  }

  // Retire the slice in service: its occupancy elapsed, so it folds into
  // its request's merge state.
  if (busy_ && cycle >= done_at_) {
    busy_ = false;
    progressed = true;
    FoldOwn(serving_, /*served=*/true, serving_resp_bytes_, cycle);
  }

  // Admit or shed request arrivals; fold child contributions (tree gather
  // interior nodes) into their request's merge state.
  net::Packet p;
  while (endpoint_->PollRecv(&p)) {
    progressed = true;
    if (p.kind == net::OpKind::kOffloadResp) {
      // A child subtree's merged contribution. The merge engine folds it in
      // starting now (or once it finishes the previous fold), overlapping
      // the wait for the rest of the subtree.
      const auto it = merges_.try_emplace(p.user, NewMerge(cycle)).first;
      MergeState& m = it->second;
      m.done_mask |= p.addr;
      m.rejected_mask |= p.user2;
      m.concat_bytes += p.bytes;
      ++m.children_seen;
      m.merge_ready_at = std::max(m.merge_ready_at, cycle) +
                         plan_->config().merge_cycles_per_input;
      if (TryEmit(p.user, m, /*force=*/false, cycle)) merges_.erase(it);
      continue;
    }
    if (p.kind == net::OpKind::kMigrateStart) {
      // This node is the source primary: begin streaming the range's state.
      Migration* m = elastic_->Find(p.user);
      if (m != nullptr && m->phase == MigrationPhase::kCopy &&
          !m->start_seen) {
        m->start_seen = true;
        m->next_chunk_at = cycle;
        streaming_seq_ = m->seq;
      }
      continue;
    }
    if (p.kind == net::OpKind::kMigrateChunk) {
      // This node is the target primary: count payload in; when the full
      // state landed, tell the coordinator so it can flip ownership.
      Migration* m = elastic_->Find(p.user);
      if (m != nullptr && m->phase == MigrationPhase::kCopy) {
        m->bytes_received += p.bytes;
        if (m->bytes_received >= m->plan.state_bytes) {
          net::Packet done;
          done.dst = plan_->PortNode(plan_->PortOf(m->plan.source));
          done.kind = net::OpKind::kMigrateDone;
          done.user = m->seq;
          endpoint_->PostPacket(done);
        }
      }
      continue;
    }
    if (p.kind != net::OpKind::kOffloadReq) continue;
    if ((p.addr & kScatterFlag) != 0) {
      // A scatter-tree bundle: forward one smaller bundle per child
      // subtree (the NIC peels them off at a per-hop cost, no pipeline
      // occupancy), then fall through to admission with our own slice as
      // if it had arrived point-to-point.
      const GatherPlan::Role* role = plan_->RoleOf(p.user, shard_id_);
      if (role == nullptr) {
        // The gather finalized (deadline expiry) and released the route;
        // nothing in this subtree has anyone listening anymore.
        ++stale_bundles_dropped_;
        continue;
      }
      uint64_t hops = 0;
      for (uint32_t child : role->down) {
        const GatherPlan::Role* child_role = plan_->RoleOf(p.user, child);
        net::Packet fwd;
        fwd.dst = plan_->ShardNode(child);
        fwd.kind = net::OpKind::kOffloadReq;
        fwd.addr = kScatterFlag;
        fwd.user = p.user;
        fwd.tag = child_role->tag;
        fwd.bytes = child_role->subtree_bytes;
        const sim::Cycle at =
            cycle + ++hops * plan_->config().scatter_forward_cycles;
        if (at <= cycle) {
          endpoint_->PostPacket(fwd);
        } else {
          emits_.push_back({at, fwd});
        }
        ++bundles_forwarded_;
      }
      // Our own slice: tag and wire size come from the role.
      p.addr = 0;
      p.tag = role->tag;
      p.bytes = role->slice_bytes;
    }
    if (queue_.size() >= config_.max_queue) {
      // The rejection rides upstream in the mask; a tree node still merges
      // and forwards its children's results.
      ++rejected_;
      FoldOwn(p, /*served=*/false, 0, cycle);
    } else {
      queue_.push_back(p);
      queue_hwm_ = std::max(queue_hwm_, queue_.size());
    }
  }

  // Start the next slice.
  if (!busy_ && !queue_.empty()) {
    const net::Packet req = queue_.front();
    queue_.pop_front();
    // Ownership is decided at serve start, not arrival: a slice that sat
    // queued across a migration flip is handed to the new owner instead of
    // served from state that just moved away.
    const uint32_t slice_shard = SliceShard(req);
    const uint32_t owner = workload_->SliceOwner(slice_shard, req.user);
    if (owner != shard_id_) {
      net::Packet fwd;
      fwd.dst =
          plan_->ReplicaNode(owner, elastic_->replicas.Primary(owner));
      fwd.kind = net::OpKind::kOffloadReq;
      fwd.tag = req.tag;
      fwd.user = req.user;
      fwd.addr = kForwardFlag | slice_shard;
      fwd.bytes = req.bytes;
      endpoint_->PostPacket(fwd);
      ++forwarded_;
      progressed = true;
    } else {
      const Service svc = workload_->Serve(slice_shard, req.user);
      const uint64_t cycles_needed =
          std::max<uint64_t>(1, svc.compute_cycles);
      busy_ = true;
      done_at_ = cycle + cycles_needed;
      service_cycles_ += cycles_needed;
      ++served_;
      if (serve_log_ != nullptr) {
        serve_log_->push_back({cycle, req.user, slice_shard});
      }
      coordinator_->ReportService(req.tag, cycles_needed, svc.response_bytes);
      serving_ = req;
      serving_resp_bytes_ = svc.response_bytes;
      progressed = true;
    }
  }

  // Force partial forwards whose merge timeout expired: a dead child costs
  // its subtree, never the ancestors (tree gather on a lossy fabric).
  for (auto it = merges_.begin(); it != merges_.end();) {
    if (it->second.timeout_at == 0 || cycle < it->second.timeout_at) {
      ++it;
      continue;
    }
    ++merge_timeouts_;
    TryEmit(it->first, it->second, /*force=*/true, cycle);
    it = merges_.erase(it);
    progressed = true;
  }

  // Stream the next paced migration chunk (source primary only).
  TickMigration(cycle, &progressed);

  // Drain transport completions. A response that exhausts its retry cap
  // surfaces in the endpoint's failed() latch; the coordinator's gather
  // deadline covers the loss. A migration chunk (or the done notification)
  // that dies on the wire aborts the copy: ownership never flips, so no
  // state is lost.
  net::Completion comp;
  while (endpoint_->PollCompletion(&comp)) {
    progressed = true;
    if (comp.status != StatusCode::kOk &&
        (comp.kind == net::OpKind::kMigrateChunk ||
         comp.kind == net::OpKind::kMigrateDone)) {
      AbortMigration(cycle);
    }
  }

  if (busy_ || progressed) MarkBusy();
}

sim::Cycle ShardServer::NextEventCycle(sim::Cycle now) const {
  if (endpoint_->recv_available() > 0 ||
      endpoint_->completions_available() > 0) {
    return now;
  }
  if (!busy_ && !queue_.empty()) return now;
  sim::Cycle earliest = sim::kNoEventCycle;
  if (busy_) earliest = done_at_ > now ? done_at_ : now;
  for (const PendingEmit& e : emits_) {
    earliest = std::min(earliest, e.at > now ? e.at : now);
  }
  for (const auto& [id, m] : merges_) {
    if (m.timeout_at > 0) {
      earliest = std::min(earliest, m.timeout_at > now ? m.timeout_at : now);
    }
  }
  // Fast-forward must land exactly on beacon posts and chunk pacing slots,
  // or the skipped run diverges from the serial one.
  if (next_beacon_at_ > 0) {
    earliest =
        std::min(earliest, next_beacon_at_ > now ? next_beacon_at_ : now);
  }
  if (streaming_seq_ != 0) {
    for (const Migration& m : elastic_->migrations) {
      if (m.seq == streaming_seq_ && m.phase == MigrationPhase::kCopy) {
        earliest =
            std::min(earliest, m.next_chunk_at > now ? m.next_chunk_at : now);
      }
    }
  }
  return earliest;
}

void ShardServer::AttributeSkip(sim::Cycle from, sim::Cycle to) {
  if (busy_) MarkBusyN(to - from);
}

void ShardServer::ExportCustomMetrics(obs::MetricsRegistry& registry) const {
  const std::string base = "shard." + name();
  registry.GetGauge(base + ".served")->Set(static_cast<double>(served_));
  registry.GetGauge(base + ".rejected")->Set(static_cast<double>(rejected_));
  registry.GetGauge(base + ".service_cycles")
      ->Set(static_cast<double>(service_cycles_));
  registry.GetGauge(base + ".queue_hwm")
      ->Set(static_cast<double>(queue_hwm_));
  if (plan_->topology() == GatherTopology::kTree) {
    registry.GetGauge(base + ".merges_forwarded")
        ->Set(static_cast<double>(merges_forwarded_));
    registry.GetGauge(base + ".merge_timeouts")
        ->Set(static_cast<double>(merge_timeouts_));
    registry.GetGauge(base + ".stale_merges_dropped")
        ->Set(static_cast<double>(stale_merges_dropped_));
  }
  if (plan_->config().scatter == ScatterMode::kTree) {
    registry.GetGauge(base + ".bundles_forwarded")
        ->Set(static_cast<double>(bundles_forwarded_));
    registry.GetGauge(base + ".stale_bundles_dropped")
        ->Set(static_cast<double>(stale_bundles_dropped_));
  }
  // Only an actually-elastic cluster grows the gauge set (same gate as the
  // coordinator): a plain R=1 cluster exports exactly the historical keys.
  if (plan_->replicas() > 1 || !elastic_->migrations.empty()) {
    registry.GetGauge(base + ".forwarded")
        ->Set(static_cast<double>(forwarded_));
    registry.GetGauge(base + ".beacons_sent")
        ->Set(static_cast<double>(beacons_sent_));
    registry.GetGauge(base + ".migrated_bytes_out")
        ->Set(static_cast<double>(migrated_bytes_out_));
  }
}

ShardCluster::ShardCluster(Workload* workload, const Config& config)
    : config_(config),
      plan_(config.gather, config.num_shards,
            config.replica.replication_factor),
      elastic_(config.replica, config.num_shards),
      engine_(config.fabric.clock_hz),
      fabric_("fabric", plan_.num_nodes(), config.fabric) {
  FPGADP_CHECK(workload != nullptr);
  FPGADP_CHECK(config_.num_shards > 0);
  // A beacon wave must land before the next one launches, or the wire
  // never drains and the engine cannot quiesce. Control packets fly for
  // wire latency plus header serialization plus the tx-injection cycle.
  FPGADP_CHECK(config_.replica.beacon_interval_cycles == 0 ||
               config_.replica.beacon_interval_cycles >
                   fabric_.wire_latency_cycles() +
                       fabric_.SerializationCycles(0) + 1);
  if (plan_.topology() == GatherTopology::kSwitch) {
    net::AggregatingSwitch::Config sc;
    sc.combine_cycles_per_resp = config_.gather.switch_combine_cycles;
    agg_switch_ = std::make_unique<net::AggregatingSwitch>(
        sc, [workload](uint64_t request_id, uint64_t done_mask,
                       uint64_t concat_bytes) {
          return workload->MergedBytes(request_id, done_mask, concat_bytes);
        });
    fabric_.set_agg_switch(agg_switch_.get());
  }
  fabric_.RegisterWith(engine_);
  for (uint32_t port = 0; port < plan_.ports(); ++port) {
    coordinator_eps_.push_back(std::make_unique<net::RdmaEndpoint>(
        port == 0 ? "coord.ep" : "coord.ep" + std::to_string(port),
        plan_.PortNode(port), &fabric_, config_.reliability));
    engine_.AddModule(coordinator_eps_.back().get());
  }
  // Replica-major to match servers_[r * num_shards + s] and the fabric
  // node numbering; replica 0 keeps the historical "shardN" names so every
  // existing metric key and trace row survives R=1 unchanged.
  for (uint32_t r = 0; r < plan_.replicas(); ++r) {
    for (uint32_t s = 0; s < config_.num_shards; ++s) {
      const std::string suffix =
          r == 0 ? std::to_string(s) : std::to_string(s) + ".r" +
                                           std::to_string(r);
      server_eps_.push_back(std::make_unique<net::RdmaEndpoint>(
          "shard" + suffix + ".ep", plan_.ReplicaNode(s, r), &fabric_,
          config_.reliability));
      engine_.AddModule(server_eps_.back().get());
    }
  }
  std::vector<net::RdmaEndpoint*> eps;
  eps.reserve(coordinator_eps_.size());
  for (auto& ep : coordinator_eps_) eps.push_back(ep.get());
  coordinator_ = std::make_unique<ShardCoordinator>(
      "coord", workload, std::move(eps), &plan_, agg_switch_.get(),
      config_.num_shards, config_.coordinator, &elastic_);
  engine_.AddModule(coordinator_.get());
  for (uint32_t r = 0; r < plan_.replicas(); ++r) {
    for (uint32_t s = 0; s < config_.num_shards; ++s) {
      const std::string suffix =
          r == 0 ? std::to_string(s) : std::to_string(s) + ".r" +
                                           std::to_string(r);
      servers_.push_back(std::make_unique<ShardServer>(
          "shard" + suffix, s, workload,
          server_eps_[size_t{r} * config_.num_shards + s].get(), &plan_,
          coordinator_.get(), config_.server, r, &elastic_));
      engine_.AddModule(servers_.back().get());
    }
  }
}

ShardCluster::~ShardCluster() = default;

void ShardCluster::set_fault_injector(net::FaultInjector* injector) {
  if (injector != nullptr && plan_.topology() == GatherTopology::kTree) {
    // A lost child contribution would otherwise wedge its ancestors'
    // merges forever.
    FPGADP_CHECK(config_.gather.merge_timeout_cycles > 0);
  }
  if (injector != nullptr &&
      config_.gather.scatter == ScatterMode::kTree) {
    // A lost bundle silently strands its whole subtree's slices; only the
    // gather deadline can resolve them.
    FPGADP_CHECK(config_.coordinator.gather_deadline_cycles > 0);
  }
  fabric_.set_fault_injector(injector);
}

}  // namespace fpgadp::shard
