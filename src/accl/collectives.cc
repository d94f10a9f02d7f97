#include "src/accl/collectives.h"

#include <algorithm>
#include <deque>
#include <memory>

#include "src/common/check.h"
#include "src/common/units.h"
#include "src/net/rdma.h"
#include "src/sim/engine.h"

namespace fpgadp::accl {

namespace {

/// Executes one rank's ordered send/recv schedule against its endpoint.
/// Sends post as soon as the program counter reaches them (the NIC
/// serializes); receives block the program until a message with matching
/// (peer, tag) arrives.
class RankProgram : public sim::Module {
 public:
  struct S {
    bool is_send;
    uint32_t peer;
    uint64_t bytes;
    uint64_t tag;
  };

  RankProgram(std::string name, net::RdmaEndpoint* ep, std::vector<S> steps)
      : sim::Module(std::move(name)), ep_(ep), steps_(std::move(steps)) {
    ep_->SetWakeListener(this);
  }

  void Tick(sim::Cycle) override {
    bool progressed = false;
    net::Packet p;
    while (ep_->PollRecv(&p)) {
      inbox_.push_back(p);
      progressed = true;
    }
    while (pc_ < steps_.size()) {
      const S& s = steps_[pc_];
      if (s.is_send) {
        ep_->PostSend(s.peer, s.bytes, s.tag);
        ++pc_;
        progressed = true;
        continue;
      }
      // Match a buffered receive on (peer, tag).
      bool matched = false;
      for (auto it = inbox_.begin(); it != inbox_.end(); ++it) {
        if (it->src == s.peer && it->tag == s.tag) {
          inbox_.erase(it);
          matched = true;
          break;
        }
      }
      if (!matched) break;
      ++pc_;
      progressed = true;
    }
    if (progressed) MarkBusy();
  }

  bool Idle() const override { return pc_ == steps_.size(); }
  bool Done() const { return pc_ == steps_.size(); }

  /// Only a delivery unblocks a receive: the endpoint wakes the program.
  sim::Cycle NextEventCycle(sim::Cycle) const override {
    return sim::kNoEventCycle;
  }

 private:
  net::RdmaEndpoint* ep_;
  std::vector<S> steps_;
  size_t pc_ = 0;
  std::deque<net::Packet> inbox_;
};

/// Executes a rank's schedule over a TCP session per peer. TCP carries
/// byte streams, not messages; per-peer FIFO ordering of the schedule
/// makes byte counting equivalent to tag matching (zero-byte barrier
/// messages are promoted to one byte so they exist on the wire).
class TcpRankProgram : public sim::Module {
 public:
  struct S {
    bool is_send;
    uint32_t peer;
    uint64_t bytes;
  };

  TcpRankProgram(std::string name, net::TcpStack* stack, std::vector<S> steps)
      : sim::Module(std::move(name)), stack_(stack), steps_(std::move(steps)) {
    stack_->SetReadListener(this);
  }

  void Tick(sim::Cycle) override {
    bool progressed = false;
    while (pc_ < steps_.size()) {
      const S& s = steps_[pc_];
      const uint64_t bytes = std::max<uint64_t>(s.bytes, 1);
      if (s.is_send) {
        stack_->Send(s.peer, bytes);
        ++pc_;
        progressed = true;
        continue;
      }
      if (recv_remaining_ == 0) recv_remaining_ = bytes;
      recv_remaining_ -= stack_->Read(s.peer, recv_remaining_);
      if (recv_remaining_ > 0) break;
      ++pc_;
      progressed = true;
    }
    if (progressed) MarkBusy();
  }

  bool Idle() const override { return pc_ == steps_.size(); }
  bool Done() const { return pc_ == steps_.size(); }

  /// Only arrivals unblock a receive: the stack wakes the program.
  sim::Cycle NextEventCycle(sim::Cycle) const override {
    return sim::kNoEventCycle;
  }

 private:
  net::TcpStack* stack_;
  std::vector<S> steps_;
  size_t pc_ = 0;
  uint64_t recv_remaining_ = 0;
};

}  // namespace

Communicator::Communicator(uint32_t world_size, net::Fabric::Config fabric,
                           double clock_hz, Transport transport)
    : world_size_(world_size), fabric_config_(fabric), clock_hz_(clock_hz),
      transport_(transport) {
  FPGADP_CHECK(world_size_ > 0);
  fabric_config_.clock_hz = clock_hz_;
}

Result<CollectiveStats> Communicator::RunSchedule(
    const std::vector<std::vector<Step>>& schedule, uint64_t payload_bytes) {
  last_outcome_ = PartialOutcome{};
  Status last_error;
  for (uint32_t attempt = 1; attempt <= max_attempts_; ++attempt) {
    ++last_outcome_.attempts;
    Result<CollectiveStats> r = RunScheduleOnce(schedule, payload_bytes);
    if (r.ok()) {
      last_outcome_.status = Status::OK();
      CollectiveStats stats = std::move(r).value();
      stats.attempts = attempt;
      return stats;
    }
    last_error = r.status();
  }
  last_outcome_.status = last_error;
  return last_error;
}

Result<CollectiveStats> Communicator::RunScheduleOnce(
    const std::vector<std::vector<Step>>& schedule, uint64_t payload_bytes) {
  FPGADP_CHECK(schedule.size() == world_size_);
  net::Fabric fabric("fabric", world_size_, fabric_config_);
  fabric.set_fault_injector(fault_injector_);
  std::vector<std::unique_ptr<net::RdmaEndpoint>> eps;
  std::vector<std::unique_ptr<RankProgram>> programs;
  std::vector<std::unique_ptr<net::TcpStack>> stacks;
  std::vector<std::unique_ptr<TcpRankProgram>> tcp_programs;
  sim::Engine engine(clock_hz_);
  fabric.RegisterWith(engine);
  for (uint32_t r = 0; r < world_size_; ++r) {
    if (transport_ == Transport::kRdma) {
      eps.push_back(std::make_unique<net::RdmaEndpoint>(
          "ep" + std::to_string(r), r, &fabric, retry_));
      std::vector<RankProgram::S> steps;
      steps.reserve(schedule[r].size());
      for (const Step& s : schedule[r]) {
        steps.push_back({s.is_send, s.peer, s.bytes, s.tag});
      }
      programs.push_back(std::make_unique<RankProgram>(
          "rank" + std::to_string(r), eps.back().get(), std::move(steps)));
      engine.AddModule(eps.back().get());
      engine.AddModule(programs.back().get());
    } else {
      stacks.push_back(std::make_unique<net::TcpStack>(
          "tcp" + std::to_string(r), r, &fabric, tcp_config_, retry_));
      std::vector<TcpRankProgram::S> steps;
      steps.reserve(schedule[r].size());
      for (const Step& s : schedule[r]) {
        steps.push_back({s.is_send, s.peer, s.bytes});
      }
      tcp_programs.push_back(std::make_unique<TcpRankProgram>(
          "rank" + std::to_string(r), stacks.back().get(), std::move(steps)));
      engine.AddModule(stacks.back().get());
      engine.AddModule(tcp_programs.back().get());
    }
  }

  auto all_done = [&] {
    for (const auto& p : programs) {
      if (!p->Done()) return false;
    }
    for (const auto& p : tcp_programs) {
      if (!p->Done()) return false;
    }
    return true;
  };
  // A transport that exhausted its retry cap can never finish its
  // schedule; stop as soon as one gives up.
  auto transport_failure = [&]() -> Status {
    for (const auto& ep : eps) {
      if (ep->failed()) return ep->status();
    }
    for (const auto& st : stacks) {
      if (st->failed()) return st->status();
    }
    return Status::OK();
  };
  Status failure;
  const auto transport_failed = [&] {
    failure = transport_failure();
    return !failure.ok();
  };
  // `failure` and all_done() say why the run ended.
  engine.Run(max_cycles_, [&] { return transport_failed() || all_done(); });
  // Record per-rank completion for graceful degradation before failing.
  last_outcome_.rank_done.assign(world_size_, false);
  last_outcome_.ranks_completed = 0;
  for (uint32_t r = 0; r < world_size_; ++r) {
    const bool done = transport_ == Transport::kRdma
                          ? programs[r]->Done()
                          : tcp_programs[r]->Done();
    last_outcome_.rank_done[r] = done;
    if (done) ++last_outcome_.ranks_completed;
  }
  if (!failure.ok()) return failure;
  if (!all_done()) return Status::Timeout("collective did not complete");
  // Drain in-flight completions so the fabric's byte counter is final.
  engine.Run(max_cycles_ - engine.now(), transport_failed);
  if (!failure.ok()) return failure;

  CollectiveStats stats;
  stats.cycles = engine.now();
  stats.seconds = CyclesToSeconds(stats.cycles, clock_hz_);
  stats.wire_bytes = fabric.payload_bytes_delivered();
  stats.bus_bw =
      stats.seconds > 0 ? double(payload_bytes) / stats.seconds : 0;
  return stats;
}

std::vector<std::vector<Communicator::Step>> Communicator::TreeSchedule(
    uint32_t root, uint64_t bytes, bool down) const {
  const uint32_t p = world_size_;
  std::vector<std::vector<Step>> schedule(p);
  // Relative ranks: rel = (rank - root) mod p; rel 0 is the root.
  auto abs_rank = [&](uint32_t rel) { return (rel + root) % p; };
  // Binomial tree: in round r (down) rel < 2^r sends to rel + 2^r.
  uint32_t rounds = 0;
  while ((1u << rounds) < p) ++rounds;
  if (down) {
    for (uint32_t r = 0; r < rounds; ++r) {
      const uint32_t span = 1u << r;
      for (uint32_t rel = 0; rel < span; ++rel) {
        const uint32_t child = rel + span;
        if (child >= p) continue;
        schedule[abs_rank(rel)].push_back(
            {true, abs_rank(child), bytes, /*tag=*/r});
        schedule[abs_rank(child)].push_back(
            {false, abs_rank(rel), bytes, /*tag=*/r});
      }
    }
  } else {
    // Reduce: mirror image, leaves send first.
    for (uint32_t r = rounds; r-- > 0;) {
      const uint32_t span = 1u << r;
      for (uint32_t rel = 0; rel < span; ++rel) {
        const uint32_t child = rel + span;
        if (child >= p) continue;
        schedule[abs_rank(child)].push_back(
            {true, abs_rank(rel), bytes, /*tag=*/r});
        schedule[abs_rank(rel)].push_back(
            {false, abs_rank(child), bytes, /*tag=*/r});
      }
    }
  }
  return schedule;
}

std::vector<std::vector<Communicator::Step>> Communicator::StarSchedule(
    uint32_t root, uint64_t bytes, bool down) const {
  std::vector<std::vector<Step>> schedule(world_size_);
  for (uint32_t r = 0; r < world_size_; ++r) {
    if (r == root) continue;
    schedule[root].push_back({down, r, bytes, 0});
    schedule[r].push_back({!down, root, bytes, 0});
  }
  return schedule;
}

std::vector<std::vector<Communicator::Step>> Communicator::RingSchedule(
    uint64_t bytes, uint32_t steps) const {
  const uint32_t p = world_size_;
  std::vector<std::vector<Step>> schedule(p);
  for (uint32_t r = 0; r < p; ++r) {
    const uint32_t next = (r + 1) % p;
    const uint32_t prev = (r + p - 1) % p;
    for (uint32_t s = 0; s < steps; ++s) {
      schedule[r].push_back({true, next, bytes, s});
      schedule[r].push_back({false, prev, bytes, s});
    }
  }
  return schedule;
}

std::vector<std::vector<Communicator::Step>>
Communicator::ReduceBroadcastSchedule(uint64_t bytes) const {
  std::vector<std::vector<Step>> schedule =
      TreeSchedule(0, bytes, /*down=*/false);
  const std::vector<std::vector<Step>> down =
      TreeSchedule(0, bytes, /*down=*/true);
  for (uint32_t r = 0; r < world_size_; ++r) {
    for (Step s : down[r]) {
      s.tag += 1000;  // disambiguate the phases
      schedule[r].push_back(s);
    }
  }
  return schedule;
}

Result<CollectiveStats> Communicator::Broadcast(
    uint32_t root, std::vector<std::vector<float>>& buffers, Algo algo) {
  if (root >= world_size_ || buffers.size() != world_size_) {
    return Status::InvalidArgument("bad root or buffer count");
  }
  const uint64_t bytes = buffers[root].size() * sizeof(float);
  std::vector<std::vector<Step>> schedule;
  if (algo == Algo::kLinear) {
    schedule = StarSchedule(root, bytes, /*down=*/true);
  } else if (algo == Algo::kTree) {
    schedule = TreeSchedule(root, bytes, /*down=*/true);
  } else {
    return Status::InvalidArgument("broadcast supports linear or tree");
  }
  // Functional semantics.
  for (uint32_t r = 0; r < world_size_; ++r) {
    if (r != root) buffers[r] = buffers[root];
  }
  return RunSchedule(schedule, bytes);
}

Result<CollectiveStats> Communicator::Scatter(
    uint32_t root, const std::vector<float>& input,
    std::vector<std::vector<float>>& out) {
  if (root >= world_size_ || input.size() % world_size_ != 0) {
    return Status::InvalidArgument("input not divisible by world size");
  }
  const size_t chunk = input.size() / world_size_;
  const uint64_t bytes = chunk * sizeof(float);
  out.assign(world_size_, {});
  for (uint32_t r = 0; r < world_size_; ++r) {
    out[r].assign(input.begin() + r * chunk, input.begin() + (r + 1) * chunk);
  }
  return RunSchedule(StarSchedule(root, bytes, /*down=*/true),
                     bytes * world_size_);
}

Result<CollectiveStats> Communicator::Gather(
    uint32_t root, const std::vector<std::vector<float>>& buffers,
    std::vector<float>* out) {
  if (root >= world_size_ || buffers.size() != world_size_ || out == nullptr) {
    return Status::InvalidArgument("bad gather arguments");
  }
  const uint64_t bytes = buffers[0].size() * sizeof(float);
  out->clear();
  for (uint32_t r = 0; r < world_size_; ++r) {
    if (buffers[r].size() != buffers[0].size()) {
      return Status::InvalidArgument("gather buffers must be equal-sized");
    }
    out->insert(out->end(), buffers[r].begin(), buffers[r].end());
  }
  return RunSchedule(StarSchedule(root, bytes, /*down=*/false),
                     bytes * world_size_);
}

Result<CollectiveStats> Communicator::Reduce(
    uint32_t root, std::vector<std::vector<float>>& buffers, Algo algo) {
  if (root >= world_size_ || buffers.size() != world_size_) {
    return Status::InvalidArgument("bad root or buffer count");
  }
  const uint64_t bytes = buffers[root].size() * sizeof(float);
  std::vector<std::vector<Step>> schedule;
  if (algo == Algo::kLinear) {
    schedule = StarSchedule(root, bytes, /*down=*/false);
  } else if (algo == Algo::kTree) {
    schedule = TreeSchedule(root, bytes, /*down=*/false);
  } else {
    return Status::InvalidArgument("reduce supports linear or tree");
  }
  // Functional sum at root.
  std::vector<float> sum = buffers[0];
  for (uint32_t r = 1; r < world_size_; ++r) {
    if (buffers[r].size() != sum.size()) {
      return Status::InvalidArgument("reduce buffers must be equal-sized");
    }
    for (size_t i = 0; i < sum.size(); ++i) sum[i] += buffers[r][i];
  }
  buffers[root] = std::move(sum);
  return RunSchedule(schedule, bytes);
}

Result<CollectiveStats> Communicator::AllReduce(
    std::vector<std::vector<float>>& buffers, Algo algo) {
  if (buffers.size() != world_size_) {
    return Status::InvalidArgument("need one buffer per rank");
  }
  const size_t n = buffers[0].size();
  for (const auto& b : buffers) {
    if (b.size() != n) {
      return Status::InvalidArgument("all-reduce buffers must be equal-sized");
    }
  }
  const uint64_t bytes = n * sizeof(float);
  const uint32_t p = world_size_;

  std::vector<std::vector<Step>> schedule;
  if (algo == Algo::kRing && p > 1) {
    // Ring: buffer in p chunks; 2(p-1) steps of chunk-sized messages.
    schedule = RingSchedule((bytes + p - 1) / p, 2 * (p - 1));
  } else if (algo == Algo::kTree || p == 1) {
    schedule = ReduceBroadcastSchedule(bytes);
  } else {
    return Status::InvalidArgument("all-reduce supports ring or tree");
  }

  // Functional sum everywhere.
  std::vector<float> sum = buffers[0];
  for (uint32_t r = 1; r < p; ++r) {
    for (size_t i = 0; i < n; ++i) sum[i] += buffers[r][i];
  }
  for (auto& b : buffers) b = sum;
  return RunSchedule(schedule, bytes);
}

Result<CollectiveStats> Communicator::AllGather(
    const std::vector<std::vector<float>>& buffers,
    std::vector<std::vector<float>>* out) {
  if (buffers.size() != world_size_ || out == nullptr) {
    return Status::InvalidArgument("need one buffer per rank");
  }
  const size_t chunk = buffers[0].size();
  for (const auto& b : buffers) {
    if (b.size() != chunk) {
      return Status::InvalidArgument("all-gather chunks must be equal-sized");
    }
  }
  const uint32_t p = world_size_;
  const uint64_t chunk_bytes = chunk * sizeof(float);
  // Functional concatenation.
  std::vector<float> all;
  for (const auto& b : buffers) all.insert(all.end(), b.begin(), b.end());
  out->assign(p, all);
  // Ring: in step s, rank r forwards the chunk it received in step s-1
  // (originating at rank (r - s) mod p) to its successor.
  return RunSchedule(RingSchedule(chunk_bytes, p - 1), chunk_bytes * p);
}

Result<CollectiveStats> Communicator::ReduceScatter(
    const std::vector<std::vector<float>>& buffers,
    std::vector<std::vector<float>>* out) {
  if (buffers.size() != world_size_ || out == nullptr) {
    return Status::InvalidArgument("need one buffer per rank");
  }
  const size_t n = buffers[0].size();
  if (n % world_size_ != 0) {
    return Status::InvalidArgument("buffer not divisible by world size");
  }
  for (const auto& b : buffers) {
    if (b.size() != n) {
      return Status::InvalidArgument("reduce-scatter buffers must match");
    }
  }
  const uint32_t p = world_size_;
  const size_t chunk = n / p;
  const uint64_t chunk_bytes = chunk * sizeof(float);
  // Functional: rank r gets the summed chunk r.
  out->assign(p, {});
  for (uint32_t r = 0; r < p; ++r) {
    std::vector<float> sum(buffers[0].begin() + r * chunk,
                           buffers[0].begin() + (r + 1) * chunk);
    for (uint32_t o = 1; o < p; ++o) {
      for (size_t i = 0; i < chunk; ++i) sum[i] += buffers[o][r * chunk + i];
    }
    (*out)[r] = std::move(sum);
  }
  // Ring: the reduce-scatter half of ring all-reduce (p-1 steps).
  return RunSchedule(RingSchedule(chunk_bytes, p - 1), chunk_bytes * p);
}

Result<CollectiveStats> Communicator::BroadcastSegmented(
    uint32_t root, std::vector<std::vector<float>>& buffers,
    uint64_t segment_bytes) {
  if (root >= world_size_ || buffers.size() != world_size_) {
    return Status::InvalidArgument("bad root or buffer count");
  }
  if (segment_bytes == 0) {
    return Status::InvalidArgument("segment_bytes must be > 0");
  }
  const uint64_t total = buffers[root].size() * sizeof(float);
  const uint64_t segments =
      total == 0 ? 1 : (total + segment_bytes - 1) / segment_bytes;
  const uint32_t p = world_size_;
  // Chain in relative-rank space: root -> root+1 -> ... -> root+p-1.
  auto abs_rank = [&](uint32_t rel) { return (rel + root) % p; };
  std::vector<std::vector<Step>> schedule(p);
  // Per rank, per segment: receive from the predecessor (non-root), then
  // forward to the successor (non-tail). Segment loops outermost so every
  // rank pipelines: it forwards segment i while segment i+1 is inbound.
  for (uint64_t seg = 0; seg < segments; ++seg) {
    const uint64_t bytes =
        std::min<uint64_t>(segment_bytes, total - seg * segment_bytes);
    for (uint32_t rel = 0; rel < p; ++rel) {
      if (rel > 0) {
        schedule[abs_rank(rel)].push_back(
            {false, abs_rank(rel - 1), bytes, seg});
      }
      if (rel + 1 < p) {
        schedule[abs_rank(rel)].push_back(
            {true, abs_rank(rel + 1), bytes, seg});
      }
    }
  }
  for (uint32_t r = 0; r < p; ++r) {
    if (r != root) buffers[r] = buffers[root];
  }
  return RunSchedule(schedule, total);
}

Result<CollectiveStats> Communicator::Barrier() {
  return RunSchedule(ReduceBroadcastSchedule(0), 0);
}

}  // namespace fpgadp::accl
