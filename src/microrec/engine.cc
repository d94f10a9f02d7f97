#include "src/microrec/engine.h"

#include <algorithm>
#include <deque>
#include <numeric>

#include "src/common/check.h"
#include "src/common/random.h"
#include "src/common/units.h"
#include "src/memory/multi_channel.h"
#include "src/sim/engine.h"
#include "src/sim/kernels.h"
#include "src/sim/var_stage.h"

namespace fpgadp::microrec {

Result<MemoryLayout> PlaceTables(const CartesianPlan& plan,
                                 uint32_t hbm_channels,
                                 uint64_t sram_budget_bytes,
                                 uint64_t hbm_capacity_bytes) {
  if (hbm_channels == 0) {
    return Status::InvalidArgument("need at least one HBM channel");
  }
  MemoryLayout layout;
  layout.placements.resize(plan.groups.size());
  layout.channel_bytes.assign(hbm_channels, 0);

  // SRAM pass: smallest groups first.
  std::vector<size_t> order(plan.groups.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return plan.groups[a].bytes() < plan.groups[b].bytes();
  });
  std::vector<bool> in_sram(plan.groups.size(), false);
  for (size_t g : order) {
    const uint64_t b = plan.groups[g].bytes();
    if (layout.sram_bytes_used + b > sram_budget_bytes) break;
    layout.sram_bytes_used += b;
    layout.placements[g] = {Loc::kSram, 0, 0};
    in_sram[g] = true;
    ++layout.sram_groups;
  }

  // HBM pass: biggest first onto the least-loaded channel.
  const uint64_t per_channel_capacity = hbm_capacity_bytes / hbm_channels;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const size_t g = *it;
    if (in_sram[g]) continue;
    uint32_t best = 0;
    for (uint32_t c = 1; c < hbm_channels; ++c) {
      if (layout.channel_bytes[c] < layout.channel_bytes[best]) best = c;
    }
    const uint64_t b = plan.groups[g].bytes();
    if (layout.channel_bytes[best] + b > per_channel_capacity) {
      return Status::ResourceExhausted(
          "embedding tables exceed HBM channel capacity");
    }
    layout.placements[g] = {Loc::kHbm, best, layout.channel_bytes[best]};
    layout.channel_bytes[best] += b;
    ++layout.hbm_groups;
  }
  return layout;
}

namespace {

struct JobTok {
  uint32_t id = 0;
};

/// One inference's memory work, precomputed.
struct Job {
  std::vector<std::pair<uint32_t, uint64_t>> hbm;  ///< (channel, addr).
  uint32_t sram_lookups = 0;
  uint32_t bytes_per_lookup = 0;  // unused placeholder for clarity
};

/// Fires each admitted inference's lookups at the HBM channels in parallel
/// (up to `jobs_in_flight` inferences overlapped to hide latency) and
/// releases the inference to the MLP stage when all vectors have arrived.
/// SRAM lookups complete at admission (single-cycle, fully banked).
class LookupDispatcher : public sim::Module {
 public:
  LookupDispatcher(std::string name, const std::vector<Job>* jobs,
                   mem::MultiChannelMemory* hbm, sim::Stream<JobTok>* out,
                   uint32_t jobs_in_flight, uint32_t vector_bytes)
      : sim::Module(std::move(name)), jobs_(jobs), hbm_(hbm), out_(out),
        jobs_in_flight_(jobs_in_flight), vector_bytes_(vector_bytes),
        issued_(jobs->size(), 0), outstanding_(jobs->size(), 0) {
    for (uint32_t c = 0; c < hbm_->num_channels(); ++c) {
      hbm_->request(c).BindProducer(this);
      hbm_->response(c).BindConsumer(this);
    }
    out_->BindProducer(this);
  }

  void Tick(sim::Cycle) override {
    bool progressed = false;
    // Collect completed vector fetches.
    for (uint32_t c = 0; c < hbm_->num_channels(); ++c) {
      auto& resp = hbm_->response(c);
      while (resp.CanRead()) {
        const auto r = resp.Read();
        const auto job = static_cast<size_t>(r.id);
        FPGADP_CHECK(outstanding_[job] > 0);
        if (--outstanding_[job] == 0) ready_.push_back(job);
        progressed = true;
      }
    }
    // Admit new inferences.
    while (admitted_ < jobs_->size() &&
           admitted_ - completed_admissions() < jobs_in_flight_) {
      const size_t j = admitted_++;
      outstanding_[j] = static_cast<uint32_t>((*jobs_)[j].hbm.size());
      if (outstanding_[j] == 0) ready_.push_back(j);
      progressed = true;
    }
    // Issue pending lookups of admitted inferences, oldest first.
    for (size_t j = issue_head_; j < admitted_; ++j) {
      const Job& job = (*jobs_)[j];
      while (issued_[j] < job.hbm.size()) {
        const auto [ch, addr] = job.hbm[issued_[j]];
        if (!hbm_->request(ch).CanWrite()) break;
        hbm_->request(ch).Write({j, addr, vector_bytes_, false});
        ++issued_[j];
        progressed = true;
      }
      if (j == issue_head_ && issued_[j] == job.hbm.size()) ++issue_head_;
    }
    // Release finished inferences downstream in completion order.
    while (!ready_.empty() && out_->CanWrite()) {
      out_->Write(JobTok{static_cast<uint32_t>(ready_.front())});
      ready_.pop_front();
      ++released_;
      progressed = true;
    }
    if (progressed) MarkBusy();
  }

  bool Idle() const override {
    return released_ == jobs_->size() && ready_.empty();
  }

  /// Acts while it can admit, issue or release work (even into a full FIFO,
  /// which an earlier-registered consumer may drain within the cycle).
  sim::Cycle NextEventCycle(sim::Cycle now) const override {
    const bool can_admit = admitted_ < jobs_->size() &&
                           admitted_ - completed_admissions() < jobs_in_flight_;
    if (can_admit || issue_head_ < admitted_ || !ready_.empty()) return now;
    return sim::kNoEventCycle;
  }

 private:
  size_t completed_admissions() const { return released_ + ready_.size(); }

  const std::vector<Job>* jobs_;
  mem::MultiChannelMemory* hbm_;
  sim::Stream<JobTok>* out_;
  uint32_t jobs_in_flight_;
  uint32_t vector_bytes_;
  size_t admitted_ = 0;
  size_t issue_head_ = 0;
  size_t released_ = 0;
  std::vector<size_t> issued_;
  std::vector<uint32_t> outstanding_;
  std::deque<size_t> ready_;
};

}  // namespace

Result<MicroRecEngine> MicroRecEngine::Create(const RecModel* model,
                                              CartesianPlan plan,
                                              const device::DeviceSpec& device,
                                              const MicroRecConfig& config) {
  if (model == nullptr) return Status::InvalidArgument("model is null");
  const uint32_t channels = config.override_hbm_channels
                                ? config.override_hbm_channels
                                : device.memory.hbm_channels;
  if (channels == 0) {
    return Status::InvalidArgument("device has no HBM channels");
  }
  FPGADP_ASSIGN_OR_RETURN(
      MemoryLayout layout,
      PlaceTables(plan, channels, config.sram_budget_bytes,
                  device.memory.hbm_capacity_bytes));
  return MicroRecEngine(model, std::move(plan), std::move(layout), device,
                        config, channels);
}

Result<InferenceStats> MicroRecEngine::RunBatch(size_t num_inferences,
                                                uint64_t seed) const {
  if (num_inferences == 0) {
    return Status::InvalidArgument("need at least one inference");
  }
  // Precompute each inference's lookups.
  Rng rng(seed);
  const uint32_t vector_bytes_default =
      plan_.groups.empty() ? 32 : plan_.groups[0].dim * 2;
  std::vector<Job> jobs(num_inferences);
  uint64_t hbm_lookups = 0, sram_lookups = 0;
  for (auto& job : jobs) {
    job.bytes_per_lookup = vector_bytes_default;
    for (size_t g = 0; g < plan_.groups.size(); ++g) {
      const TableGroup& grp = plan_.groups[g];
      const Placement& p = layout_.placements[g];
      if (p.loc == Loc::kSram) {
        ++job.sram_lookups;
        ++sram_lookups;
      } else {
        const uint64_t row = rng.NextBounded(std::max<uint64_t>(grp.rows, 1));
        job.hbm.emplace_back(p.channel, p.addr + row * grp.dim * 2);
        ++hbm_lookups;
      }
    }
  }

  const uint64_t mlp_cycles =
      (model_->MlpMacs() + config_.mlp_macs_per_cycle - 1) /
      config_.mlp_macs_per_cycle;

  auto simulate = [&](const std::vector<Job>& batch,
                      uint64_t* out_hbm_bytes) -> Result<uint64_t> {
    mem::MemoryChannel::Config mc;
    mc.latency_ns = device_.memory.hbm_latency_ns;
    mc.bytes_per_sec = device_.memory.hbm_bytes_per_sec;
    mc.clock_hz = config_.clock_hz;
    mc.access_granularity = 32;
    mem::MultiChannelMemory hbm("hbm", hbm_channels_, mc);

    sim::Stream<JobTok> to_mlp("to_mlp", 8);
    sim::Stream<JobTok> done("done", 8);
    LookupDispatcher dispatcher("lookup", &batch, &hbm, &to_mlp,
                                config_.jobs_in_flight, vector_bytes_default);
    sim::VarStage<JobTok, JobTok> mlp(
        "mlp", &to_mlp, &done, [](const JobTok& t) { return t; },
        [mlp_cycles](const JobTok&) { return mlp_cycles; });
    sim::VectorSink<JobTok> sink("sink", &done);

    sim::Engine engine(config_.clock_hz);
    hbm.RegisterWith(engine);
    engine.AddModule(&dispatcher);
    engine.AddModule(&mlp);
    engine.AddModule(&sink);
    engine.AddStream(&to_mlp);
    engine.AddStream(&done);
    auto run = engine.Run(1ull << 40);
    if (!run.ok()) return run.status();
    FPGADP_CHECK(sink.collected().size() == batch.size());
    if (out_hbm_bytes != nullptr) *out_hbm_bytes = hbm.TotalBytesTransferred();
    return run.value();
  };

  InferenceStats stats;
  FPGADP_ASSIGN_OR_RETURN(stats.cycles, simulate(jobs, &stats.hbm_bytes));
  stats.seconds = CyclesToSeconds(stats.cycles, config_.clock_hz);
  stats.inferences_per_sec = double(num_inferences) / stats.seconds;
  stats.hbm_lookups = hbm_lookups;
  stats.sram_lookups = sram_lookups;
  stats.mlp_cycles_per_inference = mlp_cycles;

  // Single-inference latency from its own run.
  std::vector<Job> one(jobs.begin(), jobs.begin() + 1);
  FPGADP_ASSIGN_OR_RETURN(const uint64_t lat_cycles, simulate(one, nullptr));
  stats.latency_us = CyclesToSeconds(lat_cycles, config_.clock_hz) * 1e6;
  return stats;
}

}  // namespace fpgadp::microrec
