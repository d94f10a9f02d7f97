// E6 — HBM pseudo-channel scaling (tutorial Use Case III: "The accelerator
// takes advantage of High Bandwidth Memory ... allocate the tables to many
// banks").
//
// Shape to verify: embedding-lookup throughput scales with the number of
// HBM pseudo-channels serving the tables (until another stage dominates),
// and SRAM placement removes lookups from HBM entirely.

#include <algorithm>
#include <chrono>
#include <iostream>
#include <memory>
#include <vector>

#include "src/common/table_printer.h"
#include "src/memory/channel.h"
#include "src/microrec/cartesian.h"
#include "src/microrec/engine.h"
#include "src/microrec/model.h"
#include "src/sim/engine.h"

#include "bench/bench_common.h"

using namespace fpgadp;
using namespace fpgadp::microrec;

namespace {

/// Drives one HBM pseudo-channel with a fixed stream of random-granule
/// reads.
class ChannelReader : public sim::Module {
 public:
  ChannelReader(std::string name, sim::Stream<mem::MemRequest>* req,
                sim::Stream<mem::MemResponse>* resp, uint64_t total)
      : sim::Module(std::move(name)), req_(req), resp_(resp), to_issue_(total),
        to_receive_(total) {
    req_->BindProducer(this);
    resp_->BindConsumer(this);
  }

  void Tick(sim::Cycle) override {
    bool progressed = false;
    while (to_issue_ > 0 && req_->CanWrite()) {
      mem::MemRequest r;
      r.id = to_issue_;
      // Strided sub-granule reads: the worst case for bus efficiency.
      r.addr = to_issue_ * 192;
      r.bytes = 32;
      req_->Write(r);
      --to_issue_;
      progressed = true;
    }
    while (resp_->CanRead()) {
      resp_->Read();
      --to_receive_;
      progressed = true;
    }
    if (progressed) {
      MarkBusy();
    } else if (to_issue_ > 0) {
      MarkStall(sim::StallKind::kOutputBlocked);
    }
  }

  bool Idle() const override { return to_issue_ == 0 && to_receive_ == 0; }

  sim::Cycle NextEventCycle(sim::Cycle now) const override {
    // With requests still to issue the reader acts every cycle; once all
    // are in flight it is reactive (waiting on channel responses).
    return to_issue_ > 0 ? now : sim::kNoEventCycle;
  }

 private:
  sim::Stream<mem::MemRequest>* req_;
  sim::Stream<mem::MemResponse>* resp_;
  uint64_t to_issue_;
  uint64_t to_receive_;
};

/// Runs `channels` independent channel+reader pairs to completion with
/// Run(), or with the Step() loop when `stepped`; returns elapsed simulated
/// cycles and reports wall time through `out_ms`.
uint64_t ChannelStressRun(uint32_t channels, uint64_t reads_per_channel,
                          bool stepped, double* out_ms) {
  sim::Engine engine;
  std::vector<std::unique_ptr<sim::Stream<mem::MemRequest>>> reqs;
  std::vector<std::unique_ptr<sim::Stream<mem::MemResponse>>> resps;
  std::vector<std::unique_ptr<mem::MemoryChannel>> chans;
  std::vector<std::unique_ptr<ChannelReader>> readers;
  mem::MemoryChannel::Config mc;  // HBM2 pseudo-channel defaults
  for (uint32_t c = 0; c < channels; ++c) {
    const std::string tag = "ch" + std::to_string(c);
    reqs.push_back(std::make_unique<sim::Stream<mem::MemRequest>>(
        tag + ".req", 16));
    resps.push_back(std::make_unique<sim::Stream<mem::MemResponse>>(
        tag + ".resp", 16));
    chans.push_back(std::make_unique<mem::MemoryChannel>(
        "hbm." + tag, reqs.back().get(), resps.back().get(), mc));
    readers.push_back(std::make_unique<ChannelReader>(
        "rd." + tag, reqs.back().get(), resps.back().get(),
        reads_per_channel));
    engine.AddModule(readers.back().get());
    engine.AddModule(chans.back().get());
    engine.AddStream(reqs.back().get());
    engine.AddStream(resps.back().get());
  }
  const auto t0 = std::chrono::steady_clock::now();
  auto run = stepped ? sim::StepUntilQuiesced(engine, 1ull << 30)
                     : engine.Run(1ull << 30);
  const auto t1 = std::chrono::steady_clock::now();
  *out_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  return run.ok() ? *run : 0;
}

}  // namespace

int main(int argc, char** argv) {
  fpgadp::bench::Session session(argc, argv);
  std::cout << "=== E6: lookup throughput vs # HBM pseudo-channels ===\n";
  // Lookup-only workload: trivial MLP, no SRAM, so memory is the bottleneck.
  RecModel model = MakeTypicalModel(/*num_tables=*/64, /*seed=*/11, 10000,
                                    500000, 16);
  model.hidden_layers = {};
  std::cout << "model: 64 HBM-resident tables, no SRAM, output-only MLP, "
               "batch 256\n\n";

  TablePrinter t({"channels", "inferences/s", "scaling vs 1ch",
                  "latency (us)"});
  double base_ips = 0;
  for (uint32_t ch : {1u, 2u, 4u, 8u, 16u, 32u}) {
    MicroRecConfig cfg;
    cfg.sram_budget_bytes = 0;
    cfg.override_hbm_channels = ch;
    cfg.jobs_in_flight = 32;
    auto engine = MicroRecEngine::Create(&model, PlanWithoutCartesian(model),
                                         device::AlveoU280(), cfg);
    if (!engine.ok()) {
      std::cerr << "create failed: " << engine.status() << "\n";
      return session.Fail();
    }
    auto stats = engine->RunBatch(256, 123);
    if (!stats.ok()) {
      std::cerr << "run failed: " << stats.status() << "\n";
      return session.Fail();
    }
    if (ch == 1) base_ips = stats->inferences_per_sec;
    t.AddRow({std::to_string(ch),
              TablePrinter::FmtCount(uint64_t(stats->inferences_per_sec)),
              TablePrinter::Fmt(stats->inferences_per_sec / base_ips, 2) + "x",
              TablePrinter::Fmt(stats->latency_us, 2)});
  }
  t.Print(std::cout);

  // SRAM ablation at a fixed channel count.
  std::cout << "\n--- SRAM placement ablation (8 channels) ---\n";
  TablePrinter s({"SRAM budget", "SRAM lookups/inf", "HBM lookups/inf",
                  "inferences/s"});
  for (uint64_t budget : {0ull, 256ull << 10, 1ull << 20, 8ull << 20}) {
    RecModel mixed = MakeTypicalModel(64, 13, 50, 500000, 16);
    mixed.hidden_layers = {};
    MicroRecConfig cfg;
    cfg.sram_budget_bytes = budget;
    cfg.override_hbm_channels = 8;
    cfg.jobs_in_flight = 32;
    auto engine = MicroRecEngine::Create(&mixed, PlanWithoutCartesian(mixed),
                                         device::AlveoU280(), cfg);
    if (!engine.ok()) continue;
    const size_t batch = 256;
    auto stats = engine->RunBatch(batch, 127);
    if (!stats.ok()) continue;
    s.AddRow({TablePrinter::FmtCount(budget) + " B",
              TablePrinter::Fmt(double(stats->sram_lookups) / batch, 1),
              TablePrinter::Fmt(double(stats->hbm_lookups) / batch, 1),
              TablePrinter::FmtCount(uint64_t(stats->inferences_per_sec))});
  }
  s.Print(std::cout);

  // Scheduler stress: 32 independent channel+reader pairs, every one busy
  // for most of the run. Run() must reproduce the Step() loop's simulated
  // cycle count bit-for-bit; only wall-clock time may change.
  std::cout << "\n--- scheduler stress: 32 channels x 20k reads, Run() vs "
               "the Step() loop ---\n";
  double ms_step = 0, ms_run = 0;
  const uint64_t cyc_step = ChannelStressRun(32, 20000, true, &ms_step);
  const uint64_t cyc_run = ChannelStressRun(32, 20000, false, &ms_run);
  if (cyc_step == 0 || cyc_step != cyc_run) {
    std::cerr << "FAIL: Run() diverged from the Step() loop (" << cyc_run
              << " vs " << cyc_step << " cycles)\n";
    return session.Fail();
  }
  TablePrinter pt({"driver", "sim cycles", "wall time"});
  pt.AddRow({"Step() loop", TablePrinter::FmtCount(cyc_step),
             TablePrinter::Fmt(ms_step, 1) + " ms"});
  pt.AddRow({"Run()", TablePrinter::FmtCount(cyc_run),
             TablePrinter::Fmt(ms_run, 1) + " ms"});
  pt.Print(std::cout);
  std::cout << "determinism check: cycle counts bit-identical between Run() "
               "and the Step() loop\n";

  std::cout << "\npaper expectation: near-linear scaling while the channels "
               "are the bottleneck,\nflattening once lookup latency / other "
               "stages dominate; SRAM absorbs the small\ntables' lookups "
               "(single-cycle) and lifts throughput at a fixed channel "
               "count.\n";
  return 0;
}
