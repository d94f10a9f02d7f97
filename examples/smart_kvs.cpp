// Smart-NIC KVS walkthrough (tutorial §1, the KV-Direct motivation): a
// key-value store served by an FPGA NIC over the 100 Gbps fabric. Shows
// the client API (GET/PUT with tags), hit/miss handling, and the latency
// and throughput the pipeline delivers.

#include <iostream>

#include "src/common/random.h"
#include "src/common/table_printer.h"
#include "src/kvs/smart_kvs.h"
#include "src/sim/engine.h"

using namespace fpgadp;
using namespace fpgadp::kvs;

int main() {
  net::Fabric::Config fc;
  fc.clock_hz = 200e6;
  net::Fabric fabric("fab", 2, fc);
  SmartNicKvs server("kvs", 1, &fabric, SmartNicKvs::Config());
  KvClient client("client", 0, 1, &fabric);
  sim::Engine engine;
  fabric.RegisterWith(engine);
  server.RegisterWith(engine);
  engine.AddModule(&client);

  auto run_until = [&](uint64_t responses) {
    engine.Run(1u << 24,
               [&] { return client.responses_received() >= responses; });
  };

  // Populate 10k keys.
  std::cout << "loading 10,000 key-value pairs onto the NIC...\n";
  for (uint64_t k = 0; k < 10000; ++k) client.Put(k, k * k, k);
  run_until(10000);
  net::Packet resp;
  while (client.PollResponse(&resp)) {
  }
  std::cout << "store holds " << server.size() << " keys\n\n";

  // Mixed lookups: hits and misses.
  const sim::Cycle start = engine.now();
  Rng rng(1);
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    client.Get(rng.NextBounded(20000), uint64_t(i));  // ~50% hit rate
  }
  run_until(10000 + n);
  uint64_t hits = 0, misses = 0;
  while (client.PollResponse(&resp)) {
    (resp.bytes > 0 ? hits : misses)++;
  }
  const double seconds = double(engine.now() - start) / 200e6;

  TablePrinter t({"metric", "value"});
  t.AddRow({"GET ops", TablePrinter::FmtCount(uint64_t(n))});
  t.AddRow({"hits / misses", TablePrinter::FmtCount(hits) + " / " +
                                 TablePrinter::FmtCount(misses)});
  t.AddRow({"throughput", TablePrinter::Fmt(double(n) / seconds / 1e6, 1) +
                              " Mops/s"});
  t.AddRow({"avg latency (closed loop)",
            TablePrinter::Fmt(seconds / n * 1e9, 0) + " ns/op pipelined"});
  CpuKvsModel cpu;
  t.AddRow({"software server model",
            TablePrinter::Fmt(cpu.OpsPerSec() / 1e6, 1) + " Mops/s"});
  t.Print(std::cout);
  std::cout << "\nEvery op costs the NIC one pipelined DRAM bucket access — "
               "no host CPU, no\nsoftware stack — which is the KV-Direct "
               "argument for smart NICs.\n";
  return 0;
}
