// E12 — systolic K-selection (tutorial Use Case II/III: the top-K stage of
// FANNS-style accelerators).
//
// The systolic priority queue sits *inside* the distance pipeline and
// absorbs one candidate per cycle for any K, so K-selection adds zero time
// to the scan (only a K-cycle drain). A CPU must run its heap on top of
// the distance loop, and the heap's comparison count grows with K and with
// how often candidates beat the current max (worst case: a descending
// stream, where every candidate hits).
//
// Shape to verify: the accelerator's selection overhead is flat in K and
// in stream order; the CPU's grows with both.

#include <algorithm>
#include <iostream>

#include "src/anns/topk.h"
#include "src/common/random.h"
#include "src/common/table_printer.h"

#include "bench/bench_common.h"

using namespace fpgadp;
using namespace fpgadp::anns;

int main(int argc, char** argv) {
  fpgadp::bench::Session session(argc, argv);
  std::cout << "=== E12: K-selection overhead on top of a distance scan ===\n";
  const uint32_t n = 1 << 20;
  std::cout << "stream: " << n << " candidates, seed 12; scan itself takes "
            << n << " cycles (1/cycle) on FPGA, " << n
            << " ns-scale ops on CPU\n\n";

  Rng rng(12);
  std::vector<float> random_stream(n);
  for (auto& d : random_stream) d = float(rng.NextDouble());
  std::vector<float> descending = random_stream;
  std::sort(descending.begin(), descending.end(), std::greater<float>());

  const double clock = 200e6;
  const double cpu_ns_per_compare = 1.0;

  TablePrinter t({"stream", "K", "FPGA extra cycles", "FPGA overhead %",
                  "CPU heap compares", "CPU overhead %"});
  struct Case {
    const char* name;
    const std::vector<float>* stream;
  };
  const Case cases[] = {{"random", &random_stream},
                        {"descending (adversarial)", &descending}};
  for (const Case& c : cases) {
    for (size_t k : {10u, 100u, 500u}) {
      SystolicTopK systolic(k);
      HeapTopK heap(k);
      for (uint32_t i = 0; i < n; ++i) {
        systolic.Insert((*c.stream)[i], i);
        heap.Insert((*c.stream)[i], i);
      }
      // Sanity: identical selections (distances; ids may tie).
      const auto a = systolic.Results();
      const auto b = heap.Results();
      if (a.size() != b.size() || a.back().distance != b.back().distance) {
        std::cerr << "MISMATCH between systolic and heap results\n";
        return session.Fail();
      }
      // FPGA: insertion is pipelined behind the scan; only the drain adds.
      const uint64_t fpga_extra = systolic.DrainCycles();
      const double fpga_overhead = 100.0 * double(fpga_extra) / double(n);
      // CPU: every heap compare is extra work on top of the distance loop.
      const double cpu_scan_ns = double(n);  // ~1 ns/candidate distance math
      const double cpu_heap_ns =
          double(heap.compares()) * cpu_ns_per_compare;
      const double cpu_overhead = 100.0 * cpu_heap_ns / cpu_scan_ns;
      t.AddRow({c.name, std::to_string(k),
                TablePrinter::FmtCount(fpga_extra),
                TablePrinter::Fmt(fpga_overhead, 3),
                TablePrinter::FmtCount(heap.compares()),
                TablePrinter::Fmt(cpu_overhead, 0)});
    }
  }
  t.Print(std::cout);
  const double scan_ms = double(n) / clock * 1e3;
  std::cout << "\n(scan baseline: " << TablePrinter::Fmt(scan_ms, 2)
            << " ms at one candidate/cycle)\n";
  std::cout << "\npaper expectation: hardware K-selection is free — overhead "
               "flat near 0% for\nevery K and stream order — while the CPU "
               "heap adds ~100% overhead on random\nstreams and blows up "
               "with K on adversarial ones.\n";
  return 0;
}
