// E4 — FANNS hardware/algorithm co-design search (tutorial Use Case II).
//
// Shape to verify FANNS' central result: the best (nlist, nprobe, PQ bytes,
// #scan lanes) design point *shifts* with the recall target — there is no
// single accelerator design that wins everywhere, which is why the
// parameter-space tuner exists.

#include <iostream>

#include "src/anns/tuner.h"
#include "src/common/table_printer.h"

#include "bench/bench_common.h"

using namespace fpgadp;
using namespace fpgadp::anns;

int main(int argc, char** argv) {
  fpgadp::bench::Session session(argc, argv);
  std::cout << "=== E4: design-space exploration per recall target ===\n";
  DatasetSpec spec;
  spec.num_base = 15000;
  spec.num_queries = 32;
  spec.dim = 32;
  spec.num_clusters = 256;
  spec.cluster_stddev = 0.35f;
  spec.seed = 4;
  Dataset data = MakeDataset(spec);
  std::cout << "corpus: " << spec.num_base << " x dim" << spec.dim
            << ", exploring nlist x m x nprobe x lanes on a U55C\n\n";

  TablePrinter t({"recall target", "best design", "recall", "QPS",
                  "latency (us)", "points explored"});
  for (double target : {0.5, 0.65, 0.75, 0.8, 0.9}) {
    TunerRequest req;
    req.data = &data;
    req.recall_target = target;
    req.nlist_choices = {32, 64, 128, 256};
    req.m_choices = {4, 8, 16};
    req.scan_lane_choices = {4, 8, 16, 32};
    req.ksub = 128;
    req.pq_train_iters = 4;
    req.device = device::AlveoU55C();
    auto result = ExploreDesignSpace(req);
    if (!result.ok()) {
      std::cerr << "tuner failed: " << result.status() << "\n";
      return session.Fail();
    }
    if (!result->found) {
      t.AddRow({TablePrinter::Fmt(target, 2), "(no feasible design)", "-", "-",
                "-", std::to_string(result->explored.size())});
      continue;
    }
    const DesignPoint& b = result->best;
    t.AddRow({TablePrinter::Fmt(target, 2),
              "nlist=" + std::to_string(b.nlist) + " m=" + std::to_string(b.m) +
                  " nprobe=" + std::to_string(b.nprobe) +
                  " lanes=" + std::to_string(b.scan_lanes),
              TablePrinter::Fmt(b.recall, 3),
              TablePrinter::FmtCount(uint64_t(b.qps)),
              TablePrinter::Fmt(b.latency_us, 1),
              std::to_string(result->explored.size())});
  }
  t.Print(std::cout);
  std::cout << "\npaper expectation: as the recall target tightens, the "
               "winning configuration\nchanges (more probes / finer PQ / "
               "different lane budget) and peak QPS falls —\nthe 'no single "
               "best design' co-design result.\n";
  return 0;
}
