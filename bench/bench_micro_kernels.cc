// Micro-benchmarks (google-benchmark) of the real CPU implementations
// behind the simulator: PRNG, hashing, sketches, codecs, cipher, PQ
// distance math, and the simulator's own stepping overhead. These are the
// measured-wall-clock complement to the modeled numbers in E1-E12.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"

#include <vector>

#include "src/anns/dataset.h"
#include "src/anns/ivf.h"
#include "src/anns/kmeans.h"
#include "src/anns/topk.h"
#include "src/common/check.h"
#include "src/common/random.h"
#include "src/relational/cipher.h"
#include "src/relational/compression.h"
#include "src/relational/cpu_executor.h"
#include "src/relational/queries.h"
#include "src/relational/sketches.h"
#include "src/relational/table.h"
#include "src/shard/partitioner.h"
#include "src/sim/engine.h"
#include "src/sim/kernels.h"

namespace fpgadp {
namespace {

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Next());
  }
}
BENCHMARK(BM_RngNext);

void BM_Hash64(benchmark::State& state) {
  uint64_t x = 12345;
  for (auto _ : state) {
    x = rel::Hash64(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_Hash64);

void BM_HllAdd(benchmark::State& state) {
  auto hll = rel::HyperLogLog::Create(14);
  Rng rng(2);
  for (auto _ : state) {
    hll->Add(rng.Next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HllAdd);

void BM_CountMinAdd(benchmark::State& state) {
  auto cm = rel::CountMinSketch::Create(4096, 4);
  Rng rng(3);
  for (auto _ : state) {
    cm->Add(rng.Next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CountMinAdd);

void BM_ChaCha20(benchmark::State& state) {
  std::array<uint8_t, 32> key{};
  std::array<uint8_t, 12> nonce{};
  std::vector<uint8_t> buf(size_t(state.range(0)), 0xAA);
  for (auto _ : state) {
    rel::ChaCha20 c(key, nonce);
    c.Apply(buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChaCha20)->Arg(4096)->Arg(1 << 20);

void BM_LzCompress(benchmark::State& state) {
  Rng rng(4);
  std::vector<uint8_t> data(size_t(state.range(0)));
  uint8_t cur = 0;
  for (auto& b : data) {
    if (rng.NextBounded(8) == 0) cur = uint8_t(rng.NextBounded(16));
    b = cur;
  }
  for (auto _ : state) {
    auto out = rel::LzCompress(data);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LzCompress)->Arg(1 << 16);

// IvfPqIndex::SearchLists over one shard's slice, at the perfbench
// anns_fanout shape: 100k x 32 corpus, nlist 64, PQ 8 x 32, the probes of
// one query at nprobe 32 that hash to shard 0 of 8, top-10. The
// time_per_code counter is host time per scanned code, LUT builds and top-k
// included.
struct AnnsFanoutIndex {
  anns::Dataset data;
  anns::IvfPqIndex index;
};

const AnnsFanoutIndex& FanoutIndex() {
  static const AnnsFanoutIndex fixture = [] {
    anns::DatasetSpec spec;
    spec.num_base = 100000;
    spec.num_queries = 1;
    spec.dim = 32;
    spec.num_clusters = 32;
    spec.cluster_stddev = 0.3f;
    spec.seed = 29;
    anns::Dataset data = anns::MakeDataset(spec);
    anns::IvfPqIndex::Options io;
    io.nlist = 64;
    io.pq.m = 8;
    io.pq.ksub = 32;
    io.pq.train_iters = 6;
    auto index = anns::IvfPqIndex::Build(data.base, data.dim, io);
    FPGADP_CHECK(index.ok());
    return AnnsFanoutIndex{std::move(data), std::move(index).value()};
  }();
  return fixture;
}

void BM_SearchLists(benchmark::State& state) {
  const AnnsFanoutIndex& fx = FanoutIndex();
  const float* query = fx.data.QueryVector(0);
  const shard::Partitioner shards = shard::Partitioner::Hash(8);
  std::vector<uint32_t> slice;
  uint64_t codes = 0;
  for (uint32_t list : fx.index.SelectProbes(query, 32)) {
    if (shards.ShardOf(list) != 0) continue;
    slice.push_back(list);
    codes += fx.index.list(list).ids.size();
  }
  for (auto _ : state) {
    auto top = fx.index.SearchLists(query, slice, 10);
    benchmark::DoNotOptimize(top.data());
  }
  state.SetItemsProcessed(state.iterations() * codes);
  state.counters["time_per_code"] = benchmark::Counter(
      double(codes), benchmark::Counter::kIsIterationInvariantRate |
                         benchmark::Counter::kInvert);
}
BENCHMARK(BM_SearchLists);

// One vector against every centroid of a k x d table, the inner step of
// k-means assignment, PQ encoding, LUT builds and probe selection: the
// scalar per-centroid SquaredL2 loop, and the blocked CentroidTable kernel
// that computes the same bits. Args are {k, d}: the perfbench anns_fanout
// index's coarse quantizer (64 x 32) and a PQ sub-quantizer (32 x 4).
struct CentroidDistanceInputs {
  explicit CentroidDistanceInputs(const benchmark::State& state)
      : k(size_t(state.range(0))), dim(size_t(state.range(1))),
        centroids(k * dim), v(dim), out(k) {
    Rng rng(7);
    for (auto& x : centroids) x = float(rng.NextDouble());
    for (auto& x : v) x = float(rng.NextDouble());
  }
  size_t k, dim;
  std::vector<float> centroids, v, out;
};

void BM_CentroidDistancesScalar(benchmark::State& state) {
  CentroidDistanceInputs in(state);
  for (auto _ : state) {
    for (size_t c = 0; c < in.k; ++c) {
      in.out[c] = anns::SquaredL2(in.centroids.data() + c * in.dim, in.v.data(), in.dim);
    }
    benchmark::DoNotOptimize(in.out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * in.k);
}
BENCHMARK(BM_CentroidDistancesScalar)->Args({64, 32})->Args({32, 4});

void BM_CentroidDistancesBlocked(benchmark::State& state) {
  CentroidDistanceInputs in(state);
  const anns::CentroidTable table(in.centroids.data(), in.k, in.dim);
  for (auto _ : state) {
    table.Distances(in.v.data(), in.out.data());
    benchmark::DoNotOptimize(in.out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * in.k);
}
BENCHMARK(BM_CentroidDistancesBlocked)->Args({64, 32})->Args({32, 4});

void BM_SystolicTopK(benchmark::State& state) {
  Rng rng(6);
  std::vector<float> stream(10000);
  for (auto& d : stream) d = float(rng.NextDouble());
  for (auto _ : state) {
    anns::SystolicTopK topk(size_t(state.range(0)));
    for (uint32_t i = 0; i < stream.size(); ++i) topk.Insert(stream[i], i);
    benchmark::DoNotOptimize(topk.Results().data());
  }
  state.SetItemsProcessed(state.iterations() * stream.size());
}
BENCHMARK(BM_SystolicTopK)->Arg(10)->Arg(100);

// The relational CPU executor at the perfbench farview_scan shape: 500k
// rows; filters at selectivity 1.0 (qty >= 1) and 0.04 (qty >= 49);
// Q1-lite; Q6-lite; Top-10. It pushes the whole table through one
// rel::Pipeline; the Farview memory node runs the same operator work, one
// page's rows per push.
const rel::Table& FarviewScanTable() {
  static const rel::Table table = [] {
    rel::SyntheticTableSpec spec;
    spec.num_rows = 500000;
    spec.seed = 1;
    return rel::MakeSyntheticTable(spec);
  }();
  return table;
}

rel::Program QtyAtLeast(int64_t qty) {
  rel::FilterOp f;
  f.conjuncts.push_back(rel::Predicate{4, rel::CmpOp::kGe, qty});
  rel::Program p;
  p.ops.push_back(f);
  return p;
}

void BM_ExecuteCpu(benchmark::State& state, const rel::Program& program) {
  const rel::Table& table = FarviewScanTable();
  for (auto _ : state) {
    auto out = rel::ExecuteCpu(program, table);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * table.num_rows());
}
BENCHMARK_CAPTURE(BM_ExecuteCpu, filter_sel_1_00, QtyAtLeast(1))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ExecuteCpu, filter_sel_0_04, QtyAtLeast(49))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ExecuteCpu, q1_lite, rel::MakeQ1Lite())
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ExecuteCpu, q6_lite, rel::MakeQ6Lite())
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ExecuteCpu, top10, rel::MakeTopExpensive())
    ->Unit(benchmark::kMillisecond);

void BM_SimulatorStep(benchmark::State& state) {
  // Cost of one engine cycle for a 3-module pipeline — the simulator's
  // own overhead per simulated cycle.
  std::vector<int> data(1 << 20, 1);
  sim::Stream<int> in("in", 8), out("out", 8);
  sim::VectorSource<int> src("src", data, &in);
  sim::TransformKernel<int, int> k(
      "k", &in, &out, [](const int& v) { return std::optional<int>(v); });
  sim::VectorSink<int> sink("sink", &out);
  sim::Engine e;
  e.AddModule(&src);
  e.AddModule(&k);
  e.AddModule(&sink);
  e.AddStream(&in);
  e.AddStream(&out);
  for (auto _ : state) {
    e.Step();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorStep);

}  // namespace
}  // namespace fpgadp

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);  // strips --benchmark_*; Session gets the rest
  fpgadp::bench::Session session(argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
