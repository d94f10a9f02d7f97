#include "src/farview/farview.h"

#include <gtest/gtest.h>

#include "src/relational/cpu_executor.h"
#include "src/relational/queries.h"
#include "src/relational/table.h"

namespace fpgadp::farview {
namespace {

rel::Table TestTable(uint64_t rows) {
  rel::SyntheticTableSpec spec;
  spec.num_rows = rows;
  spec.num_categories = 16;
  spec.seed = 21;
  return rel::MakeSyntheticTable(spec);
}

rel::Program SelectiveProgram(int64_t qty_ge) {
  rel::Program prog;
  rel::FilterOp f;
  f.conjuncts.push_back(rel::Predicate{4, rel::CmpOp::kGe, qty_ge});
  prog.ops.push_back(f);
  return prog;
}

rel::Program CountProgram() {
  return rel::Program{{rel::AggregateOp{rel::AggKind::kCount, 0, false}}};
}

TEST(FarviewTest, OffloadedResultMatchesCpu) {
  FarviewSystem sys;
  rel::Table t = TestTable(5000);
  auto expected = rel::ExecuteCpu(SelectiveProgram(40), t);
  ASSERT_TRUE(expected.ok());
  const uint64_t tid = sys.LoadTable(t);
  const uint64_t pid = sys.RegisterProgram(SelectiveProgram(40));
  auto stats = sys.RunOffloaded(tid, pid);
  ASSERT_TRUE(stats.ok()) << stats.status();
  ASSERT_EQ(stats->result.num_rows(), expected->num_rows());
  for (size_t i = 0; i < expected->num_rows(); ++i) {
    EXPECT_EQ(stats->result.row(i), expected->row(i));
  }
}

TEST(FarviewTest, FetchAllResultMatchesCpu) {
  FarviewSystem sys;
  rel::Table t = TestTable(2000);
  auto expected = rel::ExecuteCpu(SelectiveProgram(25), t);
  ASSERT_TRUE(expected.ok());
  const uint64_t tid = sys.LoadTable(t);
  const uint64_t pid = sys.RegisterProgram(SelectiveProgram(25));
  auto stats = sys.RunFetchAll(tid, pid);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->result.num_rows(), expected->num_rows());
}

TEST(FarviewTest, OffloadMovesOnlyResultBytes) {
  FarviewSystem sys;
  rel::Table t = TestTable(8000);
  const uint64_t tid = sys.LoadTable(t);
  const uint64_t pid = sys.RegisterProgram(SelectiveProgram(48));  // ~6%
  auto off = sys.RunOffloaded(tid, pid);
  auto fetch = sys.RunFetchAll(tid, pid);
  ASSERT_TRUE(off.ok() && fetch.ok());
  EXPECT_EQ(fetch->wire_bytes, t.total_bytes());
  EXPECT_EQ(off->wire_bytes, off->result.total_bytes());
  EXPECT_LT(off->wire_bytes, fetch->wire_bytes / 10);
}

TEST(FarviewTest, AggregationOffloadIsTiny) {
  FarviewSystem sys;
  rel::Table t = TestTable(8000);
  const uint64_t tid = sys.LoadTable(t);
  const uint64_t pid = sys.RegisterProgram(CountProgram());
  auto off = sys.RunOffloaded(tid, pid);
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off->result.num_rows(), 1u);
  EXPECT_EQ(off->result.row(0).Get(0), 8000);
  EXPECT_EQ(off->wire_bytes, 8u);  // one 8-byte count
  // But the memory node still scanned the whole table locally.
  EXPECT_GE(off->dram_bytes, t.total_bytes());
}

TEST(FarviewTest, OffloadBeatsFetchAllOnSelectiveQueries) {
  FarviewSystem sys;
  rel::Table t = TestTable(20000);
  const uint64_t tid = sys.LoadTable(t);
  const uint64_t pid = sys.RegisterProgram(SelectiveProgram(45));
  auto off = sys.RunOffloaded(tid, pid);
  auto fetch = sys.RunFetchAll(tid, pid);
  ASSERT_TRUE(off.ok() && fetch.ok());
  EXPECT_LT(off->seconds, fetch->seconds)
      << "selective offload must beat moving the table";
}

TEST(FarviewTest, UnknownProgramIsError) {
  FarviewSystem sys;
  const uint64_t tid = sys.LoadTable(TestTable(10));
  EXPECT_EQ(sys.RunOffloaded(tid, 999).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(sys.RunFetchAll(tid, 999).status().code(), StatusCode::kNotFound);
}

// A bad request fails before any packet is posted: the clock does not move
// and the next good query runs as if the bad one had never been made.
void ExpectRejectedWithoutTraffic(FarviewSystem& sys, uint64_t tid,
                                  uint64_t pid, StatusCode code,
                                  uint64_t good_tid, uint64_t good_pid) {
  const sim::Cycle before = sys.engine().now();
  EXPECT_EQ(sys.RunOffloaded(tid, pid).status().code(), code);
  EXPECT_EQ(sys.RunFetchAll(tid, pid).status().code(), code);
  double makespan = 0;
  // The good request comes first: it must not be posted either.
  EXPECT_EQ(sys.RunOffloadedConcurrently({{good_tid, good_pid}, {tid, pid}},
                                         &makespan)
                .status()
                .code(),
            code);
  EXPECT_EQ(sys.engine().now(), before);
  auto good = sys.RunOffloaded(good_tid, good_pid);
  ASSERT_TRUE(good.ok()) << good.status();
  EXPECT_EQ(good->result.row(0).Get(0), 10);
}

TEST(FarviewTest, UnknownTableIsNotFound) {
  FarviewSystem sys;
  const uint64_t tid = sys.LoadTable(TestTable(10));
  const uint64_t pid = sys.RegisterProgram(CountProgram());
  ExpectRejectedWithoutTraffic(sys, tid + 1, pid, StatusCode::kNotFound, tid,
                               pid);
}

TEST(FarviewTest, ProgramThatCannotRunOverTheTableIsInvalidArgument) {
  FarviewSystem sys;
  const uint64_t tid = sys.LoadTable(TestTable(10));  // 5 columns
  const uint64_t count = sys.RegisterProgram(CountProgram());
  rel::Program bad;
  rel::FilterOp f;
  f.conjuncts.push_back(rel::Predicate{9, rel::CmpOp::kGe, 0});
  bad.ops.push_back(f);
  ExpectRejectedWithoutTraffic(sys, tid, sys.RegisterProgram(bad),
                               StatusCode::kInvalidArgument, tid, count);
}

TEST(FarviewTest, BackToBackQueriesReuseTheSystem) {
  FarviewSystem sys;
  const uint64_t tid = sys.LoadTable(TestTable(3000));
  const uint64_t p1 = sys.RegisterProgram(SelectiveProgram(10));
  const uint64_t p2 = sys.RegisterProgram(CountProgram());
  auto a = sys.RunOffloaded(tid, p1);
  auto b = sys.RunOffloaded(tid, p2);
  auto c = sys.RunOffloaded(tid, p1);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(a->result.num_rows(), c->result.num_rows());
  EXPECT_EQ(b->result.row(0).Get(0), 3000);
}

TEST(FarviewTest, MultipleTables) {
  FarviewSystem sys;
  const uint64_t small = sys.LoadTable(TestTable(100));
  const uint64_t big = sys.LoadTable(TestTable(5000));
  const uint64_t pid = sys.RegisterProgram(CountProgram());
  auto s = sys.RunOffloaded(small, pid);
  auto b = sys.RunOffloaded(big, pid);
  ASSERT_TRUE(s.ok() && b.ok());
  EXPECT_EQ(s->result.row(0).Get(0), 100);
  EXPECT_EQ(b->result.row(0).Get(0), 5000);
}

TEST(FarviewTest, ScanIsDramBandwidthBound) {
  // With 2 DDR channels @19.2 GB/s and a 200 MHz clock, the node ingests
  // ~192 B/cycle; a table of B bytes should scan in ~B/192 cycles plus
  // request/response overheads.
  FarviewConfig cfg;
  FarviewSystem sys(cfg);
  rel::Table t = TestTable(50000);  // 2 MB
  const uint64_t tid = sys.LoadTable(t);
  const uint64_t pid = sys.RegisterProgram(CountProgram());
  auto off = sys.RunOffloaded(tid, pid);
  ASSERT_TRUE(off.ok());
  const double bytes_per_cycle = 2 * 19.2e9 / 200e6;
  const uint64_t lower = uint64_t(t.total_bytes() / bytes_per_cycle);
  EXPECT_GE(off->cycles, lower);
  EXPECT_LE(off->cycles, 40 * lower)
      << "scan should be within a small factor of the bandwidth bound";
}

// The node streams survivors as pages clear its operator pipeline and sends
// whole packets, so the first result packet follows the data.

/// The table of the streaming tests; its scan takes about 10k cycles.
rel::Table StreamTable() { return TestTable(50000); }

/// Cycles of an offloaded count over `tid`: one scan of the table plus the
/// trip of one small packet.
uint64_t ScanCycles(FarviewSystem& sys, uint64_t tid) {
  auto count = sys.RunOffloaded(tid, sys.RegisterProgram(CountProgram()));
  EXPECT_TRUE(count.ok()) << count.status();
  return count.ok() ? count->cycles : 0;
}

TEST(FarviewStreamingTest, SkewedSurvivorsLeaveAtTheEndOfTheScan) {
  FarviewSystem sys;
  rel::Table t = StreamTable();
  // qty >= 1 keeps exactly the last 10 % of the rows.
  const size_t cold = t.num_rows() * 9 / 10;
  for (size_t i = 0; i < t.num_rows(); ++i) {
    t.row(i).Set(4, i < cold ? 0 : 1);
  }
  const uint64_t tid = sys.LoadTable(t);
  const uint64_t scan = ScanCycles(sys, tid);
  auto skewed = sys.RunOffloaded(tid, sys.RegisterProgram(SelectiveProgram(1)));
  ASSERT_TRUE(skewed.ok()) << skewed.status();
  ASSERT_EQ(skewed->result.num_rows(), t.num_rows() - cold);
  EXPECT_GE(skewed->first_result_cycles * 10, scan * 9)
      << "a result byte left before its row was scanned";
}

TEST(FarviewStreamingTest, UniformSurvivorsLeaveFromTheStartOfTheScan) {
  FarviewSystem sys;
  const uint64_t tid = sys.LoadTable(StreamTable());
  const uint64_t scan = ScanCycles(sys, tid);
  auto uniform =
      sys.RunOffloaded(tid, sys.RegisterProgram(SelectiveProgram(26)));
  ASSERT_TRUE(uniform.ok()) << uniform.status();
  EXPECT_GT(uniform->result_packets, 10u);
  EXPECT_LE(uniform->first_result_cycles * 10, scan)
      << "the wire waited although survivors arrived from the first page";
}

TEST(FarviewStreamingTest, AggregateLeavesInOnePacketAfterTheLastPage) {
  FarviewConfig cfg;
  FarviewSystem sys(cfg);
  const rel::Table t = StreamTable();
  const uint64_t tid = sys.LoadTable(t);
  auto sum = sys.RunOffloaded(
      tid, sys.RegisterProgram(rel::Program{
               {rel::AggregateOp{rel::AggKind::kSum, 4, false}}}));
  ASSERT_TRUE(sum.ok()) << sum.status();
  EXPECT_EQ(sum->result_packets, 1u);
  EXPECT_EQ(sum->first_result_cycles, sum->cycles);
  // The DRAM cannot deliver the last page sooner than its bandwidth allows.
  const double bytes_per_cycle =
      cfg.ddr_channels * cfg.ddr_bytes_per_sec / cfg.clock_hz;
  EXPECT_GE(double(sum->first_result_cycles),
            double(t.total_bytes()) / bytes_per_cycle);
}

TEST(FarviewStreamingTest, EveryAnswerLeavesInWholeChunksPlusOne) {
  FarviewConfig cfg;
  FarviewSystem sys(cfg);
  const uint64_t tid = sys.LoadTable(TestTable(20000));
  const uint64_t compressed = sys.LoadTableCompressed(TestTable(20000));
  rel::Program project;
  project.ops.push_back(rel::ProjectOp{{0, 4}});
  const rel::Program programs[] = {
      SelectiveProgram(0),  SelectiveProgram(26), SelectiveProgram(49),
      SelectiveProgram(51),  // no survivors
      CountProgram(),       rel::MakeQ1Lite(),    rel::MakeQ6Lite(),
      rel::MakeTopExpensive(), project,           rel::Program{},
  };
  for (const rel::Program& program : programs) {
    const uint64_t pid = sys.RegisterProgram(program);
    for (uint64_t table : {tid, compressed}) {
      SCOPED_TRACE(program.ToString() + (table == tid ? " raw" : " lz"));
      auto off = sys.RunOffloaded(table, pid);
      ASSERT_TRUE(off.ok()) << off.status();
      const uint64_t bytes = off->result.total_bytes();
      EXPECT_EQ(off->wire_bytes, bytes);
      EXPECT_GE(off->result_packets, 1u);
      EXPECT_LE(off->result_packets,
                (bytes + cfg.result_chunk_bytes - 1) / cfg.result_chunk_bytes +
                    1);
      EXPECT_LE(off->first_result_cycles, off->cycles);
    }
  }
}

}  // namespace
}  // namespace fpgadp::farview
