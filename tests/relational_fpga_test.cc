#include "src/relational/fpga_executor.h"

#include <gtest/gtest.h>

#include "src/relational/cpu_executor.h"
#include "src/relational/table.h"

namespace fpgadp::rel {
namespace {

Table SmallTable(uint64_t rows = 2000) {
  SyntheticTableSpec spec;
  spec.num_rows = rows;
  spec.num_categories = 8;
  spec.seed = 5;
  return MakeSyntheticTable(spec);
}

void ExpectTablesEqual(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_TRUE(a.schema() == b.schema());
  for (size_t i = 0; i < a.num_rows(); ++i) {
    EXPECT_EQ(a.row(i), b.row(i)) << "row " << i;
  }
}

Program FilterProgram(int64_t qty_ge) {
  Program prog;
  FilterOp f;
  f.conjuncts.push_back(Predicate{4, CmpOp::kGe, qty_ge});
  prog.ops.push_back(f);
  return prog;
}

TEST(FpgaExecutorTest, FilterMatchesCpu) {
  Table t = SmallTable();
  Program prog = FilterProgram(25);
  auto cpu = ExecuteCpu(prog, t);
  auto fpga = ExecuteFpga(prog, t);
  ASSERT_TRUE(cpu.ok());
  ASSERT_TRUE(fpga.ok());
  ExpectTablesEqual(*cpu, fpga->output);
}

TEST(FpgaExecutorTest, IdentityProgramCopies) {
  Table t = SmallTable(100);
  auto fpga = ExecuteFpga(Program{}, t);
  ASSERT_TRUE(fpga.ok());
  ExpectTablesEqual(t, fpga->output);
}

TEST(FpgaExecutorTest, AggregateMatchesCpu) {
  Table t = SmallTable();
  Program prog;
  prog.ops.push_back(AggregateOp{AggKind::kSum, 4, false});
  auto cpu = ExecuteCpu(prog, t);
  auto fpga = ExecuteFpga(prog, t);
  ASSERT_TRUE(cpu.ok() && fpga.ok());
  ExpectTablesEqual(*cpu, fpga->output);
}

TEST(FpgaExecutorTest, FilterProjectAggregateChainMatchesCpu) {
  Table t = SmallTable();
  Program prog;
  FilterOp f;
  f.conjuncts.push_back(Predicate{2, CmpOp::kLe, 3});
  prog.ops.push_back(f);
  prog.ops.push_back(ProjectOp{{1, 4}});
  prog.ops.push_back(AggregateOp{AggKind::kSum, 1, false});
  auto cpu = ExecuteCpu(prog, t);
  auto fpga = ExecuteFpga(prog, t);
  ASSERT_TRUE(cpu.ok() && fpga.ok());
  ExpectTablesEqual(*cpu, fpga->output);
}

TEST(FpgaExecutorTest, GroupByMatchesCpu) {
  Table t = SmallTable();
  Program prog;
  GroupByOp g;
  g.group_column = 2;
  g.agg = AggregateOp{AggKind::kSum, 4, false};
  prog.ops.push_back(g);
  auto cpu = ExecuteCpu(prog, t);
  auto fpga = ExecuteFpga(prog, t);
  ASSERT_TRUE(cpu.ok() && fpga.ok());
  ExpectTablesEqual(*cpu, fpga->output);
}

TEST(FpgaExecutorTest, LineRateSingleLane) {
  // A one-stage filter over N tuples at 1 lane should take ~N cycles:
  // this is the "line rate processing" claim in miniature.
  const uint64_t n = 5000;
  Table t = SmallTable(n);
  auto fpga = ExecuteFpga(FilterProgram(25), t);
  ASSERT_TRUE(fpga.ok());
  EXPECT_GE(fpga->cycles, n);
  EXPECT_LE(fpga->cycles, n + 100);
}

TEST(FpgaExecutorTest, LanesScaleThroughput) {
  const uint64_t n = 4096;
  Table t = SmallTable(n);
  FpgaOptions wide;
  wide.lanes = 8;
  wide.stream_depth = 32;
  auto narrow_run = ExecuteFpga(FilterProgram(25), t);
  auto wide_run = ExecuteFpga(FilterProgram(25), t, wide);
  ASSERT_TRUE(narrow_run.ok() && wide_run.ok());
  ExpectTablesEqual(narrow_run->output, wide_run->output);
  EXPECT_LT(wide_run->cycles * 4, narrow_run->cycles)
      << "8 lanes should be far faster than 1";
}

TEST(FpgaExecutorTest, StatsAreConsistent) {
  Table t = SmallTable(1000);
  auto fpga = ExecuteFpga(FilterProgram(48), t);  // highly selective
  ASSERT_TRUE(fpga.ok());
  EXPECT_EQ(fpga->input_bytes, t.total_bytes());
  EXPECT_LT(fpga->output_bytes, fpga->input_bytes);
  EXPECT_GT(fpga->seconds, 0);
  EXPECT_NEAR(fpga->input_tuples_per_sec,
              double(t.num_rows()) / fpga->seconds, 1.0);
}

TEST(FpgaExecutorTest, SelectivityDoesNotChangeCycles) {
  // The pipeline consumes its input at line rate regardless of how many
  // tuples survive — unlike a CPU whose output-dependent work varies.
  Table t = SmallTable(4000);
  auto all = ExecuteFpga(FilterProgram(0), t);    // keeps everything
  auto none = ExecuteFpga(FilterProgram(1000), t);  // keeps nothing
  ASSERT_TRUE(all.ok() && none.ok());
  EXPECT_EQ(none->output.num_rows(), 0u);
  const double ratio = double(all->cycles) / double(none->cycles);
  EXPECT_GT(ratio, 0.9);
  EXPECT_LT(ratio, 1.3);
}

TEST(HashJoinFpgaTest, MatchesCpuJoin) {
  Schema dim_schema({{"k", ColumnType::kInt64}, {"payload", ColumnType::kInt64}});
  Table dim(dim_schema);
  for (int64_t i = 0; i < 64; ++i) {
    Row r;
    r.Set(0, i);
    r.Set(1, i * 7);
    dim.Append(r);
  }
  SyntheticTableSpec spec;
  spec.num_rows = 3000;
  spec.key_cardinality = 128;
  spec.seed = 99;
  Table fact = MakeSyntheticTable(spec);
  const JoinSpec js{0, 1};
  auto cpu = HashJoinCpu(dim, fact, js);
  auto fpga = HashJoinFpga(dim, fact, js);
  ASSERT_TRUE(cpu.ok() && fpga.ok());
  ExpectTablesEqual(*cpu, fpga->output);
}

TEST(HashJoinFpgaTest, ProbePipelinesAtLineRate) {
  Schema dim_schema({{"k", ColumnType::kInt64}});
  Table dim(dim_schema);
  for (int64_t i = 0; i < 1000; ++i) {
    Row r;
    r.Set(0, i);
    dim.Append(r);
  }
  SyntheticTableSpec spec;
  spec.num_rows = 10000;
  spec.seed = 3;
  Table fact = MakeSyntheticTable(spec);
  auto fpga = HashJoinFpga(dim, fact, JoinSpec{0, 1});
  ASSERT_TRUE(fpga.ok());
  // build (1000) + probe (~10000) cycles.
  EXPECT_GE(fpga->cycles, 11000u);
  EXPECT_LE(fpga->cycles, 11200u);
}

TEST(HashJoinFpgaTest, InsensitiveToProbeSkew) {
  // The CIDR'20 observation: the BRAM-resident probe pipeline costs the
  // same cycles whether probe keys are uniform or all hit one bucket.
  Schema dim_schema({{"k", ColumnType::kInt64}});
  Table dim(dim_schema);
  for (int64_t i = 0; i < 256; ++i) {
    Row r;
    r.Set(0, i);
    dim.Append(r);
  }
  SyntheticTableSpec spec;
  spec.num_rows = 8000;
  spec.seed = 7;
  Table uniform = MakeSyntheticTable(spec);
  Table skewed = uniform;
  for (size_t i = 0; i < skewed.num_rows(); ++i) {
    skewed.row(i).Set(1, 17);  // every probe hits the same key
  }
  auto u = HashJoinFpga(dim, uniform, JoinSpec{0, 1});
  auto s = HashJoinFpga(dim, skewed, JoinSpec{0, 1});
  ASSERT_TRUE(u.ok() && s.ok());
  EXPECT_EQ(s->output.num_rows(), skewed.num_rows());  // all match
  const double ratio = double(s->cycles) / double(u->cycles);
  EXPECT_GT(ratio, 0.9);
  EXPECT_LT(ratio, 1.15);
}

TEST(FpgaExecutorTest, RejectsZeroLanes) {
  FpgaOptions bad;
  bad.lanes = 0;
  EXPECT_FALSE(ExecuteFpga(Program{}, SmallTable(10), bad).ok());
}

TEST(FpgaExecutorTest, RejectsProgramThatCannotRunOverTheSchema) {
  Program prog;
  FilterOp f;
  f.conjuncts.push_back(Predicate{9, CmpOp::kEq, 0});  // 5-column table
  prog.ops.push_back(f);
  EXPECT_EQ(ExecuteFpga(prog, SmallTable(10)).status().code(),
            StatusCode::kInvalidArgument);
}

class SelectivitySweep : public ::testing::TestWithParam<int64_t> {};

TEST_P(SelectivitySweep, CpuFpgaEquivalence) {
  Table t = SmallTable(1500);
  Program prog = FilterProgram(GetParam());
  auto cpu = ExecuteCpu(prog, t);
  auto fpga = ExecuteFpga(prog, t);
  ASSERT_TRUE(cpu.ok() && fpga.ok());
  ExpectTablesEqual(*cpu, fpga->output);
}

INSTANTIATE_TEST_SUITE_P(QtyThresholds, SelectivitySweep,
                         ::testing::Values(0, 5, 10, 25, 40, 49, 1000));

}  // namespace
}  // namespace fpgadp::rel
