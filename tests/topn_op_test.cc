#include <gtest/gtest.h>

#include "src/relational/cpu_executor.h"
#include "src/relational/fpga_executor.h"
#include "src/relational/table.h"

namespace fpgadp::rel {
namespace {

Table SmallTable(uint64_t rows = 3000) {
  SyntheticTableSpec spec;
  spec.num_rows = rows;
  spec.seed = 71;
  return MakeSyntheticTable(spec);
}

/// ExecuteCpu over the program that holds only `op`; an error aborts.
Table RunTopN(const TopNOp& op, const Table& t) {
  return ExecuteCpu(Program{{op}}, t).value();
}

void ExpectTablesEqual(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t i = 0; i < a.num_rows(); ++i) {
    EXPECT_EQ(a.row(i), b.row(i)) << "row " << i;
  }
}

TEST(TopNCpuTest, KeepsSmallestAscending) {
  Table t = SmallTable();
  TopNOp op;
  op.order_column = 1;  // key
  op.n = 20;
  Table out = RunTopN(op, t);
  ASSERT_EQ(out.num_rows(), 20u);
  for (size_t i = 1; i < out.num_rows(); ++i) {
    EXPECT_LE(out.row(i - 1).Get(1), out.row(i).Get(1));
  }
  // Nothing outside the result is smaller than its max.
  const int64_t worst = out.row(19).Get(1);
  size_t smaller = 0;
  for (const Row& r : t.rows()) {
    if (r.Get(1) < worst) ++smaller;
  }
  EXPECT_LE(smaller, 20u);
}

TEST(TopNCpuTest, DescendingKeepsLargest) {
  Table t = SmallTable();
  TopNOp op;
  op.order_column = 4;  // qty
  op.ascending = false;
  op.n = 5;
  Table out = RunTopN(op, t);
  ASSERT_EQ(out.num_rows(), 5u);
  for (size_t i = 1; i < out.num_rows(); ++i) {
    EXPECT_GE(out.row(i - 1).Get(4), out.row(i).Get(4));
  }
}

TEST(TopNCpuTest, DoubleColumnOrdering) {
  Table t = SmallTable();
  TopNOp op;
  op.order_column = 3;  // price
  op.is_double = true;
  op.n = 10;
  Table out = RunTopN(op, t);
  for (size_t i = 1; i < out.num_rows(); ++i) {
    EXPECT_LE(out.row(i - 1).GetDouble(3), out.row(i).GetDouble(3));
  }
}

TEST(TopNCpuTest, NLargerThanInputKeepsAll) {
  Table t = SmallTable(7);
  TopNOp op;
  op.order_column = 0;
  op.n = 100;
  EXPECT_EQ(RunTopN(op, t).num_rows(), 7u);
}

TEST(TopNCpuTest, TiesKeepArrivalOrder) {
  Schema schema({{"k", ColumnType::kInt64}, {"seq", ColumnType::kInt64}});
  Table t(schema);
  for (int64_t i = 0; i < 10; ++i) {
    Row r;
    r.Set(0, i % 2);  // many ties
    r.Set(1, i);
    t.Append(r);
  }
  TopNOp op;
  op.order_column = 0;
  op.n = 4;
  Table out = RunTopN(op, t);
  // The four kept rows are k=0 rows in arrival order: seq 0,2,4,6.
  ASSERT_EQ(out.num_rows(), 4u);
  EXPECT_EQ(out.row(0).Get(1), 0);
  EXPECT_EQ(out.row(1).Get(1), 2);
  EXPECT_EQ(out.row(2).Get(1), 4);
  EXPECT_EQ(out.row(3).Get(1), 6);
}

TEST(TopNFpgaTest, MatchesCpu) {
  Table t = SmallTable();
  Program prog;
  TopNOp op;
  op.order_column = 1;
  op.n = 25;
  prog.ops.push_back(op);
  auto cpu = ExecuteCpu(prog, t);
  auto fpga = ExecuteFpga(prog, t);
  ASSERT_TRUE(cpu.ok() && fpga.ok());
  ExpectTablesEqual(*cpu, fpga->output);
  EXPECT_EQ(prog.ToString(), "topn(25)");
}

TEST(TopNFpgaTest, MatchesCpuWithTies) {
  SyntheticTableSpec spec;
  spec.num_rows = 2000;
  spec.key_cardinality = 16;  // heavy ties on the key column
  spec.seed = 73;
  Table t = MakeSyntheticTable(spec);
  Program prog;
  TopNOp op;
  op.order_column = 1;
  op.n = 50;
  prog.ops.push_back(op);
  auto cpu = ExecuteCpu(prog, t);
  auto fpga = ExecuteFpga(prog, t);
  ASSERT_TRUE(cpu.ok() && fpga.ok());
  ExpectTablesEqual(*cpu, fpga->output);
}

TEST(TopNFpgaTest, RunsAtLineRate) {
  // Insertion is one beat per cycle regardless of N — cycles track the
  // input size plus the N-row flush.
  const uint64_t n = 5000;
  Table t = SmallTable(n);
  Program prog;
  TopNOp op;
  op.order_column = 1;
  op.n = 100;
  prog.ops.push_back(op);
  auto fpga = ExecuteFpga(prog, t);
  ASSERT_TRUE(fpga.ok());
  EXPECT_GE(fpga->cycles, n);
  EXPECT_LE(fpga->cycles, n + 100 + 120);
}

TEST(TopNFpgaTest, ComposesWithFilter) {
  Table t = SmallTable();
  Program prog;
  FilterOp f;
  f.conjuncts.push_back(Predicate{4, CmpOp::kGe, 25});
  prog.ops.push_back(f);
  TopNOp op;
  op.order_column = 3;
  op.is_double = true;
  op.ascending = false;  // 10 most expensive surviving rows
  op.n = 10;
  prog.ops.emplace_back(op);
  auto cpu = ExecuteCpu(prog, t);
  auto fpga = ExecuteFpga(prog, t);
  ASSERT_TRUE(cpu.ok() && fpga.ok());
  ExpectTablesEqual(*cpu, fpga->output);
  for (const Row& r : fpga->output.rows()) {
    EXPECT_GE(r.Get(4), 25);
  }
}

class TopNSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(TopNSweep, CpuFpgaEquivalence) {
  Table t = SmallTable(1200);
  Program prog;
  TopNOp op;
  op.order_column = 1;
  op.n = GetParam();
  prog.ops.emplace_back(op);
  auto cpu = ExecuteCpu(prog, t);
  auto fpga = ExecuteFpga(prog, t);
  ASSERT_TRUE(cpu.ok() && fpga.ok());
  ExpectTablesEqual(*cpu, fpga->output);
}

INSTANTIATE_TEST_SUITE_P(Ns, TopNSweep,
                         ::testing::Values(1u, 2u, 7u, 64u, 1199u, 1200u,
                                           5000u));

}  // namespace
}  // namespace fpgadp::rel
