#include "src/relational/cpu_executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/relational/operators.h"
#include "src/relational/program.h"
#include "src/relational/table.h"
#include "tests/reference_executor.h"

namespace fpgadp::rel {
namespace {

Table SmallTable() {
  SyntheticTableSpec spec;
  spec.num_rows = 1000;
  spec.num_categories = 8;
  spec.seed = 5;
  return MakeSyntheticTable(spec);
}

Program OneOp(OpDesc op) {
  Program p;
  p.ops.push_back(std::move(op));
  return p;
}

/// ExecuteCpu over the program that holds only `op`; an error aborts.
Table RunOne(OpDesc op, const Table& input) {
  return ExecuteCpu(OneOp(std::move(op)), input).value();
}

TEST(SyntheticTableTest, SchemaAndDeterminism) {
  Table a = SmallTable();
  Table b = SmallTable();
  ASSERT_EQ(a.schema().num_columns(), 5u);
  EXPECT_EQ(a.schema().field(0).name, "id");
  EXPECT_EQ(a.schema().field(3).type, ColumnType::kDouble);
  ASSERT_EQ(a.num_rows(), 1000u);
  for (size_t i = 0; i < a.num_rows(); ++i) {
    EXPECT_EQ(a.row(i), b.row(i));
  }
  EXPECT_EQ(a.total_bytes(), 1000u * 40u);
}

TEST(PredicateTest, IntComparisons) {
  Row r;
  r.Set(1, 10);
  EXPECT_TRUE((Predicate{1, CmpOp::kEq, 10}).Eval(r));
  EXPECT_TRUE((Predicate{1, CmpOp::kLt, 11}).Eval(r));
  EXPECT_TRUE((Predicate{1, CmpOp::kLe, 10}).Eval(r));
  EXPECT_TRUE((Predicate{1, CmpOp::kGt, 9}).Eval(r));
  EXPECT_TRUE((Predicate{1, CmpOp::kGe, 10}).Eval(r));
  EXPECT_TRUE((Predicate{1, CmpOp::kNe, 11}).Eval(r));
  EXPECT_FALSE((Predicate{1, CmpOp::kLt, 10}).Eval(r));
}

TEST(PredicateTest, DoubleComparisons) {
  Row r;
  r.SetDouble(3, 2.5);
  Predicate p;
  p.column = 3;
  p.op = CmpOp::kLt;
  p.dvalue = 3.0;
  p.is_double = true;
  EXPECT_TRUE(p.Eval(r));
  p.op = CmpOp::kGt;
  EXPECT_FALSE(p.Eval(r));
}

TEST(FilterTest, KeepsOnlyMatching) {
  Table t = SmallTable();
  FilterOp f;
  f.conjuncts.push_back(Predicate{2, CmpOp::kEq, 3});
  Table out = RunOne(f, t);
  size_t expected = 0;
  for (const Row& r : t.rows()) {
    if (r.Get(2) == 3) ++expected;
  }
  EXPECT_EQ(out.num_rows(), expected);
  for (const Row& r : out.rows()) EXPECT_EQ(r.Get(2), 3);
}

TEST(FilterTest, ConjunctionNarrows) {
  Table t = SmallTable();
  FilterOp one;
  one.conjuncts.push_back(Predicate{4, CmpOp::kGe, 10});
  FilterOp both = one;
  both.conjuncts.push_back(Predicate{4, CmpOp::kLe, 20});
  EXPECT_LE(RunOne(both, t).num_rows(), RunOne(one, t).num_rows());
}

TEST(ProjectTest, ReordersColumns) {
  Table t = SmallTable();
  ProjectOp p;
  p.columns = {4, 0};
  Table out = RunOne(p, t);
  ASSERT_EQ(out.schema().num_columns(), 2u);
  EXPECT_EQ(out.schema().field(0).name, "qty");
  EXPECT_EQ(out.schema().field(1).name, "id");
  for (size_t i = 0; i < t.num_rows(); ++i) {
    EXPECT_EQ(out.row(i).Get(0), t.row(i).Get(4));
    EXPECT_EQ(out.row(i).Get(1), t.row(i).Get(0));
  }
}

TEST(AggregateTest, SumCountMinMaxAvg) {
  Table t = SmallTable();
  int64_t expect_sum = 0;
  int64_t expect_min = INT64_MAX, expect_max = INT64_MIN;
  for (const Row& r : t.rows()) {
    expect_sum += r.Get(4);
    expect_min = std::min(expect_min, r.Get(4));
    expect_max = std::max(expect_max, r.Get(4));
  }
  AggregateOp sum{AggKind::kSum, 4, false};
  EXPECT_EQ(RunOne(sum, t).row(0).Get(0), expect_sum);
  AggregateOp cnt{AggKind::kCount, 0, false};
  EXPECT_EQ(RunOne(cnt, t).row(0).Get(0), 1000);
  AggregateOp mn{AggKind::kMin, 4, false};
  EXPECT_EQ(RunOne(mn, t).row(0).Get(0), expect_min);
  AggregateOp mx{AggKind::kMax, 4, false};
  EXPECT_EQ(RunOne(mx, t).row(0).Get(0), expect_max);
  AggregateOp avg{AggKind::kAvg, 4, false};
  EXPECT_NEAR(RunOne(avg, t).row(0).GetDouble(0),
              double(expect_sum) / 1000.0, 1e-9);
}

TEST(AggregateTest, DoubleSum) {
  Table t = SmallTable();
  double expect = 0;
  for (const Row& r : t.rows()) expect += r.GetDouble(3);
  AggregateOp sum{AggKind::kSum, 3, true};
  EXPECT_DOUBLE_EQ(RunOne(sum, t).row(0).GetDouble(0), expect);
}

TEST(GroupByTest, PartitionIsExhaustiveAndSorted) {
  Table t = SmallTable();
  GroupByOp g;
  g.group_column = 2;
  g.agg = AggregateOp{AggKind::kCount, 0, false};
  Table out = RunOne(g, t);
  int64_t total = 0;
  int64_t prev_key = INT64_MIN;
  for (const Row& r : out.rows()) {
    EXPECT_GT(r.Get(0), prev_key) << "groups must be sorted";
    prev_key = r.Get(0);
    total += r.Get(1);
  }
  EXPECT_EQ(total, int64_t(t.num_rows()));
}

TEST(ProgramTest, ChainedExecution) {
  Table t = SmallTable();
  Program prog;
  FilterOp f;
  f.conjuncts.push_back(Predicate{4, CmpOp::kGe, 25});
  prog.ops.push_back(f);
  prog.ops.push_back(AggregateOp{AggKind::kCount, 0, false});
  auto out = ExecuteCpu(prog, t);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 1u);
  int64_t expect = 0;
  for (const Row& r : t.rows()) {
    if (r.Get(4) >= 25) ++expect;
  }
  EXPECT_EQ(out->row(0).Get(0), expect);
  EXPECT_EQ(prog.ToString(), "filter|agg(count)");
}

TEST(ProgramTest, OutputSchemaTracksOps) {
  Table t = SmallTable();
  Program prog;
  prog.ops.push_back(ProjectOp{{1, 4}});
  GroupByOp g;
  g.group_column = 0;  // "key" after projection
  g.agg = AggregateOp{AggKind::kSum, 1, false};
  prog.ops.push_back(g);
  Schema out = prog.OutputSchema(t.schema());
  ASSERT_EQ(out.num_columns(), 2u);
  EXPECT_EQ(out.field(0).name, "key");
  EXPECT_EQ(out.field(1).name, "sum");
}

TEST(HashJoinTest, PkFkJoinMatchesNestedLoop) {
  // Build (dimension) table: 64 unique keys with payload.
  Schema dim_schema({{"k", ColumnType::kInt64}, {"payload", ColumnType::kInt64}});
  Table dim(dim_schema);
  for (int64_t i = 0; i < 64; ++i) {
    Row r;
    r.Set(0, i);
    r.Set(1, i * 100);
    dim.Append(r);
  }
  SyntheticTableSpec spec;
  spec.num_rows = 2000;
  spec.key_cardinality = 128;  // half the probe keys miss
  spec.seed = 77;
  Table fact = MakeSyntheticTable(spec);

  auto out = HashJoinCpu(dim, fact, JoinSpec{0, 1});
  ASSERT_TRUE(out.ok());
  size_t expect = 0;
  for (const Row& r : fact.rows()) {
    if (r.Get(1) < 64) ++expect;
  }
  EXPECT_EQ(out->num_rows(), expect);
  for (const Row& r : out->rows()) {
    EXPECT_EQ(r.Get(1), r.Get(0) * 100) << "payload must match key";
  }
}

TEST(HashJoinTest, RejectsBadKeys) {
  Table t = SmallTable();
  EXPECT_FALSE(HashJoinCpu(t, t, JoinSpec{99, 0}).ok());
  EXPECT_FALSE(HashJoinCpu(t, t, JoinSpec{0, 99}).ok());
}

// ---------------------------------------------------------------------------
// Programs that cannot run over their input return InvalidArgument instead of
// aborting.

TEST(ValidateTest, RejectsWhatCannotRunOverTheSchema) {
  Table t = SmallTable();  // 5 columns
  FilterOp filter9;
  filter9.conjuncts.push_back(Predicate{9, CmpOp::kEq, 0});
  TopNOp top9;
  top9.order_column = 9;
  TopNOp top0;
  top0.n = 0;
  Program past_projection = OneOp(ProjectOp{{0, 1}});
  past_projection.ops.push_back(AggregateOp{AggKind::kSum, 3, true});
  const std::vector<std::pair<std::string, Program>> bad = {
      {"filter", OneOp(filter9)},
      {"project column", OneOp(ProjectOp{{0, 9}})},
      {"project width", OneOp(ProjectOp{{0, 1, 2, 3, 4, 0, 1, 2, 3}})},
      {"aggregate", OneOp(AggregateOp{AggKind::kSum, 9, false})},
      {"average", OneOp(AggregateOp{AggKind::kAvg, 9, false})},
      {"group column", OneOp(GroupByOp{9, {AggKind::kCount, 0, false}})},
      {"group aggregate", OneOp(GroupByOp{2, {AggKind::kMax, 9, false}})},
      {"top-n column", OneOp(top9)},
      {"top-n zero", OneOp(top0)},
      {"column past a projection", past_projection},
  };
  for (const auto& [name, program] : bad) {
    SCOPED_TRACE(name);
    EXPECT_EQ(program.Validate(t.schema()).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(ExecuteCpu(program, t).status().code(),
              StatusCode::kInvalidArgument);
  }
  // A count reads no column, so its column index is not checked.
  auto count = ExecuteCpu(OneOp(AggregateOp{AggKind::kCount, 9, false}), t);
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_EQ(count->row(0).Get(0), 1000);
}

// ---------------------------------------------------------------------------
// The executor's exact output. ExecuteCpu runs a filter inside the scan of
// the aggregate, group-by or top-N that follows it, keeps the top-N in a
// bounded heap and groups in a hash map; every row and every float must be
// what the plain composition and the reference executor's stable sort and
// ordered map give.

using reference::SameTable;

/// One Operator fed the whole of `input`, the way ExecuteCpu runs it, for
/// the inputs Program::Validate turns away (a top-N that keeps no rows).
Table PushThrough(const TopNOp& op, const Table& input) {
  Operator stage(op);
  Table out(input.schema());
  stage.Push(input.rows(), out.rows());
  stage.Finish(out.rows());
  return out;
}

constexpr AggKind kAllAggKinds[] = {AggKind::kSum, AggKind::kMin,
                                    AggKind::kMax, AggKind::kCount,
                                    AggKind::kAvg};

/// One to three random conjuncts over key, cat, price and qty; some select
/// every row and some none.
FilterOp RandomFilter(Rng& rng) {
  FilterOp f;
  const uint64_t conjuncts = 1 + rng.NextBounded(3);
  for (uint64_t c = 0; c < conjuncts; ++c) {
    Predicate p;
    p.column = 1 + static_cast<uint32_t>(rng.NextBounded(4));
    p.op = static_cast<CmpOp>(rng.NextBounded(6));
    if (p.column == 3) {
      p.is_double = true;
      p.dvalue = rng.NextDouble() * 1100.0;
    } else {
      const int64_t range[] = {0, 1 << 20, 64, 0, 55};
      p.value = rng.NextInt(0, range[p.column]);
    }
    f.conjuncts.push_back(p);
  }
  return f;
}

Program FilterThen(const FilterOp& f, OpDesc op) {
  Program p = OneOp(f);
  p.ops.push_back(std::move(op));
  return p;
}

TEST(FusedFilterTest, EqualsFilterThenOperatorOver50Seeds) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SyntheticTableSpec spec;
    spec.num_rows = 3000;
    spec.zipf_theta = 0.9;
    spec.seed = seed;
    const Table t = MakeSyntheticTable(spec);
    Rng rng(seed * 7919);
    const FilterOp f = RandomFilter(rng);
    const Table survivors = RunOne(f, t);
    for (AggKind kind : kAllAggKinds) {
      for (bool is_double : {false, true}) {
        const AggregateOp agg{kind, is_double ? 3u : 4u, is_double};
        auto fused = ExecuteCpu(FilterThen(f, agg), t);
        ASSERT_TRUE(fused.ok()) << fused.status();
        EXPECT_TRUE(SameTable(*fused, RunOne(agg, survivors)));

        const GroupByOp g{2, agg};
        auto grouped = ExecuteCpu(FilterThen(f, g), t);
        ASSERT_TRUE(grouped.ok()) << grouped.status();
        EXPECT_TRUE(SameTable(*grouped, RunOne(g, survivors)));
      }
    }
    for (uint32_t column : {2u, 3u}) {
      for (bool ascending : {true, false}) {
        TopNOp top;
        top.order_column = column;
        top.is_double = column == 3;
        top.ascending = ascending;
        top.n = 1 + static_cast<uint32_t>(rng.NextBounded(40));
        auto fused = ExecuteCpu(FilterThen(f, top), t);
        ASSERT_TRUE(fused.ok()) << fused.status();
        EXPECT_TRUE(SameTable(*fused, RunOne(top, survivors)));
      }
    }
  }
}

TEST(TopNTest, EqualsStableSortUnderHeavyTies) {
  SyntheticTableSpec spec;
  spec.num_rows = 100000;
  spec.num_categories = 4;  // cat takes 4 values
  spec.seed = 11;
  Table t = MakeSyntheticTable(spec);
  // price takes 5 values, two of them -0.0 and 0.0, which compare equal
  // but differ in their bits.
  const double prices[] = {-0.0, 0.0, 1.5, -2.25, 7.0};
  Rng rng(12);
  for (Row& r : t.rows()) r.SetDouble(3, prices[rng.NextBounded(5)]);
  const uint32_t rows = static_cast<uint32_t>(t.num_rows());
  for (uint32_t column : {2u, 3u}) {
    for (bool ascending : {true, false}) {
      for (uint32_t n : {0u, 1u, 10u, 64u, 1000u, rows + 1}) {
        SCOPED_TRACE("column " + std::to_string(column) + " n " +
                     std::to_string(n) + (ascending ? " asc" : " desc"));
        TopNOp top;
        top.order_column = column;
        top.is_double = column == 3;
        top.ascending = ascending;
        top.n = n;
        EXPECT_TRUE(SameTable(n == 0 ? PushThrough(top, t) : RunOne(top, t),
                              reference::StableSortTopN(top, t)));
      }
    }
  }
}

TEST(GroupByTest, EqualsOrderedMapBitForBitOnSkewedGroups) {
  SyntheticTableSpec spec;
  spec.num_rows = 100000;
  spec.num_categories = 64;
  spec.zipf_theta = 0.99;
  spec.seed = 13;
  const Table t = MakeSyntheticTable(spec);
  for (AggKind kind : kAllAggKinds) {
    for (bool is_double : {false, true}) {
      const GroupByOp g{2, AggregateOp{kind, is_double ? 3u : 4u, is_double}};
      EXPECT_TRUE(SameTable(RunOne(g, t), reference::OrderedMapGroupBy(g, t)));
    }
  }
}

// The Farview memory node pushes its table page by page. However the input
// is split, the pipeline must return one push's rows and floats, also when a
// held-back operator's output streams through the stages after it.
TEST(PipelineTest, AnySplitEqualsTheReference) {
  const Table t = SmallTable();
  FilterOp f;
  f.conjuncts.push_back(Predicate{4, CmpOp::kGe, 20});
  TopNOp top;
  top.order_column = 2;
  top.n = 30;
  const Program programs[] = {
      Program{},  // no operators: rows pass through
      Program{{f}},
      Program{{f, ProjectOp{{4, 2, 3}}}},
      Program{{ProjectOp{{2, 3}},
               GroupByOp{0, AggregateOp{AggKind::kAvg, 1, true}}}},
      Program{{f, top, ProjectOp{{0, 2}}}},
      Program{{top, AggregateOp{AggKind::kSum, 3, true}}},
      Program{{f, AggregateOp{AggKind::kCount, 0, false}}},
  };
  for (const Program& program : programs) {
    SCOPED_TRACE(program.ToString());
    const Table want = reference::ReferenceExecute(program, t);
    for (size_t split : {size_t{1}, size_t{7}, size_t{102}, t.num_rows()}) {
      Pipeline pipeline(program);
      Table got(program.OutputSchema(t.schema()));
      const std::span<const Row> rows(t.rows());
      for (size_t begin = 0; begin < rows.size(); begin += split) {
        pipeline.Push(rows.subspan(begin, std::min(split, rows.size() - begin)),
                      got.rows());
      }
      pipeline.Finish(got.rows());
      EXPECT_TRUE(SameTable(got, want)) << "split " << split;
    }
  }
}

}  // namespace
}  // namespace fpgadp::rel
