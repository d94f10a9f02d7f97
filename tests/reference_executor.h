#ifndef FPGADP_TESTS_REFERENCE_EXECUTOR_H_
#define FPGADP_TESTS_REFERENCE_EXECUTOR_H_

// A test-only reference executor: the plainest loops that say what each
// relational operator returns. It shares no code with
// src/relational/operators.cc, which ExecuteCpu, ExecuteFpga and the Farview
// memory node all run, so the differential suites that compare those paths
// against it check operator semantics and not only the plumbing around
// them. Nothing here is fast: group-by goes through std::map, top-N through
// std::stable_sort and the join through a nested loop.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <numeric>
#include <utility>
#include <vector>

#include "src/relational/operators.h"  // JoinSpec
#include "src/relational/program.h"
#include "src/relational/table.h"

namespace fpgadp::rel::reference {

/// Same schema and the same rows, bit for bit, in the same order.
inline ::testing::AssertionResult SameTable(const Table& got,
                                            const Table& want) {
  if (!(got.schema() == want.schema())) {
    return ::testing::AssertionFailure() << "schemas differ";
  }
  if (got.num_rows() != want.num_rows()) {
    return ::testing::AssertionFailure()
           << got.num_rows() << " rows, want " << want.num_rows();
  }
  for (size_t i = 0; i < got.num_rows(); ++i) {
    if (!(got.row(i) == want.row(i))) {
      return ::testing::AssertionFailure() << "row " << i << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

inline Table NaiveFilter(const FilterOp& op, const Table& input) {
  Table out(input.schema());
  for (const Row& r : input.rows()) {
    bool keep = true;
    for (const Predicate& p : op.conjuncts) keep = keep && p.Eval(r);
    if (keep) out.Append(r);
  }
  return out;
}

inline Table NaiveProject(const ProjectOp& op, const Table& input) {
  Table out(Program{{op}}.OutputSchema(input.schema()));
  for (const Row& r : input.rows()) {
    Row projected;
    for (size_t i = 0; i < op.columns.size(); ++i) {
      projected.Set(i, r.Get(op.columns[i]));
    }
    out.Append(projected);
  }
  return out;
}

/// Writes `op` over `rows` into slot `slot` of `out`. Sums run in row order
/// from zero; min and max over no rows are the identity of their type
/// (INT64_MAX / INT64_MIN, +inf / -inf), and the average of no rows is 0.0.
/// A count reads no column.
inline void Fold(const AggregateOp& op, const std::vector<Row>& rows,
                 Row& out, size_t slot) {
  if (op.kind == AggKind::kCount) {
    out.Set(slot, static_cast<int64_t>(rows.size()));
    return;
  }
  int64_t isum = 0;
  int64_t imin = std::numeric_limits<int64_t>::max();
  int64_t imax = std::numeric_limits<int64_t>::min();
  double dsum = 0.0;
  double dmin = std::numeric_limits<double>::infinity();
  double dmax = -std::numeric_limits<double>::infinity();
  for (const Row& r : rows) {
    if (op.is_double) {
      const double v = r.GetDouble(op.column);
      dsum += v;
      if (v < dmin) dmin = v;
      if (v > dmax) dmax = v;
    } else {
      const int64_t v = r.Get(op.column);
      isum += v;
      if (v < imin) imin = v;
      if (v > imax) imax = v;
    }
  }
  switch (op.kind) {
    case AggKind::kSum:
      if (op.is_double) out.SetDouble(slot, dsum);
      else out.Set(slot, isum);
      break;
    case AggKind::kMin:
      if (op.is_double) out.SetDouble(slot, dmin);
      else out.Set(slot, imin);
      break;
    case AggKind::kMax:
      if (op.is_double) out.SetDouble(slot, dmax);
      else out.Set(slot, imax);
      break;
    case AggKind::kAvg: {
      const double sum = op.is_double ? dsum : static_cast<double>(isum);
      out.SetDouble(slot, rows.empty() ? 0.0 : sum / double(rows.size()));
      break;
    }
    case AggKind::kCount:
      break;
  }
}

inline Table FoldAggregate(const AggregateOp& op, const Table& input) {
  Table out(Program{{op}}.OutputSchema(input.schema()));
  Row r;
  Fold(op, input.rows(), r, 0);
  out.Append(r);
  return out;
}

/// One row per group, in ascending key order (the ordered map's order).
inline Table OrderedMapGroupBy(const GroupByOp& op, const Table& input) {
  std::map<int64_t, std::vector<Row>> groups;
  for (const Row& r : input.rows()) groups[r.Get(op.group_column)].push_back(r);
  Table out(Program{{op}}.OutputSchema(input.schema()));
  for (const auto& [key, rows] : groups) {
    Row r;
    r.Set(0, key);
    Fold(op.agg, rows, r, 1);
    out.Append(r);
  }
  return out;
}

/// The first n rows of a stable sort by the order key: equal keys keep
/// arrival order.
inline Table StableSortTopN(const TopNOp& op, const Table& input) {
  std::vector<size_t> order(input.num_rows());
  std::iota(order.begin(), order.end(), size_t{0});
  auto key_less = [&](size_t a, size_t b) {
    if (op.is_double) {
      const double ka = input.row(a).GetDouble(op.order_column);
      const double kb = input.row(b).GetDouble(op.order_column);
      return op.ascending ? ka < kb : ka > kb;
    }
    const int64_t ka = input.row(a).Get(op.order_column);
    const int64_t kb = input.row(b).Get(op.order_column);
    return op.ascending ? ka < kb : ka > kb;
  };
  std::stable_sort(order.begin(), order.end(), key_less);
  Table out(input.schema());
  const size_t n = std::min<size_t>(op.n, order.size());
  for (size_t i = 0; i < n; ++i) out.Append(input.row(order[i]));
  return out;
}

/// Runs `program` one operator at a time, with no fusion. The program must
/// be valid for `input` (Program::Validate).
inline Table ReferenceExecute(const Program& program, const Table& input) {
  Table t = input;
  for (const OpDesc& op : program.ops) {
    if (const auto* f = std::get_if<FilterOp>(&op)) {
      t = NaiveFilter(*f, t);
    } else if (const auto* p = std::get_if<ProjectOp>(&op)) {
      t = NaiveProject(*p, t);
    } else if (const auto* a = std::get_if<AggregateOp>(&op)) {
      t = FoldAggregate(*a, t);
    } else if (const auto* g = std::get_if<GroupByOp>(&op)) {
      t = OrderedMapGroupBy(*g, t);
    } else {
      t = StableSortTopN(std::get<TopNOp>(op), t);
    }
  }
  return t;
}

/// For each right row in order, the last left row whose key matches,
/// followed by the right row's columns up to kMaxColumns. The spec must
/// name columns in range.
inline Table NestedLoopJoin(const Table& left, const Table& right,
                            const JoinSpec& spec) {
  std::vector<Field> fields = left.schema().fields();
  for (const Field& f : right.schema().fields()) {
    if (fields.size() < kMaxColumns) fields.push_back(f);
  }
  Table out{Schema(std::move(fields))};
  const size_t left_cols = left.schema().num_columns();
  for (const Row& probe : right.rows()) {
    const Row* match = nullptr;
    for (const Row& build : left.rows()) {
      if (build.Get(spec.left_key) == probe.Get(spec.right_key)) match = &build;
    }
    if (match == nullptr) continue;
    Row joined = *match;
    for (size_t c = 0; c < right.schema().num_columns(); ++c) {
      if (left_cols + c < kMaxColumns) joined.Set(left_cols + c, probe.Get(c));
    }
    out.Append(joined);
  }
  return out;
}

}  // namespace fpgadp::rel::reference

#endif  // FPGADP_TESTS_REFERENCE_EXECUTOR_H_
