#ifndef FPGADP_RELATIONAL_PROGRAM_H_
#define FPGADP_RELATIONAL_PROGRAM_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "src/common/status.h"
#include "src/relational/schema.h"

namespace fpgadp::rel {

/// Comparison operators for predicates.
enum class CmpOp { kLt, kLe, kGt, kGe, kEq, kNe };

/// A single column-vs-constant comparison. Double columns compare against
/// the bit pattern re-interpreted as double.
struct Predicate {
  uint32_t column = 0;
  CmpOp op = CmpOp::kEq;
  int64_t value = 0;       ///< For int64 columns.
  double dvalue = 0.0;     ///< For double columns.
  bool is_double = false;

  /// Evaluates the predicate on `row`.
  bool Eval(const Row& row) const {
    if (is_double) {
      const double v = row.GetDouble(column);
      switch (op) {
        case CmpOp::kLt: return v < dvalue;
        case CmpOp::kLe: return v <= dvalue;
        case CmpOp::kGt: return v > dvalue;
        case CmpOp::kGe: return v >= dvalue;
        case CmpOp::kEq: return v == dvalue;
        case CmpOp::kNe: return v != dvalue;
      }
    } else {
      const int64_t v = row.Get(column);
      switch (op) {
        case CmpOp::kLt: return v < value;
        case CmpOp::kLe: return v <= value;
        case CmpOp::kGt: return v > value;
        case CmpOp::kGe: return v >= value;
        case CmpOp::kEq: return v == value;
        case CmpOp::kNe: return v != value;
      }
    }
    return false;
  }
};

/// Aggregation functions.
enum class AggKind { kSum, kMin, kMax, kCount, kAvg };

/// SELECT-style filter: keep rows satisfying the conjunction of predicates.
struct FilterOp {
  std::vector<Predicate> conjuncts;
};

/// Projection: keep the listed columns, in order.
struct ProjectOp {
  std::vector<uint32_t> columns;
};

/// Scalar aggregate over one column. Produces a single-row relation.
struct AggregateOp {
  AggKind kind = AggKind::kSum;
  uint32_t column = 0;
  bool is_double = false;
};

/// Group-by aggregate: group on `group_column`, aggregate `agg` per group.
struct GroupByOp {
  uint32_t group_column = 0;
  AggregateOp agg;
};

/// ORDER BY <column> LIMIT <n>: keeps the n smallest (ascending) or largest
/// (descending) rows by the order column, output sorted. Ties keep arrival
/// order (stable). On the FPGA its kernel has the systolic K-selection
/// queue's timing: one insertion per beat, the n rows flushed at end of
/// stream.
struct TopNOp {
  uint32_t order_column = 0;
  bool is_double = false;
  bool ascending = true;
  uint32_t n = 10;
};

/// One step of an operator program.
using OpDesc =
    std::variant<FilterOp, ProjectOp, AggregateOp, GroupByOp, TopNOp>;

/// A chain of operators — both the CPU executor and the FPGA pipeline
/// builder consume this, and it doubles as Farview's offload descriptor
/// ("push this program to the memory node").
struct Program {
  std::vector<OpDesc> ops;

  /// Short textual form, e.g. "filter|project|agg(sum)".
  std::string ToString() const;

  /// OK if the program can run over rows of `input`: every column it reads
  /// is in range at its step, a projection keeps at most kMaxColumns
  /// columns, and every top-N keeps n > 0 rows. Otherwise InvalidArgument
  /// naming the first operator at fault. The executors and Farview check
  /// this before running a program.
  Status Validate(const Schema& input) const;

  /// Schema of the program's output given `input` schema. The program must
  /// be valid for `input` (see Validate); an invalid one FPGADP_CHECKs.
  Schema OutputSchema(const Schema& input) const;
};

}  // namespace fpgadp::rel

#endif  // FPGADP_RELATIONAL_PROGRAM_H_
