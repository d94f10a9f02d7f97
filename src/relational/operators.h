#ifndef FPGADP_RELATIONAL_OPERATORS_H_
#define FPGADP_RELATIONAL_OPERATORS_H_

#include <cstdint>
#include <limits>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"
#include "src/relational/program.h"
#include "src/relational/table.h"

namespace fpgadp::rel {

/// One relational operator as a push-based stage, the only place that
/// defines what each operator computes. ExecuteCpu pushes a whole table as
/// one span; the FPGA pipeline's kernel pushes one row per beat and calls
/// Finish on the end-of-stream beat. Both therefore produce the same rows
/// and the same floats, and only the pipeline adds timing.
class Operator {
 public:
  /// Runs `op`. An aggregate, group-by or top-N consumes only the rows that
  /// pass `fused`, a filter run inside its scan (every row when `fused` has
  /// no conjuncts). `op` must be valid for the rows pushed
  /// (Program::Validate), except that a top-N with n == 0 keeps no rows.
  explicit Operator(OpDesc op, FilterOp fused = {});

  /// Consumes `rows` in arrival order. A filter or projection appends its
  /// output rows to `out`; the other operators hold theirs until Finish.
  void Push(std::span<const Row> rows, std::vector<Row>& out);

  /// Ends the input and appends the rows held back: the aggregate's one
  /// row, one row per group in ascending key order, or the kept top-N rows
  /// in order. Call it once.
  void Finish(std::vector<Row>& out);

 private:
  /// Running state of one aggregate.
  struct AggState {
    int64_t isum = 0;
    double dsum = 0;
    int64_t imin = std::numeric_limits<int64_t>::max();
    int64_t imax = std::numeric_limits<int64_t>::min();
    double dmin = std::numeric_limits<double>::infinity();
    double dmax = -std::numeric_limits<double>::infinity();
    uint64_t count = 0;

    void Add(const Row& row, const AggregateOp& op);
    /// Writes the final aggregate into slot `slot` of `out`.
    void Finish(const AggregateOp& op, Row& out, size_t slot) const;
  };
  /// A row the top-N keeps, with its arrival index to order ties.
  struct Ranked {
    Row row;
    uint64_t index = 0;
  };

  void PushTopN(const TopNOp& op, std::span<const Row> rows);

  OpDesc op_;
  FilterOp fused_;
  AggState total_;                                  // aggregate
  std::unordered_map<int64_t, AggState> groups_;    // group-by
  std::vector<Ranked> heap_;                        // top-N
  uint64_t arrivals_ = 0;                           // rows pushed so far
};

/// A program as one chain of Operators, the one place that says which steps
/// fuse: a filter directly followed by an aggregate, group-by or top-N runs
/// inside that operator's scan, and every other step is its own stage.
/// ExecuteCpu pushes a whole table through it once; the Farview memory node
/// pushes one scanned page's rows at a time. Rows pushed in any split give
/// the same output rows, in the same order, as one push of all of them.
class Pipeline {
 public:
  /// With no operators, rows pass through unchanged. `program` must be
  /// valid for the rows pushed (Program::Validate).
  explicit Pipeline(const Program& program = {});

  /// Streams `rows` through every stage in order; the last stage's output
  /// rows append to `out`.
  void Push(std::span<const Row> rows, std::vector<Row>& out);

  /// Ends the input: each stage in turn finishes, and the rows it held back
  /// stream through the stages after it. Call it once.
  void Finish(std::vector<Row>& out);

 private:
  /// Pushes `rows` through stages `first` onward.
  void PushFrom(size_t first, std::span<const Row> rows,
                std::vector<Row>& out);

  std::vector<Operator> stages_;
  std::vector<std::vector<Row>> between_;  // stage i's output, i < last
};

/// Equi-join specification: `left.columns[left_key] == right.columns[right_key]`.
struct JoinSpec {
  uint32_t left_key = 0;
  uint32_t right_key = 0;
};

/// The joined schema: left's fields followed by right's, truncated to
/// kMaxColumns. InvalidArgument if a join key is out of range.
Result<Schema> JoinSchema(const Schema& left, const Schema& right,
                          const JoinSpec& spec);

/// The probe side of a PK-FK hash join, built on `left`: each pushed right
/// row that finds its key emits the build row with the right row's columns
/// after it. Duplicate build keys keep the last row, as a single-slot-per-key
/// hash table does. `spec` must pass JoinSchema.
class JoinProbe {
 public:
  JoinProbe(const Table& left, size_t right_columns, const JoinSpec& spec);

  void Push(std::span<const Row> rows, std::vector<Row>& out);
  /// A probe holds no rows back.
  void Finish(std::vector<Row>&) {}

 private:
  std::unordered_map<int64_t, Row> build_;
  JoinSpec spec_;
  size_t left_columns_;
  size_t right_columns_;
};

}  // namespace fpgadp::rel

#endif  // FPGADP_RELATIONAL_OPERATORS_H_
