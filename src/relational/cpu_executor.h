#ifndef FPGADP_RELATIONAL_CPU_EXECUTOR_H_
#define FPGADP_RELATIONAL_CPU_EXECUTOR_H_

#include <cstdint>

#include "src/common/result.h"
#include "src/relational/program.h"
#include "src/relational/table.h"

namespace fpgadp::rel {

/// Runs `program` over `input` with straightforward single-threaded C++
/// operators — the software baseline every FPGA experiment compares against.
/// Group-by output rows are sorted by group key so results are canonical.
/// Returns InvalidArgument if `program` cannot run over `input`'s schema
/// (see Program::Validate).
Result<Table> ExecuteCpu(const Program& program, const Table& input);

/// Individual operators (used directly by tests and by ExecuteCpu).
Table FilterCpu(const FilterOp& op, const Table& input);
Table ProjectCpu(const ProjectOp& op, const Table& input);
Table AggregateCpu(const AggregateOp& op, const Table& input);
Table GroupByCpu(const GroupByOp& op, const Table& input);
Table TopNCpu(const TopNOp& op, const Table& input);

/// Equi-join specification: `left.columns[left_key] == right.columns[right_key]`.
struct JoinSpec {
  uint32_t left_key = 0;
  uint32_t right_key = 0;
};

/// Classic build-probe hash join (build on `left`). Output schema is left's
/// fields followed by right's fields (truncated to kMaxColumns). Left keys
/// are expected unique (PK-FK join); duplicate build keys keep the last row,
/// mirroring the single-slot-per-key FPGA probe pipeline it is compared to.
Result<Table> HashJoinCpu(const Table& left, const Table& right,
                          const JoinSpec& spec);

}  // namespace fpgadp::rel

#endif  // FPGADP_RELATIONAL_CPU_EXECUTOR_H_
