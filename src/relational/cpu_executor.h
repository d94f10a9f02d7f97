#ifndef FPGADP_RELATIONAL_CPU_EXECUTOR_H_
#define FPGADP_RELATIONAL_CPU_EXECUTOR_H_

#include "src/common/result.h"
#include "src/relational/operators.h"
#include "src/relational/program.h"
#include "src/relational/table.h"

namespace fpgadp::rel {

/// Runs `program` over `input` on the host: the whole input goes through one
/// Pipeline in a single push, the software baseline every FPGA experiment
/// compares against. A filter directly followed by an aggregate, group-by or
/// top-N runs fused into that operator's scan. Group-by output rows are
/// sorted by group key so results are canonical. Returns InvalidArgument if
/// `program` cannot run over `input`'s schema (see Program::Validate).
Result<Table> ExecuteCpu(const Program& program, const Table& input);

/// Classic build-probe hash join (build on `left`) through one JoinProbe.
/// Output schema is left's fields followed by right's fields (truncated to
/// kMaxColumns). Left keys are expected unique (PK-FK join); duplicate
/// build keys keep the last row.
Result<Table> HashJoinCpu(const Table& left, const Table& right,
                          const JoinSpec& spec);

}  // namespace fpgadp::rel

#endif  // FPGADP_RELATIONAL_CPU_EXECUTOR_H_
