#ifndef FPGADP_COMMON_PARALLEL_H_
#define FPGADP_COMMON_PARALLEL_H_

#include <algorithm>
#include <cstddef>
#include <thread>
#include <vector>

namespace fpgadp {

/// No range ParallelFor hands out is shorter than this many indices, so an
/// input below twice this size runs inline on the caller.
inline constexpr size_t kParallelForChunk = 4096;

/// Calls fn(begin, end) on contiguous ranges that together cover [0, n) once:
/// min(hardware_concurrency, n / kParallelForChunk) ranges (at least one) of
/// near-equal length. The caller runs the first range, and the other ranges'
/// threads are joined before this returns. One range is the plain serial
/// loop. `fn` must write only what the indices of its own range own.
template <typename Fn>
void ParallelFor(size_t n, const Fn& fn) {
  const size_t cores = std::max(1u, std::thread::hardware_concurrency());
  const size_t ranges = std::max<size_t>(1, std::min(cores, n / kParallelForChunk));
  std::vector<std::jthread> workers;  // each joins when destroyed
  workers.reserve(ranges - 1);
  for (size_t r = 1; r < ranges; ++r) {
    workers.emplace_back(fn, n * r / ranges, n * (r + 1) / ranges);
  }
  fn(size_t{0}, n / ranges);
}

}  // namespace fpgadp

#endif  // FPGADP_COMMON_PARALLEL_H_
