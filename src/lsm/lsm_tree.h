#ifndef FPGADP_LSM_LSM_TREE_H_
#define FPGADP_LSM_LSM_TREE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/lsm/sstable.h"

namespace fpgadp::lsm {

/// Who executes compaction merges — the X-Engine / FAST'20 question.
enum class CompactionEngine {
  kCpu,   ///< Host cores run the k-way merge (and are stolen from serving).
  kFpga,  ///< A streaming merge network on the FPGA at memory bandwidth.
};

/// Cost model for the two compaction engines, calibrated to the cited
/// systems: a software merge runs tens of ns per entry (branchy heap);
/// the FPGA merge network streams 16-byte entries at the data-path rate.
struct CompactionCostModel {
  double cpu_ns_per_entry = 25;
  double fpga_bytes_per_cycle = 64;
  double fpga_clock_hz = 200e6;

  /// Seconds to merge `entries` input records.
  double Seconds(CompactionEngine engine, uint64_t entries) const {
    if (engine == CompactionEngine::kCpu) {
      return double(entries) * cpu_ns_per_entry * 1e-9;
    }
    const double bytes = double(entries) * sizeof(KvEntry);
    return bytes / (fpga_bytes_per_cycle * fpga_clock_hz);
  }
};

struct LsmOptions {
  size_t memtable_limit = 1024;   ///< Entries before a flush.
  size_t tables_per_level = 4;    ///< Tiered: merge when a level fills.
  size_t max_levels = 5;
  CompactionEngine engine = CompactionEngine::kCpu;
  CompactionCostModel cost;
  double put_ns = 100;            ///< CPU cost per Put (memtable insert).
};

/// Accounting of where the time went — the FAST'20 "compaction steals the
/// CPU" argument in numbers.
struct LsmStats {
  uint64_t puts = 0;
  uint64_t flushes = 0;
  uint64_t compactions = 0;
  uint64_t entries_compacted = 0;   ///< Total merge input records.
  double compaction_seconds = 0;    ///< Time spent merging.
  double put_seconds = 0;           ///< Foreground insert time.
  /// Write amplification: merge inputs / user puts.
  double WriteAmplification() const {
    return puts == 0 ? 0 : double(entries_compacted) / double(puts);
  }
  /// Sustained user throughput with compaction on the CPU's critical path
  /// (kCpu) or fully offloaded (kFpga, where only the slower of ingest and
  /// merge bandwidth matters).
  double SustainedPutsPerSec(CompactionEngine engine,
                             const CompactionCostModel& cost,
                             double put_ns) const;
};

/// A tiered-compaction LSM tree with pluggable compaction engines — the
/// storage substrate of the tutorial's X-Engine motivation. Functionally a
/// complete KV store (put/get/delete across memtable + levels); timing is
/// accounted through the cost model rather than wall clock so experiments
/// are deterministic.
class LsmTree {
 public:
  explicit LsmTree(const LsmOptions& options = LsmOptions());

  void Put(uint64_t key, uint64_t value);
  void Delete(uint64_t key);

  /// Freshest visible value, honoring tombstones.
  std::optional<uint64_t> Get(uint64_t key) const;

  /// Forces the memtable into level 0 (also triggered automatically).
  void Flush();

  const LsmStats& stats() const { return stats_; }
  size_t num_levels() const { return levels_.size(); }
  size_t level_tables(size_t level) const { return levels_[level].size(); }

 private:
  void MaybeCompact();

  LsmOptions options_;
  std::map<uint64_t, KvEntry> memtable_;
  /// levels_[0] newest; within a level, later tables are newer.
  std::vector<std::vector<SsTable>> levels_;
  LsmStats stats_;
};

}  // namespace fpgadp::lsm

#endif  // FPGADP_LSM_LSM_TREE_H_
