#include "src/lsm/lsm_tree.h"

#include <algorithm>

#include "src/common/check.h"

namespace fpgadp::lsm {

double LsmStats::SustainedPutsPerSec(CompactionEngine engine,
                                     const CompactionCostModel& /*cost*/,
                                     double put_ns) const {
  if (puts == 0) return 0;
  const double foreground = double(puts) * put_ns * 1e-9;
  if (engine == CompactionEngine::kCpu) {
    // Compaction and serving share the cores: both are on the critical path.
    return double(puts) / (foreground + compaction_seconds);
  }
  // Offloaded: ingest continues while the FPGA merges in the background;
  // sustained rate is min(ingest rate, merge keep-up rate).
  const double ingest = double(puts) / foreground;
  const double merge_keepup =
      compaction_seconds == 0
          ? ingest
          : double(puts) / compaction_seconds;  // merge bandwidth in
                                                 // user-put units
  return std::min(ingest, merge_keepup);
}

LsmTree::LsmTree(const LsmOptions& options) : options_(options) {
  FPGADP_CHECK(options_.memtable_limit > 0);
  FPGADP_CHECK(options_.tables_per_level > 1);
  levels_.resize(options_.max_levels);
}

void LsmTree::Put(uint64_t key, uint64_t value) {
  memtable_[key] = KvEntry{key, value, false};
  ++stats_.puts;
  stats_.put_seconds += options_.put_ns * 1e-9;
  if (memtable_.size() >= options_.memtable_limit) Flush();
}

void LsmTree::Delete(uint64_t key) {
  memtable_[key] = KvEntry{key, 0, true};
  ++stats_.puts;
  stats_.put_seconds += options_.put_ns * 1e-9;
  if (memtable_.size() >= options_.memtable_limit) Flush();
}

std::optional<uint64_t> LsmTree::Get(uint64_t key) const {
  auto mt = memtable_.find(key);
  if (mt != memtable_.end()) {
    if (mt->second.tombstone) return std::nullopt;
    return mt->second.value;
  }
  // Levels newest-first; within a level, newest table last.
  for (const auto& level : levels_) {
    for (auto it = level.rbegin(); it != level.rend(); ++it) {
      const auto hit = it->Find(key);
      if (hit.has_value()) {
        if (hit->tombstone) return std::nullopt;
        return hit->value;
      }
    }
  }
  return std::nullopt;
}

void LsmTree::Flush() {
  if (memtable_.empty()) return;
  std::vector<KvEntry> sorted;
  sorted.reserve(memtable_.size());
  for (const auto& [key, entry] : memtable_) sorted.push_back(entry);
  memtable_.clear();
  levels_[0].push_back(SsTable::FromSorted(std::move(sorted)));
  ++stats_.flushes;
  MaybeCompact();
}

void LsmTree::MaybeCompact() {
  for (size_t level = 0; level + 1 < levels_.size(); ++level) {
    if (levels_[level].size() < options_.tables_per_level) continue;
    // Tiered compaction: merge the whole level into one run a level down.
    std::vector<const SsTable*> newest_first;
    for (auto it = levels_[level].rbegin(); it != levels_[level].rend();
         ++it) {
      newest_first.push_back(&*it);
    }
    // Records in the destination level are older than everything above.
    for (auto it = levels_[level + 1].rbegin();
         it != levels_[level + 1].rend(); ++it) {
      newest_first.push_back(&*it);
    }
    uint64_t inputs = 0;
    for (const SsTable* t : newest_first) inputs += t->num_entries();
    const bool bottom = level + 2 == levels_.size();
    SsTable merged = MergeTables(newest_first, /*drop_tombstones=*/bottom);
    levels_[level].clear();
    levels_[level + 1].clear();
    if (!merged.empty()) levels_[level + 1].push_back(std::move(merged));
    ++stats_.compactions;
    stats_.entries_compacted += inputs;
    stats_.compaction_seconds +=
        options_.cost.Seconds(options_.engine, inputs);
  }
}

}  // namespace fpgadp::lsm
