#include "src/shard/replica.h"

#include <algorithm>

#include "src/common/check.h"

namespace fpgadp::shard {

ReplicaSet::ReplicaSet(uint32_t num_shards, uint32_t replication_factor)
    : num_shards_(num_shards), replication_factor_(replication_factor) {
  FPGADP_CHECK(num_shards_ > 0);
  FPGADP_CHECK(replication_factor_ > 0);
  primary_.assign(num_shards_, 0);
  alive_.assign(size_t{num_shards_} * replication_factor_, 1);
  last_beacon_.assign(size_t{num_shards_} * replication_factor_, 0);
}

size_t ReplicaSet::Index(uint32_t shard, uint32_t replica) const {
  FPGADP_CHECK(shard < num_shards_);
  FPGADP_CHECK(replica < replication_factor_);
  return size_t{shard} * replication_factor_ + replica;
}

uint32_t ReplicaSet::Primary(uint32_t shard) const {
  FPGADP_CHECK(shard < num_shards_);
  return primary_[shard];
}

bool ReplicaSet::alive(uint32_t shard, uint32_t replica) const {
  return alive_[Index(shard, replica)] != 0;
}

uint32_t ReplicaSet::alive_count(uint32_t shard) const {
  uint32_t n = 0;
  for (uint32_t r = 0; r < replication_factor_; ++r) {
    if (alive(shard, r)) ++n;
  }
  return n;
}

bool ReplicaSet::CanPromote(uint32_t shard) const {
  for (uint32_t r = 0; r < replication_factor_; ++r) {
    if (r != primary_[shard] && alive(shard, r)) return true;
  }
  return false;
}

bool ReplicaSet::Promote(uint32_t shard) {
  const uint32_t old = primary_[shard];
  for (uint32_t step = 1; step < replication_factor_; ++step) {
    const uint32_t r = (old + step) % replication_factor_;
    if (!alive(shard, r)) continue;
    alive_[Index(shard, old)] = 0;
    primary_[shard] = r;
    ++promotions_;
    return true;
  }
  return false;
}

void ReplicaSet::MarkDead(uint32_t shard, uint32_t replica) {
  alive_[Index(shard, replica)] = 0;
}

void ReplicaSet::ObserveBeacon(uint32_t shard, uint32_t replica,
                               sim::Cycle cycle) {
  last_beacon_[Index(shard, replica)] =
      std::max(last_beacon_[Index(shard, replica)], cycle);
}

sim::Cycle ReplicaSet::last_beacon(uint32_t shard, uint32_t replica) const {
  return last_beacon_[Index(shard, replica)];
}

ElasticState::ElasticState(const ReplicaConfig& cfg, uint32_t num_shards)
    : config(cfg), replicas(num_shards, cfg.replication_factor) {
  if (config.beacon_timeout_cycles > 0) {
    FPGADP_CHECK(config.beacon_interval_cycles > 0);
    // A timeout inside two intervals would declare a healthy replica dead
    // the moment one beacon queues behind a data burst.
    FPGADP_CHECK(config.beacon_timeout_cycles >=
                 2 * config.beacon_interval_cycles);
  }
}

Migration* ElasticState::Find(uint64_t seq) {
  for (Migration& m : migrations) {
    if (m.seq == seq) return &m;
  }
  return nullptr;
}

Migration* ElasticState::ActiveCopyFrom(uint32_t shard) {
  for (Migration& m : migrations) {
    if (m.phase == MigrationPhase::kCopy && m.plan.source == shard) {
      return &m;
    }
  }
  return nullptr;
}

bool ElasticState::Busy(uint32_t shard) const {
  for (const Migration& m : migrations) {
    if (m.phase != MigrationPhase::kCopy &&
        m.phase != MigrationPhase::kDrain) {
      continue;
    }
    if (m.plan.source == shard || m.plan.target == shard) return true;
  }
  return false;
}

}  // namespace fpgadp::shard
