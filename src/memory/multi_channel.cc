#include "src/memory/multi_channel.h"

#include <cstring>

#include "src/common/check.h"

namespace fpgadp::mem {

MultiChannelMemory::MultiChannelMemory(std::string name, uint32_t num_channels,
                                       const MemoryChannel::Config& config,
                                       size_t stream_depth) {
  FPGADP_CHECK(num_channels > 0);
  for (uint32_t c = 0; c < num_channels; ++c) {
    const std::string suffix = name + ".ch" + std::to_string(c);
    req_.push_back(std::make_unique<sim::Stream<MemRequest>>(
        suffix + ".req", stream_depth));
    resp_.push_back(std::make_unique<sim::Stream<MemResponse>>(
        suffix + ".resp", stream_depth));
    channels_.push_back(std::make_unique<MemoryChannel>(
        suffix, req_.back().get(), resp_.back().get(), config));
  }
}

MultiChannelMemory MultiChannelMemory::MakeHbm(const device::DeviceSpec& spec,
                                               double clock_hz) {
  FPGADP_CHECK(spec.memory.hbm_channels > 0);
  MemoryChannel::Config cfg;
  cfg.latency_ns = spec.memory.hbm_latency_ns;
  cfg.bytes_per_sec = spec.memory.hbm_bytes_per_sec;
  cfg.clock_hz = clock_hz;
  cfg.access_granularity = 32;  // HBM pseudo-channel granule
  return MultiChannelMemory("hbm", spec.memory.hbm_channels, cfg);
}

void MultiChannelMemory::RegisterWith(sim::Engine& engine) {
  for (auto& ch : channels_) engine.AddModule(ch.get());
  for (auto& s : req_) engine.AddStream(s.get());
  for (auto& s : resp_) engine.AddStream(s.get());
}

uint64_t MultiChannelMemory::TotalBytesTransferred() const {
  uint64_t total = 0;
  for (const auto& ch : channels_) total += ch->bytes_transferred();
  return total;
}

uint64_t MultiChannelMemory::TotalCompleted() const {
  uint64_t total = 0;
  for (const auto& ch : channels_) total += ch->completed();
  return total;
}

}  // namespace fpgadp::mem
