#ifndef FPGADP_MEMORY_MULTI_CHANNEL_H_
#define FPGADP_MEMORY_MULTI_CHANNEL_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/device/device.h"
#include "src/memory/channel.h"
#include "src/memory/mem_types.h"
#include "src/sim/engine.h"
#include "src/sim/stream.h"

namespace fpgadp::mem {

/// A bank of independent memory channels — a DDR4 subsystem (few wide
/// channels) or an HBM2 stack (32 narrow pseudo-channels). Owns the
/// channels and their request/response streams; kernels talk to
/// `request(c)` / `response(c)` directly, which is exactly how HLS kernels
/// attach one AXI master per HBM pseudo-channel.
class MultiChannelMemory {
 public:
  /// Builds `num_channels` channels with identical per-channel config.
  MultiChannelMemory(std::string name, uint32_t num_channels,
                     const MemoryChannel::Config& config,
                     size_t stream_depth = 16);

  /// Convenience factory pulling per-channel parameters from the catalog.
  static MultiChannelMemory MakeHbm(const device::DeviceSpec& spec,
                                    double clock_hz);

  /// Registers all channels and streams with `engine`.
  void RegisterWith(sim::Engine& engine);

  uint32_t num_channels() const { return static_cast<uint32_t>(channels_.size()); }
  sim::Stream<MemRequest>& request(uint32_t c) { return *req_[c]; }
  const sim::Stream<MemRequest>& request(uint32_t c) const { return *req_[c]; }
  sim::Stream<MemResponse>& response(uint32_t c) { return *resp_[c]; }
  const MemoryChannel& channel(uint32_t c) const { return *channels_[c]; }

  /// Channel that owns byte address `addr` under granule-interleaving.
  uint32_t ChannelOf(uint64_t addr, uint32_t granule = 256) const {
    return static_cast<uint32_t>((addr / granule) % channels_.size());
  }

  /// Sum of bytes moved across all channels.
  uint64_t TotalBytesTransferred() const;
  /// Sum of requests completed across all channels.
  uint64_t TotalCompleted() const;

 private:
  std::vector<std::unique_ptr<sim::Stream<MemRequest>>> req_;
  std::vector<std::unique_ptr<sim::Stream<MemResponse>>> resp_;
  std::vector<std::unique_ptr<MemoryChannel>> channels_;
};

/// Flat byte-addressable storage holding the *contents* behind the timing
/// models. Functional and timing concerns are split, as in most
/// architecture simulators: kernels consult the store for values and the
/// channels for cycles.
class BackingStore {
 public:
  explicit BackingStore(uint64_t bytes) : data_(bytes, 0) {}

  uint64_t size() const { return data_.size(); }

  /// Reads a trivially-copyable T at byte offset `addr`.
  template <typename T>
  T Read(uint64_t addr) const {
    FPGADP_CHECK(addr + sizeof(T) <= data_.size());
    T v;
    std::memcpy(&v, data_.data() + addr, sizeof(T));
    return v;
  }

  /// Writes a trivially-copyable T at byte offset `addr`.
  template <typename T>
  void Write(uint64_t addr, const T& v) {
    FPGADP_CHECK(addr + sizeof(T) <= data_.size());
    std::memcpy(data_.data() + addr, &v, sizeof(T));
  }

  /// Raw span accessors for bulk loads.
  const uint8_t* data() const { return data_.data(); }
  uint8_t* data() { return data_.data(); }

 private:
  std::vector<uint8_t> data_;
};

}  // namespace fpgadp::mem

#endif  // FPGADP_MEMORY_MULTI_CHANNEL_H_
