#ifndef FPGADP_ANNS_PQ_H_
#define FPGADP_ANNS_PQ_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/anns/kmeans.h"
#include "src/common/result.h"

namespace fpgadp::anns {

/// Product quantizer: splits a `dim`-vector into `m` sub-vectors of
/// dim/m components and quantizes each against `ksub` trained centroids,
/// compressing a vector to m bytes. Distances are evaluated with the
/// asymmetric distance computation (ADC) lookup table — the operation the
/// FANNS accelerator unrolls into parallel LUT lanes.
class ProductQuantizer {
 public:
  struct Options {
    size_t m = 8;          ///< Sub-quantizers (bytes per code).
    size_t ksub = 256;     ///< Centroids per sub-quantizer (<= 256).
    size_t train_iters = 8;
    uint64_t seed = 11;
  };

  /// Trains on `vectors` (n x dim). Requires dim % m == 0, ksub <= 256,
  /// and at least ksub training vectors.
  static Result<ProductQuantizer> Train(const std::vector<float>& vectors,
                                        size_t dim, const Options& options);

  /// Encodes one vector into m codes.
  std::vector<uint8_t> Encode(const float* v) const;

  /// Reconstructs the quantized vector from codes.
  std::vector<float> Decode(const uint8_t* codes) const;

  /// Builds the ADC lookup table for `query`: m x ksub squared-distance
  /// partials, row-major.
  std::vector<float> BuildLut(const float* query) const;

  /// ADC distance: sum over sub-quantizers of lut[j][codes[j]].
  float AdcDistance(const std::vector<float>& lut, const uint8_t* codes) const {
    float d = 0;
    for (size_t j = 0; j < m_; ++j) d += lut[j * ksub_ + codes[j]];
    return d;
  }

  size_t dim() const { return dim_; }
  size_t m() const { return m_; }
  size_t ksub() const { return ksub_; }
  size_t dsub() const { return dim_ / m_; }
  /// Bytes of the on-chip LUT per query (what the accelerator partitions).
  size_t lut_bytes() const { return m_ * ksub_ * sizeof(float); }

 private:
  ProductQuantizer(size_t dim, size_t m, size_t ksub)
      : dim_(dim), m_(m), ksub_(ksub) {}

  size_t dim_;
  size_t m_;
  size_t ksub_;
  std::vector<float> centroids_;  ///< m x ksub x dsub.
  /// The same centroids, one table per sub-quantizer (Encode, BuildLut).
  std::vector<CentroidTable> tables_;
};

}  // namespace fpgadp::anns

#endif  // FPGADP_ANNS_PQ_H_
