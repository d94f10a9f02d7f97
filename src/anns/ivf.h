#ifndef FPGADP_ANNS_IVF_H_
#define FPGADP_ANNS_IVF_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/anns/kmeans.h"
#include "src/anns/pq.h"
#include "src/common/result.h"

namespace fpgadp::anns {

/// Candidate returned by a search, closest first.
struct Neighbor {
  uint32_t id = 0;
  float distance = 0;
};

/// IVF-PQ index: a coarse k-means quantizer partitions the corpus into
/// `nlist` inverted lists; within each list, residual vectors (v - centroid)
/// are PQ-compressed to m bytes. This is the index family FANNS accelerates.
class IvfPqIndex {
 public:
  struct Options {
    size_t nlist = 64;
    size_t coarse_iters = 10;
    ProductQuantizer::Options pq;
    uint64_t seed = 3;
    /// Keep the raw vectors (needed for exact re-ranking). Costs n x dim x
    /// 4 bytes of index memory, as in FANNS deployments that refine.
    bool store_vectors = false;
  };

  struct SearchParams {
    size_t nprobe = 8;
    size_t k = 10;
    /// Refinement factor: when > 0, gather rerank*k candidates by ADC
    /// distance and re-score them with exact distances against the stored
    /// raw vectors (requires Options::store_vectors). Lifts the PQ recall
    /// ceiling at the cost of rerank*k vector fetches per query.
    size_t rerank = 0;
  };

  /// Builds the index over `vectors` (n x dim).
  static Result<IvfPqIndex> Build(const std::vector<float>& vectors,
                                  size_t dim, const Options& options);

  /// One inverted list, ids ascending. Its ids.size() * m code bytes sit in
  /// blocks of kBlock codes, sub-quantizer-major inside a block, so a scan
  /// scores a block's codes side by side: byte j of the code at position p
  /// is codes[b * m + j * w + (p - b)], with b = p - p % kBlock and
  /// w = min(kBlock, ids.size() - b). The last block is only as wide as the
  /// codes left.
  struct List {
    static constexpr size_t kBlock = 8;
    std::vector<uint32_t> ids;
    std::vector<uint8_t> codes;
  };

  /// CPU IVF-PQ search: coarse scan, probe `nprobe` lists with per-list ADC
  /// LUTs over residuals, heap-select top-k. Returns neighbors sorted by
  /// estimated distance.
  std::vector<Neighbor> Search(const float* query,
                               const SearchParams& params) const;

  /// ADC scan restricted to the given inverted lists: per-list residual
  /// LUTs, heap-select the `k` closest codes, sorted by (distance, id).
  /// Scores a block of codes at once, each distance the same float
  /// ProductQuantizer::AdcDistance returns for that code.
  /// Search() is SearchLists() over SelectProbes(); a sharded deployment
  /// calls it per shard and merges, since each candidate's distance depends
  /// only on its own list's LUT.
  std::vector<Neighbor> SearchLists(const float* query,
                                    const std::vector<uint32_t>& lists,
                                    size_t k) const;

  /// Number of PQ codes that `Search` with `nprobe` would scan for `query`
  /// (the accelerator's work measure).
  uint64_t CodesScanned(const float* query, size_t nprobe) const;

  size_t nlist() const { return lists_.size(); }
  size_t dim() const { return dim_; }
  const ProductQuantizer& pq() const { return pq_; }
  const std::vector<float>& coarse_centroids() const { return coarse_; }
  const List& list(size_t i) const { return lists_[i]; }
  uint64_t total_codes() const { return total_codes_; }
  /// Average inverted-list length.
  double avg_list_len() const {
    return lists_.empty() ? 0 : double(total_codes_) / double(lists_.size());
  }
  /// Index memory footprint: codes + ids + centroids, in bytes.
  uint64_t index_bytes() const;

  /// The `nprobe` coarse centroids nearest to `query`, closest first.
  std::vector<uint32_t> SelectProbes(const float* query, size_t nprobe) const;

  /// True iff raw vectors were stored (re-ranking available).
  bool has_stored_vectors() const { return !stored_vectors_.empty(); }

 private:
  IvfPqIndex(size_t dim, ProductQuantizer pq) : dim_(dim), pq_(std::move(pq)) {}

  size_t dim_;
  ProductQuantizer pq_;
  std::vector<float> coarse_;  ///< nlist x dim.
  CentroidTable coarse_table_;  ///< coarse_, laid out for SelectProbes.
  std::vector<List> lists_;
  std::vector<float> stored_vectors_;  ///< n x dim when store_vectors.
  uint64_t total_codes_ = 0;
};

}  // namespace fpgadp::anns

#endif  // FPGADP_ANNS_IVF_H_
