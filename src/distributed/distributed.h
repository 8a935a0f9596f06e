// Distributed sliding-window sampling — the extension the paper lists as
// future work (Section 9), built on the max-stability of priorities:
// norm-proportional priority samples from disjoint sub-streams combine by
// taking the highest-priority candidate per sample slot, yielding an exact
// SWR sample of the union window. FD mergeability (Section 6.1) and
// decomposability (Lemma 7.1) are the kFdMerge / kStack routes of
// core/merge_reduce.h, which ShardedSketch applies to per-shard queries.
#ifndef SWSKETCH_DISTRIBUTED_DISTRIBUTED_H_
#define SWSKETCH_DISTRIBUTED_DISTRIBUTED_H_

#include <span>
#include <vector>

#include "core/sliding_window_sketch.h"
#include "core/swr.h"

namespace swsketch {

/// Coordinator for distributed SWR: each worker runs SwrSketch over its
/// local sub-stream (same window spec, same ell, distinct seeds). A query
/// selects, per sample slot, the worker candidate with the highest
/// priority — which is distributed norm-proportional sampling of the union
/// window — and rescales by the summed Frobenius estimate.
class DistributedSwr {
 public:
  /// Workers are borrowed and must outlive the coordinator. All must share
  /// ell and dim; seeds must differ for sample independence.
  explicit DistributedSwr(std::vector<SwrSketch*> workers);

  /// Routes a row to worker `worker_index` (the caller's partitioning).
  /// InvalidArgument for an index past the last worker, else the worker's
  /// admission Status; a rejected row leaves every clock unchanged.
  Status Update(size_t worker_index, std::span<const double> row, double ts);

  /// Moves every worker's window forward (e.g. on coordinator heartbeat).
  void AdvanceTo(double now);

  /// The union-window approximation.
  Matrix Query();

  /// Total candidate rows stored across workers.
  size_t RowsStored() const;

  size_t num_workers() const { return workers_.size(); }

 private:
  std::vector<SwrSketch*> workers_;
  double now_ = 0.0;
};

}  // namespace swsketch

#endif  // SWSKETCH_DISTRIBUTED_DISTRIBUTED_H_
