// Experiment harness: drives a row stream through a sliding-window sketch,
// measuring at checkpoints the observed covariance error against the exact
// window (kept in an evaluation-only WindowBuffer), the rows stored by the
// sketch, and the average per-row update cost. This is the machinery behind
// every figure reproduction in bench/.
#ifndef SWSKETCH_EVAL_HARNESS_H_
#define SWSKETCH_EVAL_HARNESS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/sliding_window_sketch.h"
#include "stream/row_stream.h"
#include "stream/window.h"
#include "util/parallel.h"
#include "util/status.h"

namespace swsketch {

struct HarnessOptions {
  /// Number of error checkpoints, spread evenly after warmup (one full
  /// window).
  size_t num_checkpoints = 10;
  /// Total rows the stream will produce (drives checkpoint placement).
  size_t total_rows = 0;
  /// Measure per-update wall time (adds a timer call per row).
  bool measure_update_time = true;
  /// Also evaluate the optimal best-rank-k error at each checkpoint using
  /// k = best_k (0 disables; used for the BEST reference series).
  size_t best_k = 0;
  /// Evaluate checkpoints (Query + covariance error per sketch) on the
  /// thread pool, one task per sketch. Updates always stay serial (the
  /// stream is consumed in order), and every task is self-contained, so
  /// the results are bit-identical to a serial run for deterministic
  /// sketches.
  bool parallel_checkpoints = true;
  /// Rows fed per UpdateBatch call. 1 feeds each row through Update; > 1
  /// buffers the stream into blocks of this many rows (cut early at
  /// checkpoints so every checkpoint still sees exactly the rows up to its
  /// index) and ingests each block with one UpdateBatch per sketch. With batching, avg_update_ns is total ingest time over rows
  /// and max_rows_stored is sampled at block boundaries rather than per
  /// row (transient within-block peaks are not observed).
  size_t batch_rows = 1;
  /// Ingest each block on the thread pool, one task per sketch per block
  /// (sketches are independent; the stream stays in order). Only
  /// meaningful when batch_rows > 1. Per-sketch update timing still works:
  /// each task times its own UpdateBatch.
  bool parallel_ingest = false;
  /// Pool for checkpoint evaluation and parallel ingest; nullptr =
  /// ThreadPool::Shared().
  ThreadPool* pool = nullptr;
  /// Issue an (untimed, discarded) Query() on every sketch each time this
  /// many rows have been ingested (0 disables). Stresses the query-serving
  /// cache during figure runs: queries never mutate logical sketch state,
  /// so every checkpoint record is unchanged whether this is on or off —
  /// the differential tests and the fig3/fig5 error columns pin that.
  /// With batched ingest the query fires at the first block boundary at or
  /// after each multiple.
  size_t query_every = 0;
};

/// Per-checkpoint measurement.
struct Checkpoint {
  size_t row_index = 0;
  double ts = 0.0;
  double cova_err = 0.0;
  size_t rows_stored = 0;
  size_t window_rows = 0;
  double best_err = 0.0;  // Only when options.best_k > 0.
  double zero_err = 0.0;  // err(B = 0) floor; only when best_k > 0.
};

/// Aggregated run result.
struct HarnessResult {
  std::vector<Checkpoint> checkpoints;
  double avg_err = 0.0;
  double max_err = 0.0;
  double avg_best_err = 0.0;
  double max_best_err = 0.0;
  double avg_zero_err = 0.0;  // The B = 0 floor (Section 8.1 obs. (5)).
  size_t max_rows_stored = 0;
  double avg_update_ns = 0.0;
  size_t rows_processed = 0;
  /// OK, or the first rejection the sketch returned for a stream row or
  /// block (the run goes on; that input is simply not in the sketch).
  Status status;
};

/// Runs `stream` through `sketch` (both borrowed) and measures quality at
/// checkpoints. The stream is consumed.
HarnessResult RunSketch(RowStream* stream, SlidingWindowSketch* sketch,
                        const HarnessOptions& options);

/// Single-pass variant over many sketches sharing one stream and one exact
/// window evaluation (the expensive Gram computation is done once per
/// checkpoint regardless of how many sketches are measured). All sketches
/// must share the same window spec.
std::vector<HarnessResult> RunMany(
    RowStream* stream, std::span<SlidingWindowSketch* const> sketches,
    const HarnessOptions& options);

}  // namespace swsketch

#endif  // SWSKETCH_EVAL_HARNESS_H_
