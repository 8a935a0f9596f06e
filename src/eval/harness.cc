#include "eval/harness.h"

#include <algorithm>

#include "core/best_rank_k.h"
#include "eval/cov_err.h"
#include "stream/window_buffer.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/timer.h"

namespace swsketch {

namespace {

// Handles under the fixed "harness." prefix: stream rows pulled, mature
// checkpoints evaluated, and checkpoint evaluation latency.
struct HarnessMetrics {
  Counter* rows;
  Counter* checkpoints;
  Histogram* checkpoint_ns;

  static const HarnessMetrics& Get() {
    static const HarnessMetrics m = [] {
      MetricScope scope("harness");
      return HarnessMetrics{scope.counter("rows"),
                            scope.counter("checkpoints"),
                            scope.histogram("checkpoint_ns")};
    }();
    return m;
  }
};

// Evaluates one mature checkpoint (exact Gram + per-sketch Query/error,
// optionally on the pool) and appends a Checkpoint per sketch.
void EvalCheckpoint(std::span<SlidingWindowSketch* const> sketches,
                    const HarnessOptions& options, const WindowBuffer& buffer,
                    size_t dim, size_t row_index, double ts,
                    std::vector<HarnessResult>* results) {
  HarnessMetrics::Get().checkpoints->Add();
  ScopedTimer timer(HarnessMetrics::Get().checkpoint_ns);
  const Matrix gram = buffer.GramMatrix(dim);
  const double frob_sq = buffer.FrobeniusNormSq();
  double best_err = 0.0, zero_err = 0.0;
  if (options.best_k > 0) {
    const ReferenceErrors refs = BestAndZeroError(gram, options.best_k,
                                                  frob_sq);
    best_err = refs.best_err;
    zero_err = refs.zero_err;
  }
  // One task per sketch: Query + spectral-norm evaluation dominate
  // checkpoint cost and are independent across sketches. Each task
  // reads only its own sketch and writes its own slot, so parallel
  // and serial execution produce bit-identical checkpoints.
  std::vector<Checkpoint> ckpts(sketches.size());
  const auto eval_one = [&](size_t s) {
    // Asynchronous-ingest sketches (sharded ingest) must observe every
    // row fed so far before being measured; synchronous sketches no-op.
    sketches[s]->Flush();
    Checkpoint c;
    c.row_index = row_index;
    c.ts = ts;
    c.rows_stored = sketches[s]->RowsStored();
    c.window_rows = buffer.size();
    c.best_err = best_err;
    c.zero_err = zero_err;
    const Matrix b = sketches[s]->Query();
    c.cova_err = CovarianceError(gram, frob_sq, b);
    ckpts[s] = c;
  };
  if (options.parallel_checkpoints) {
    ParallelFor(sketches.size(), eval_one, {.grain = 1, .pool = options.pool});
  } else {
    for (size_t s = 0; s < sketches.size(); ++s) eval_one(s);
  }
  for (size_t s = 0; s < sketches.size(); ++s) {
    (*results)[s].checkpoints.push_back(ckpts[s]);
  }
}

}  // namespace

std::vector<HarnessResult> RunMany(RowStream* stream,
                                   std::span<SlidingWindowSketch* const>
                                       sketches,
                                   const HarnessOptions& options) {
  SWSKETCH_CHECK_GT(sketches.size(), 0u);
  SWSKETCH_CHECK_GT(options.total_rows, 0u);
  const WindowSpec window = sketches[0]->window();
  WindowBuffer buffer(window);

  // Checkpoint row indices, evenly spaced across the stream; immature
  // windows (before the first full window) are skipped at runtime.
  std::vector<size_t> ckpt_indices;
  const size_t nc = std::max<size_t>(options.num_checkpoints, 1);
  for (size_t i = 1; i <= nc; ++i) {
    size_t idx = options.total_rows * i / (nc + 1);
    if (idx > 0) ckpt_indices.push_back(idx - 1);
  }
  ckpt_indices.erase(std::unique(ckpt_indices.begin(), ckpt_indices.end()),
                     ckpt_indices.end());

  std::vector<HarnessResult> results(sketches.size());
  std::vector<CostAccumulator> costs(sketches.size());

  double first_ts = 0.0;
  bool have_first = false;
  size_t row_index = 0;
  size_t next_ckpt = 0;
  const size_t dim = stream->dim();

  // --query_every support: fire an untimed Query() on every sketch each
  // time `query_every` rows have gone in. Queries only touch cache state,
  // so checkpoint records are identical with this on or off.
  size_t rows_until_query = options.query_every;
  const auto maybe_query = [&](size_t ingested) {
    if (options.query_every == 0) return;
    if (ingested >= rows_until_query) {
      for (SlidingWindowSketch* s : sketches) (void)s->Query();
      rows_until_query = options.query_every -
                         (ingested - rows_until_query) % options.query_every;
    } else {
      rows_until_query -= ingested;
    }
  };

  // Pull blocks straight from the stream via NextBatch (loaders like CSV
  // parse directly into the block) and hand each sketch one UpdateBatch
  // per block, or one Update per row when batch_rows <= 1. Pulls are capped
  // at the next checkpoint index, so a checkpoint always observes exactly
  // the rows up to it: the records match block for block whatever the
  // block size.
  const size_t block_rows = std::max<size_t>(options.batch_rows, 1);
  Matrix block(0, dim);
  block.ReserveRows(block_rows);
  std::vector<double> block_ts;
  for (;;) {
    size_t want = block_rows;
    if (next_ckpt < ckpt_indices.size()) {
      want = std::min(want, ckpt_indices[next_ckpt] - row_index + 1);
    }
    const size_t got = stream->NextBatch(want, &block, &block_ts);
    if (got == 0) break;
    if (!have_first) {
      first_ts = block_ts[0];
      have_first = true;
    }
    const auto ingest_one = [&](size_t s) {
      const Timer t;
      const Status st = block_rows == 1
                            ? sketches[s]->Update(block.Row(0), block_ts[0])
                            : sketches[s]->UpdateBatch(block, block_ts);
      if (options.measure_update_time) {
        costs[s].AddSpanning(t.ElapsedNanos(), static_cast<int64_t>(got));
      }
      if (!st.ok() && results[s].status.ok()) results[s].status = st;
    };
    if (options.parallel_ingest && block_rows > 1) {
      ParallelFor(sketches.size(), ingest_one,
                  {.grain = 1, .pool = options.pool});
    } else {
      for (size_t s = 0; s < sketches.size(); ++s) ingest_one(s);
    }
    for (size_t i = 0; i < got; ++i) {
      const auto row = block.Row(i);
      buffer.Add(Row(std::vector<double>(row.begin(), row.end()),
                     block_ts[i]));
    }
    for (size_t s = 0; s < sketches.size(); ++s) {
      results[s].max_rows_stored =
          std::max(results[s].max_rows_stored, sketches[s]->RowsStored());
    }
    row_index += got;
    maybe_query(got);
    const double ts = block_ts[got - 1];
    if (next_ckpt < ckpt_indices.size() &&
        row_index - 1 == ckpt_indices[next_ckpt]) {
      ++next_ckpt;
      // Window maturity: a full sequence window, or a full time span.
      const bool mature =
          window.type() == WindowType::kSequence
              ? buffer.size() >= static_cast<size_t>(window.extent())
              : (ts - first_ts) >= window.extent();
      if (mature && !buffer.empty()) {
        EvalCheckpoint(sketches, options, buffer, dim, row_index - 1, ts,
                       &results);
      }
    }
  }

  HarnessMetrics::Get().rows->Add(row_index);
  for (size_t s = 0; s < sketches.size(); ++s) {
    HarnessResult& r = results[s];
    r.rows_processed = row_index;
    r.avg_update_ns = costs[s].AverageNanos();
    double sum = 0.0, best_sum = 0.0, zero_sum = 0.0;
    for (const Checkpoint& c : r.checkpoints) {
      sum += c.cova_err;
      best_sum += c.best_err;
      zero_sum += c.zero_err;
      r.max_err = std::max(r.max_err, c.cova_err);
      r.max_best_err = std::max(r.max_best_err, c.best_err);
    }
    if (!r.checkpoints.empty()) {
      r.avg_err = sum / static_cast<double>(r.checkpoints.size());
      r.avg_best_err = best_sum / static_cast<double>(r.checkpoints.size());
      r.avg_zero_err = zero_sum / static_cast<double>(r.checkpoints.size());
    }
  }
  return results;
}

HarnessResult RunSketch(RowStream* stream, SlidingWindowSketch* sketch,
                        const HarnessOptions& options) {
  SlidingWindowSketch* arr[1] = {sketch};
  return RunMany(stream, std::span<SlidingWindowSketch* const>(arr, 1),
                 options)[0];
}

}  // namespace swsketch
