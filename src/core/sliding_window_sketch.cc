#include "core/sliding_window_sketch.h"

#include <cmath>
#include <string>
#include <vector>

namespace swsketch {

namespace internal {

Status RejectRow(std::string_view layer, size_t values, double norm_sq,
                 double ts, size_t dim, double now) {
  const MetricScope ledger{std::string(layer)};
  if (values != dim) {
    ledger.counter("rows_rejected.dim")->Add();
    return Status::InvalidArgument("row has " + std::to_string(values) +
                                   " values, sketch dim is " +
                                   std::to_string(dim));
  }
  if (!std::isfinite(norm_sq)) {
    ledger.counter("rows_rejected.non_finite")->Add();
    return Status::InvalidArgument("row has a non-finite squared norm");
  }
  ledger.counter("rows_rejected.ts_order")->Add();
  if (std::isnan(ts)) return Status::OutOfRange("timestamp is NaN");
  return Status::OutOfRange("timestamp " + std::to_string(ts) +
                            " is before the clock " + std::to_string(now));
}

}  // namespace internal

Status AdmitAdvance(double to, double now, std::string_view layer) {
  if (to >= now) return Status::OK();
  MetricScope(std::string(layer)).counter("advances_rejected")->Add();
  if (std::isnan(to)) return Status::OutOfRange("advance to NaN");
  return Status::OutOfRange("advance to " + std::to_string(to) +
                            " is before the clock " + std::to_string(now));
}

namespace {

std::unique_lock<std::mutex> Lock(std::mutex* mu) {
  return mu ? std::unique_lock<std::mutex>(*mu)
            : std::unique_lock<std::mutex>();
}

}  // namespace

Status SlidingWindowSketch::Update(std::span<const double> row, double ts) {
  const auto lock = Lock(guard_);
  const double norm_sq = NormSq(row);
  Status st = AdmitRow(row.size(), norm_sq, ts, dim_, now_);
  if (!st.ok()) return st;
  now_ = ts;
  ++mutations_;
  Ingest(row, ts, norm_sq);
  return st;
}

Status SlidingWindowSketch::UpdateSparse(const SparseVector& row, double ts) {
  const auto lock = Lock(guard_);
  const double norm_sq = row.NormSq();
  Status st = AdmitRow(row.dim(), norm_sq, ts, dim_, now_);
  if (!st.ok()) return st;
  now_ = ts;
  ++mutations_;
  IngestSparse(row, ts, norm_sq);
  return st;
}

Status SlidingWindowSketch::UpdateBatch(const Matrix& rows,
                                        std::span<const double> ts) {
  if (rows.rows() != ts.size()) {
    MetricScope("sketch").counter("rows_rejected.dim")->Add();
    return Status::InvalidArgument(
        "batch of " + std::to_string(rows.rows()) + " rows has " +
        std::to_string(ts.size()) + " timestamps");
  }
  if (ts.empty()) return Status::OK();
  const auto lock = Lock(guard_);
  std::vector<double> norms(ts.size());
  for (size_t i = 0; i < ts.size(); ++i) {
    norms[i] = NormSq(rows.Row(i));
    const Status st = AdmitRow(rows.cols(), norms[i], ts[i], dim_,
                               i == 0 ? now_ : ts[i - 1]);
    if (!st.ok()) return st.Annotate("batch row " + std::to_string(i) + ": ");
  }
  now_ = ts.back();
  mutations_ += ts.size();
  IngestBatch(rows, ts, norms);
  return Status::OK();
}

Status SlidingWindowSketch::AdvanceTo(double now) {
  const auto lock = Lock(guard_);
  Status st = AdmitAdvance(now, now_);
  if (!st.ok()) return st;
  now_ = now;
  ++mutations_;
  Expire(now);
  return st;
}

void SlidingWindowSketch::IngestSparse(const SparseVector& row, double ts,
                                       double norm_sq) {
  Ingest(row.ToDense(), ts, norm_sq);
}

void SlidingWindowSketch::IngestBatch(const Matrix& rows,
                                      std::span<const double> ts,
                                      std::span<const double> norms_sq) {
  for (size_t i = 0; i < rows.rows(); ++i) {
    now_ = ts[i];
    Ingest(rows.Row(i), ts[i], norms_sq[i]);
  }
}

}  // namespace swsketch
