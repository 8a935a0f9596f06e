// Interface for sliding-window matrix sketches: the paper's problem
// statement (Section 1). A sketch continuously consumes timestamped rows
// and can at any moment produce an approximation B for the matrix A_W of
// the rows currently in the window.
//
// Admission contract: the base class alone decides whether an input is
// admitted (AdmitRow / AdmitAdvance below), then hands it to one protected
// step per backend. A rejected call returns InvalidArgument (wrong
// dimension, non-finite squared norm) or OutOfRange (timestamp before
// now(), or NaN) and leaves the sketch exactly as it was; a batch is
// validated whole before any row of it is admitted.
#ifndef SWSKETCH_CORE_SLIDING_WINDOW_SKETCH_H_
#define SWSKETCH_CORE_SLIDING_WINDOW_SKETCH_H_

#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>

#include "linalg/matrix.h"
#include "linalg/sparse_vector.h"
#include "linalg/vector_ops.h"
#include "stream/window.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/serialize.h"
#include "util/status.h"

namespace swsketch {

namespace internal {
// The cold reject path: counts the reason and returns its Status.
Status RejectRow(std::string_view layer, size_t values, double norm_sq,
                 double ts, size_t dim, double now);
}  // namespace internal

/// The admission rule for one row of `values` values and squared norm
/// `norm_sq` arriving at `ts` (paper Section 1; Thm 4.2 shows unbounded
/// norms force linear space): values == dim, a finite squared norm (which
/// rules out NaN, +-Inf and overflowing values in one test) and ts >= now
/// (which rejects a NaN ts). A refusal returns InvalidArgument or
/// OutOfRange and counts once, off the hot path, in the rejection ledger
/// `<layer>.rows_rejected.{dim,non_finite,ts_order}`.
inline Status AdmitRow(size_t values, double norm_sq, double ts, size_t dim,
                       double now, std::string_view layer = "sketch") {
  if (values == dim && std::isfinite(norm_sq) && ts >= now) return {};
  return internal::RejectRow(layer, values, norm_sq, ts, dim, now);
}

/// A clock move to `to` is admitted iff to >= now (NaN is rejected); a
/// refusal counts in `<layer>.advances_rejected`.
Status AdmitAdvance(double to, double now, std::string_view layer = "sketch");

/// Continuously queryable sliding-window sketch.
class SlidingWindowSketch {
 public:
  virtual ~SlidingWindowSketch() = default;

  /// Consumes a row arriving at time `ts` (sequence windows: arrival
  /// index) if the admission rule accepts it.
  Status Update(std::span<const double> row, double ts);

  /// Sparse-row variant; the default step densifies, frameworks whose
  /// update fans a row into many block sketches (DI) take an
  /// O(nnz)-per-sketch fast path.
  Status UpdateSparse(const SparseVector& row, double ts);

  /// Batched variant: ts[i] is the timestamp of rows.Row(i). Every row is
  /// validated (ts non-decreasing, continuing from now()) before any is
  /// admitted, so a batch is rejected whole. Window semantics are
  /// identical to feeding the rows one at a time; deterministic backends
  /// produce bit-identical state to the serial path unless their step
  /// documents otherwise; randomized backends draw the same randomness per
  /// row but may accumulate in a different floating-point order.
  Status UpdateBatch(const Matrix& rows, std::span<const double> ts);

  /// Moves the window forward to `now` without an arrival (time-based
  /// windows slide between arrivals).
  Status AdvanceTo(double now);

  /// Approximation B for the current window. May expire internal state
  /// (hence non-const).
  virtual Matrix Query() = 0;

  /// Completes any deferred or asynchronous ingest: after Flush() returns,
  /// Query() and RowsStored() observe every row already passed to Update /
  /// UpdateBatch. Synchronous sketches are trivially flushed (default
  /// no-op); the sharded ingest wrapper overrides this to drain its writer
  /// queues.
  virtual void Flush() {}

  /// Monotone version of the queryable state: advances whenever a mutation
  /// (row ingest, window advance, deserialization) may change what Query()
  /// returns, and holds steady while the sketch is quiescent. Wrappers key
  /// result caches on it. 0 means "not tracked" — callers must then assume
  /// every query is cold.
  virtual uint64_t StateVersion() const { return 0; }

  /// Rows currently materialized by the sketch: the paper's "sketch size".
  virtual size_t RowsStored() const = 0;

  virtual std::string name() const = 0;

  /// Row dimensionality d.
  size_t dim() const { return dim_; }

  /// The window this sketch maintains.
  const WindowSpec& window() const { return window_; }

  /// The clock: the latest admitted timestamp or advance (0 initially).
  double now() const { return now_; }

  /// Checkpoints the full sketch state; Unimplemented for algorithms
  /// without serialization support. Reload with
  /// DeserializeSlidingWindowSketch (factory.h), which dispatches on the
  /// serialized tag.
  virtual Status SerializeTo(ByteWriter*) const {
    return Status::Unimplemented(name() + " does not support serialization");
  }

 protected:
  SlidingWindowSketch(size_t dim, WindowSpec window)
      : dim_(dim), window_(window) {}

  // The per-backend steps. They run after admission, with now() already
  // at `ts` (batch: at ts.back(); the default batch step moves it row by
  // row), and receive the squared norms the rule computed.
  virtual void Ingest(std::span<const double> row, double ts,
                      double norm_sq) = 0;
  virtual void IngestSparse(const SparseVector& row, double ts,
                            double norm_sq);
  virtual void IngestBatch(const Matrix& rows, std::span<const double> ts,
                           std::span<const double> norms_sq);
  /// Drops what left the window ending at `now`; runs after an admitted
  /// AdvanceTo, and backends call it from their own steps and queries.
  virtual void Expire(double now) = 0;

  /// Admitted mutations (rows, advances, reloads): the StateVersion() of
  /// every backend that tracks one.
  uint64_t mutations() const { return mutations_; }
  /// A reload restores the clock and counts as one mutation; false (a
  /// corrupt payload) for a non-finite clock.
  bool Restore(double now) {
    now_ = now;
    ++mutations_;
    return std::isfinite(now);
  }
  /// Wrappers adopt the clock of the sketch they wrap, whose entry points
  /// then admit what the wrapper admitted (same rule, same clock): a
  /// refusal there is a broken invariant, which PassedOn checks.
  void set_now(double now) { now_ = now; }
  static void PassedOn(const Status& inner) { SWSKETCH_CHECK(inner.ok()); }
  static const SlidingWindowSketch& NonNull(
      const std::unique_ptr<SlidingWindowSketch>& inner) {
    SWSKETCH_CHECK(inner != nullptr);
    return *inner;
  }
  /// Sketches written from several threads (ConcurrentSketch) point this
  /// at their writer mutex: admission, the clock step and the backend step
  /// then run under it.
  void GuardWith(std::mutex* mu) { guard_ = mu; }

 private:
  size_t dim_;
  WindowSpec window_;
  double now_ = 0.0;
  uint64_t mutations_ = 0;
  std::mutex* guard_ = nullptr;
};

}  // namespace swsketch

#endif  // SWSKETCH_CORE_SLIDING_WINDOW_SKETCH_H_
