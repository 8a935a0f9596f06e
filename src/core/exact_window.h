// The exact sliding-window baseline: stores every window row, answers with
// the window matrix itself (zero covariance error). Theorem 4.1 proves this
// linear space cost is unavoidable for exactness — this class exists to
// demonstrate that cost (bench/lower_bound_demo) and to serve as ground
// truth in examples.
#ifndef SWSKETCH_CORE_EXACT_WINDOW_H_
#define SWSKETCH_CORE_EXACT_WINDOW_H_

#include <string>
#include <vector>

#include "core/sliding_window_sketch.h"
#include "stream/window_buffer.h"

namespace swsketch {

/// Linear-space exact window tracker.
class ExactWindow : public SlidingWindowSketch {
 public:
  ExactWindow(size_t dim, WindowSpec window)
      : SlidingWindowSketch(dim, window), buffer_(window) {}

  /// Returns A_W itself (B = A => zero error).
  Matrix Query() override { return buffer_.ToMatrix(); }

  size_t RowsStored() const override { return buffer_.size(); }
  std::string name() const override { return "EXACT"; }

  /// Exact covariance A_W^T A_W.
  Matrix Covariance() const { return buffer_.GramMatrix(dim()); }

  const WindowBuffer& buffer() const { return buffer_; }

 private:
  void Ingest(std::span<const double> row, double ts, double) override {
    buffer_.Add(Row(std::vector<double>(row.begin(), row.end()), ts));
  }
  void Expire(double now) override { buffer_.AdvanceTo(now); }

  WindowBuffer buffer_;
};

}  // namespace swsketch

#endif  // SWSKETCH_CORE_EXACT_WINDOW_H_
