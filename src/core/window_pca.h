// Sliding-window PCA and PCA-based change detection — the paper's
// motivating application (Section 1): approximate the window's principal
// components from any sliding-window sketch instead of storing the window,
// and detect distribution changes by comparing the live test-window basis
// against a frozen reference basis.
#ifndef SWSKETCH_CORE_WINDOW_PCA_H_
#define SWSKETCH_CORE_WINDOW_PCA_H_

#include <memory>
#include <vector>

#include "core/sliding_window_sketch.h"
#include "linalg/matrix.h"

namespace swsketch {

/// Principal components extracted from a window approximation.
struct PcaResult {
  /// Top-k eigenvalues of B^T B (approximating those of A^T A), descending.
  std::vector<double> eigenvalues;
  /// k x d matrix with orthonormal rows: the principal directions.
  Matrix components;
};

/// PCA over a sliding window, backed by any SlidingWindowSketch.
class WindowPca {
 public:
  /// Takes ownership of the sketch.
  explicit WindowPca(std::unique_ptr<SlidingWindowSketch> sketch);

  /// Forwards a stream row (clock move) to the underlying sketch and
  /// returns its admission Status.
  Status Update(std::span<const double> row, double ts);
  Status AdvanceTo(double now);

  /// Top-k principal components of the current window approximation.
  PcaResult Principal(size_t k);

  /// Fraction of `row`'s energy captured by `basis` (k x d orthonormal
  /// rows): ||V row||^2 / ||row||^2 in [0, 1].
  static double CapturedEnergy(const Matrix& basis,
                               std::span<const double> row);

  /// Subspace affinity between two orthonormal bases (k x d each):
  /// ||V1 V2^T||_F^2 / k. 1 = identical subspaces, ~k/d for random ones.
  static double SubspaceAffinity(const Matrix& basis1, const Matrix& basis2);

  SlidingWindowSketch& sketch() { return *sketch_; }

 private:
  std::unique_ptr<SlidingWindowSketch> sketch_;
};

/// Window-based change/anomaly detector (Section 1's "concrete
/// application"): freeze a reference basis, keep sketching the test
/// window, and alarm when the subspace affinity drops below a threshold.
class PcaChangeDetector {
 public:
  struct Options {
    size_t k = 3;              // Principal components compared.
    double threshold = 0.5;    // Affinity below this raises the alarm.
  };

  PcaChangeDetector(std::unique_ptr<SlidingWindowSketch> sketch,
                    Options options);

  Status Update(std::span<const double> row, double ts);

  /// Captures the current window's basis as the reference distribution.
  void FreezeReference();
  bool has_reference() const { return reference_.rows() > 0; }

  /// Affinity of the live window's basis to the reference (1 = no change).
  double Score();

  /// True when Score() < threshold.
  bool Alarm() { return Score() < options_.threshold; }

 private:
  WindowPca pca_;
  Options options_;
  Matrix reference_;
};

}  // namespace swsketch

#endif  // SWSKETCH_CORE_WINDOW_PCA_H_
