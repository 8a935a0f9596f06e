// BEST(offline): the best rank-k approximation per window, the theoretical
// optimum among k-row sketches (Section 8, "BEST"). Computed offline from
// the exact window — it is a reference line, not a streaming algorithm
// (computing it in a stream is open, as the paper notes).
#ifndef SWSKETCH_CORE_BEST_RANK_K_H_
#define SWSKETCH_CORE_BEST_RANK_K_H_

#include <string>

#include "core/exact_window.h"

namespace swsketch {

/// Offline best rank-k reference over the sliding window: the exact
/// window, answered through its top-k eigenpairs.
class BestRankK : public ExactWindow {
 public:
  BestRankK(size_t dim, WindowSpec window, size_t k)
      : ExactWindow(dim, window), k_(k) {}

  /// B with k rows: sqrt(lambda_i) v_i^T for the top-k eigenpairs of
  /// A_W^T A_W, so B^T B = (A_k)^T (A_k) and the covariance error equals
  /// lambda_{k+1} / ||A||_F^2 — the optimum.
  Matrix Query() override;

  size_t RowsStored() const override { return k_; }
  std::string name() const override { return "BEST"; }

  size_t k() const { return k_; }

 private:
  size_t k_;
};

/// Optimal covariance error of any rank-k approximation of a window with
/// Gram matrix `gram` and squared Frobenius norm `frob_sq`:
/// lambda_{k+1}(gram) / frob_sq.
double BestRankKError(const Matrix& gram, size_t k, double frob_sq);

/// Both reference errors from one eigensolve: the best-rank-k error and
/// the trivial-approximation floor err(B = 0) = lambda_1 / frob_sq (the
/// paper's Section 8.1 observation (5) reference point).
struct ReferenceErrors {
  double best_err = 0.0;  // lambda_{k+1} / frob_sq.
  double zero_err = 0.0;  // lambda_1 / frob_sq.
};
ReferenceErrors BestAndZeroError(const Matrix& gram, size_t k,
                                 double frob_sq);

}  // namespace swsketch

#endif  // SWSKETCH_CORE_BEST_RANK_K_H_
