// Thin singular value decomposition via the Gram route: eigendecompose the
// smaller of A A^T / A^T A (SymmetricEigenSolve) and recover the other
// factor. Exact to floating-point accuracy for the well-conditioned,
// small-side shapes produced by sketches (l x d with l << d), and
// O(min(n,d)^2 * max(n,d)) which is the right complexity for those shapes.
#ifndef SWSKETCH_LINALG_SVD_H_
#define SWSKETCH_LINALG_SVD_H_

#include <vector>

#include "linalg/matrix.h"

namespace swsketch {

/// Compact SVD A = U diag(sigma) Vt with rank-r factors; singular values
/// descending and strictly positive (relative to rank_tol).
struct SvdResult {
  std::vector<double> singular_values;  // Size r, descending, > 0.
  Matrix u;                             // n x r, orthonormal columns.
  Matrix vt;                            // r x d, orthonormal rows.
};

struct SvdOptions {
  // Singular values below rank_tol * sigma_max are treated as zero. The
  // Gram route squares the condition number: eigenvalues carry ~1e-12
  // relative noise, so singular values carry ~1e-6; the default cutoff
  // sits above that noise floor.
  double rank_tol = 3e-6;
};

/// Computes the compact SVD of an arbitrary dense matrix.
SvdResult ThinSvd(const Matrix& a, const SvdOptions& options = {});

/// Singular values only (descending, including zeros up to min(n, d)).
std::vector<double> SingularValues(const Matrix& a);

}  // namespace swsketch

#endif  // SWSKETCH_LINALG_SVD_H_
