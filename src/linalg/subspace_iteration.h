// Block power (subspace) iteration with Rayleigh-Ritz refinement for the
// top-k eigenpairs of a symmetric PSD matrix. Used by BEST(offline) — the
// best-rank-k reference of the paper's experiments needs sigma_{k+1}^2 of
// each window Gram matrix, for k up to ~100, which a full eigensolve on
// d x d would make needlessly expensive — and by the PCA examples.
#ifndef SWSKETCH_LINALG_SUBSPACE_ITERATION_H_
#define SWSKETCH_LINALG_SUBSPACE_ITERATION_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"

namespace swsketch {

struct SubspaceOptions {
  int max_iters = 60;
  double rel_tol = 1e-9;  // On the change of the eigenvalue estimates.
  uint64_t seed = 0xABCDEF;
  // Oversampling columns beyond k: improves convergence of the trailing
  // requested eigenpair.
  size_t oversample = 4;
};

/// Top-k eigenpairs of symmetric PSD `m`, eigenvalues descending,
/// eigenvectors as columns of `vectors` (d x k, orthonormal).
struct TopEigen {
  std::vector<double> values;  // Size k.
  Matrix vectors;              // d x k.
};

TopEigen TopEigenpairsPsd(const Matrix& m, size_t k,
                          const SubspaceOptions& options = {});

/// In-place modified Gram-Schmidt on the columns of q. Near-dependent
/// columns are replaced by fresh random directions re-orthogonalized
/// against the previous ones, so the result always has orthonormal columns.
void OrthonormalizeColumns(Matrix* q, uint64_t seed);

}  // namespace swsketch

#endif  // SWSKETCH_LINALG_SUBSPACE_ITERATION_H_
