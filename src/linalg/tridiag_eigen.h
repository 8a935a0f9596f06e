// The library's symmetric eigensolver: Householder tridiagonalization
// followed by the implicit-shift QL iteration — the classic dense-
// symmetric path (EISPACK tred2/tql2 lineage). One O(n^3) reduction plus
// O(n^2)-per-eigenvalue iteration. Every eigensolve goes through it: the
// Frequent Directions shrink, DS-FD, the Gram-route SVD, window PCA, the
// Lanczos tridiagonal of the spectral norm and the Rayleigh-Ritz step of
// subspace iteration.
#ifndef SWSKETCH_LINALG_TRIDIAG_EIGEN_H_
#define SWSKETCH_LINALG_TRIDIAG_EIGEN_H_

#include <vector>

#include "linalg/matrix.h"

namespace swsketch {

/// Eigendecomposition of a symmetric matrix: S = V diag(lambda) V^T with
/// eigenvalues sorted in descending order and eigenvectors as columns of V.
struct SymmetricEigen {
  std::vector<double> eigenvalues;  // Descending.
  Matrix eigenvectors;              // n x n, column i pairs eigenvalues[i].
};

/// Reusable workspace for SymmetricEigenSolve. A scratch cycled through
/// solves of the same (or smaller) size never allocates after the first
/// call: every member is reshaped in place via ResetShape / assign.
/// Not thread-safe — one scratch per concurrent solver.
struct SymmetricEigenScratch {
  Matrix work;                // Symmetrized copy, reduced in place.
  Matrix accum;               // Accumulated transform (basis as rows).
  std::vector<double> diag;   // Tridiagonal diagonal.
  std::vector<double> off;    // Tridiagonal off-diagonal.
  std::vector<double> hcol;   // Householder column staging.
  std::vector<size_t> order;  // Descending-eigenvalue permutation.
  SymmetricEigen result;      // Output storage, reused across solves.
};

/// Full eigendecomposition of symmetric `s`. Symmetry is enforced by
/// averaging S and S^T first, so tiny asymmetries from accumulated
/// floating point error are tolerated. Any finite scale works: the
/// tridiagonal form is scaled by a power of two into [1e-146, 1e146] for
/// the QL iteration. If the QL iteration does not converge (seen only on
/// non-finite input), every eigenvalue and eigenvector entry is a quiet
/// NaN.
SymmetricEigen SymmetricEigenSolve(const Matrix& s);

/// Scratch-accepting variant: solves into scratch->result and returns a
/// reference to it (valid until the scratch is reused). Allocation-free
/// once the scratch has seen a problem of size >= s.rows(). `s` must not
/// alias any scratch member. This is the entry point of the FD shrink hot
/// path: a recycled scratch makes the whole eigensolve heap-free.
const SymmetricEigen& SymmetricEigenSolve(const Matrix& s,
                                          SymmetricEigenScratch* scratch);

}  // namespace swsketch

#endif  // SWSKETCH_LINALG_TRIDIAG_EIGEN_H_
