// Symmetric eigensolver via Householder tridiagonalization followed by the
// implicit-shift QL iteration — the classic dense-symmetric path (EISPACK
// tred2/tql2 lineage). One O(n^3) reduction plus O(n^2)-per-eigenvalue
// iteration makes it roughly an order of magnitude faster than cyclic
// Jacobi at n >= ~100, which is what keeps Frequent Directions merges
// affordable at large ell. SymmetricEigenSolve dispatches between the two.
#ifndef SWSKETCH_LINALG_TRIDIAG_EIGEN_H_
#define SWSKETCH_LINALG_TRIDIAG_EIGEN_H_

#include "linalg/jacobi_eigen.h"
#include "linalg/matrix.h"

namespace swsketch {

/// Full eigendecomposition of symmetric `s` via tridiagonalization + QL.
/// Same contract as JacobiEigen: eigenvalues descending, eigenvectors as
/// columns.
SymmetricEigen TridiagEigen(const Matrix& s);

/// Scratch-accepting variant: solves into scratch->result and returns a
/// reference to it (valid until the scratch is reused). Allocation-free
/// once the scratch has seen a problem of size >= s.rows(). `s` must not
/// alias any scratch member.
const SymmetricEigen& TridiagEigen(const Matrix& s,
                                   SymmetricEigenScratch* scratch);

/// Largest system SymmetricEigenSolve hands to cyclic Jacobi (more
/// accurate on tiny systems, no allocation overhead); larger ones take
/// tridiagonal QL. Moving it changes FD shrink output bytes and goldens.
inline constexpr size_t kJacobiCutoff = 32;

/// Dispatching solver: Jacobi up to kJacobiCutoff rows, tridiagonal QL
/// above.
SymmetricEigen SymmetricEigenSolve(const Matrix& s);

/// Scratch-accepting dispatching solver (see the TridiagEigen overload for
/// the reuse/aliasing contract). This is the entry point of the FD shrink
/// hot path: a recycled scratch makes the whole eigensolve heap-free.
const SymmetricEigen& SymmetricEigenSolve(const Matrix& s,
                                          SymmetricEigenScratch* scratch);

}  // namespace swsketch

#endif  // SWSKETCH_LINALG_TRIDIAG_EIGEN_H_
