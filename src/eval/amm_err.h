// Approximate matrix multiplication error (the AMM workload's quality
// metric, following the co-sketch analysis of arXiv 2502.17940):
//   amm-err(A, B, P) = ||A^T B - P||_2 / (||A||_F ||B||_F).
// The d_a x d_b difference is a general rectangular matrix, so its
// spectral norm (largest singular value) comes from power iteration on
// the difference.
#ifndef SWSKETCH_EVAL_AMM_ERR_H_
#define SWSKETCH_EVAL_AMM_ERR_H_

#include <cstddef>

#include "linalg/matrix.h"

namespace swsketch {

/// amm-err given the exact window product A^T B and the operands' squared
/// Frobenius norms. `estimate` must be d_a x d_b (same shape as
/// `exact_product`); pass an empty estimate for the empty-sketch
/// convention (errors against the zero matrix).
double AmmError(const Matrix& exact_product, double frob_a_sq,
                double frob_b_sq, const Matrix& estimate);

/// The co-sketch guarantee: an FD sketch of the stacked matrix M = [A | B]
/// at ell rows bounds the product error by the covariance bound on M,
///   ||A^T B - P||_2 <= ||M^T M - C^T C||_2 <= ||M||_F^2 / (ell - k),
/// which normalized by ||A||_F ||B||_F (with the rank term dropped, k = 0)
/// gives
///   amm-err <= (||A||_F^2 + ||B||_F^2) / (ell * ||A||_F ||B||_F).
/// The sliding-window backends (DS-FD, LM, DI) guarantee a constant-factor
/// relaxation of the one-shot bound over the window; `slack` carries that
/// constant (the harness and tests assert against slack-scaled bounds).
double AmmErrorBound(size_t ell, double frob_a_sq, double frob_b_sq,
                     double slack = 1.0);

}  // namespace swsketch

#endif  // SWSKETCH_EVAL_AMM_ERR_H_
