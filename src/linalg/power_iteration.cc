#include "linalg/power_iteration.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "linalg/tridiag_eigen.h"
#include "linalg/vector_ops.h"
#include "util/logging.h"
#include "util/random.h"

namespace swsketch {

double SpectralNormSymmetric(const Matrix& m,
                             const PowerIterationOptions& options) {
  SWSKETCH_CHECK_EQ(m.rows(), m.cols());
  const size_t n = m.rows();
  if (n == 0) return 0.0;

  const size_t steps = std::min<size_t>(
      n, static_cast<size_t>(std::max(options.lanczos_steps, 2)));

  // Lanczos with full reorthogonalization. Basis vectors kept densely:
  // steps * n doubles, small at evaluation dimensions.
  std::vector<std::vector<double>> basis;
  basis.reserve(steps);
  std::vector<double> alpha, beta;  // Tridiagonal entries.

  Rng rng(options.seed);
  std::vector<double> v(n), w(n);
  for (auto& e : v) e = rng.Gaussian();
  Normalize(v);
  basis.push_back(v);

  const double scale = std::sqrt(m.FrobeniusNormSq());
  if (scale == 0.0) return 0.0;

  for (size_t j = 0; j < steps; ++j) {
    m.Apply(basis[j], w);
    const double a = Dot(w, basis[j]);
    alpha.push_back(a);
    // w -= a * v_j + beta_{j-1} * v_{j-1}; then full reorthogonalization
    // (one pass is enough with the explicit subtraction above).
    Axpy(-a, basis[j], w);
    if (j > 0) Axpy(-beta[j - 1], basis[j - 1], w);
    for (const auto& q : basis) Axpy(-Dot(w, q), q, w);
    const double b = Norm(w);
    if (j + 1 == steps || b <= 1e-14 * scale) break;  // Invariant subspace.
    beta.push_back(b);
    for (size_t i = 0; i < n; ++i) w[i] /= b;
    basis.push_back(w);
  }

  // Extreme |eigenvalue| of the k x k Lanczos tridiagonal.
  const size_t k = alpha.size();
  Matrix t(k, k);
  for (size_t i = 0; i < k; ++i) {
    t(i, i) = alpha[i];
    if (i + 1 < k) {
      t(i, i + 1) = beta[i];
      t(i + 1, i) = beta[i];
    }
  }
  const SymmetricEigen eig = SymmetricEigenSolve(t);
  double best = 0.0;
  for (double l : eig.eigenvalues) best = std::max(best, std::fabs(l));
  return best;
}

double SpectralNorm(const Matrix& a, const PowerIterationOptions& options) {
  if (a.empty()) return 0.0;
  const size_t n = a.rows();
  const size_t d = a.cols();

  Rng rng(options.seed);
  std::vector<double> x(d), ax(n), back(d);
  for (auto& v : x) v = rng.Gaussian();
  Normalize(x);

  double sigma_sq = 0.0;
  for (int it = 0; it < options.max_iters; ++it) {
    a.Apply(x, ax);
    a.ApplyTranspose(ax, back);  // back = A^T A x
    const double nb = Norm(back);
    if (nb == 0.0) return 0.0;
    const double prev = sigma_sq;
    sigma_sq = nb;  // Rayleigh-style estimate of lambda_max(A^T A).
    for (size_t j = 0; j < d; ++j) x[j] = back[j] / nb;
    if (it > 2 && std::fabs(sigma_sq - prev) <= options.rel_tol * sigma_sq) {
      break;
    }
  }
  return std::sqrt(sigma_sq);
}

}  // namespace swsketch
